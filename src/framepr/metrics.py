"""Distances on the phase quotient space (x identified with e^{i phi} x).

Two families: the phase-minimized Euclidean distance quotient_distance
and the matrix-norm distance outer_distance between the lifted outer
products, both from the exact closed-form spectrum of x x* - y y*.
"""

from __future__ import annotations

import numpy as np

from .lifting import rank_one_diff_spectrum


def quotient_distance(x, y) -> float:
    """min over phases of ||x - e^{i phi} y||_2; 0 for two zero vectors."""
    return _distances(x, y)[0]


def _distances(x, y) -> tuple[float, float]:
    """(quotient_distance, outer_distance with p = 1) from one spectrum:
    d2 = ||x x* - y y*||_1 / sqrt(||x||^2 + ||y||^2 + 2 |<x, y>|), an exact
    numerator over a sum of positive terms, so no cancellation."""
    norm1 = rank_one_diff_spectrum(x, y).norm1  # also checks the shapes
    den = np.sqrt(np.vdot(x, x).real + np.vdot(y, y).real + 2.0 * abs(np.vdot(y, x)))
    return float(norm1 / den) if den else 0.0, norm1


def outer_distance(x, y, p: float = 2) -> float:
    """||x x* - y y*||_p for p in {1, 2, inf}, via the closed-form spectrum."""
    spec = rank_one_diff_spectrum(x, y)
    if p == 1:
        return spec.norm1
    if p == 2:
        return spec.norm2
    if p == np.inf:
        return spec.norm_inf
    raise ValueError(f"outer_distance supports p in {{1, 2, inf}}, got {p!r}")

