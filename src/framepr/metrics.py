"""Distances on the phase quotient space (x identified with e^{i phi} x).

Two families: the phase-minimized Euclidean distance quotient_distance
and the matrix-norm distance outer_distance between the lifted outer
products, both from the exact closed-form spectrum of x x* - y y*.
"""

from __future__ import annotations

import math

import numpy as np

from .lifting import rank_one_diff_spectrum


def quotient_distance(x, y) -> float:
    """min over phases of ||x - e^{i phi} y||_2; 0 for two zero vectors."""
    return _distances(x, y)[0]


def _distances(x, y) -> tuple[float, float]:
    """(quotient_distance, outer_distance with p = 1) from one spectrum:
    d2 = ||x x* - y y*||_1 / sqrt(||x||^2 + ||y||^2 + 2 |<x, y>|), an exact
    numerator over a sum of positive terms, so no cancellation.

    When that sum leaves [2^-500, 2^500] (it overflows for entries near
    1e160 and underflows to 0 near 1e-170), both are first computed for x
    and y scaled by one power of two that brings their largest entry into
    [1/2, 1), then scaled back: d2 keeps its accuracy, and d1 becomes inf or
    0 only where its true value leaves the float range."""
    norm1 = rank_one_diff_spectrum(x, y).norm1  # also checks the shapes
    total = np.vdot(x, x).real + np.vdot(y, y).real + 2.0 * abs(np.vdot(y, x))
    if not 2.0**-500 <= total <= 2.0**500:
        xy = np.asarray([x, y], dtype=complex)
        big = float(np.abs(xy).max())  # NaN when an entry is NaN
        if 0.0 < big < np.inf:
            e = min(max(math.frexp(big)[1], -1021), 1022)  # 2^e and 2^-e are floats
            d2, d1 = _distances(xy[0] * 2.0**-e, xy[1] * 2.0**-e)
            with np.errstate(over="ignore"):
                return float(np.ldexp(d2, e)), float(np.ldexp(d1, 2 * e))
    den = np.sqrt(total)
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

