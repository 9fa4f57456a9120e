"""Distances on the phase quotient space (x identified with e^{i phi} x).

Two families: the phase-minimized Euclidean distance quotient_distance,
from the phase-aligned difference, and the matrix-norm distance
outer_distance between the lifted outer products, in closed form for p in
{1, 2, inf}.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .lifting import rank_one_diff_spectrum


def _check_pair(x, y):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape mismatch {x.shape} vs {y.shape}")
    return x, y


def quotient_distance(x, y) -> float:
    """min over phases of ||x - e^{i phi} y||_2.

    Aligns y to x by the phase of <x, y> and differences the vectors; the
    closed form sqrt(||x||^2 + ||y||^2 - 2 |<x, y>|) would cancel
    catastrophically for nearby classes.
    """
    x, y = _check_pair(x, y)
    ip = np.vdot(y, x)  # <x, y>
    phase = 1.0 if ip == 0 else ip / abs(ip)
    return float(np.linalg.norm(x - phase * y))


def outer_distance(x, y, p: float = 2) -> float:
    """||x x* - y y*||_p for p in {1, 2, inf}, via the closed-form spectrum."""
    x, y = _check_pair(x, y)
    spec = rank_one_diff_spectrum(x, y)
    if p == 1:
        return spec.norm1
    if p == 2:
        return spec.norm2
    if p == np.inf:
        return spec.norm_inf
    raise ValueError(f"outer_distance supports p in {{1, 2, inf}}, got {p!r}")

