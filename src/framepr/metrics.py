"""Distances on the phase quotient space (x identified with e^{i phi} x).

Two families: the phase-minimized vector distance quotient_distance (closed
form at p = 2, numeric phase search otherwise) and the matrix-norm distance
outer_distance between the lifted outer products, available in closed form
for p in {1, 2, inf}.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .lifting import rank_one_diff_spectrum

_PHASE_GRID = 256


def _check_pair(x, y):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape mismatch {x.shape} vs {y.shape}")
    return x, y


def quotient_distance(x, y, p: float = 2) -> float:
    """min over phases of ||x - e^{i phi} y||_p.

    p = 2 uses the closed form sqrt(||x||^2 + ||y||^2 - 2 |<x, y>|); other p
    are resolved by a coarse phase grid refined with bounded scalar
    minimization on the bracketing interval (absolute phase accuracy ~1e-9).
    """
    x, y = _check_pair(x, y)
    if p == 2:
        nx2 = np.vdot(x, x).real
        ny2 = np.vdot(y, y).real
        ip = np.vdot(y, x)  # <x, y>
        d2sq = max(nx2 + ny2 - 2.0 * abs(ip), 0.0)
        if d2sq > 64.0 * np.finfo(float).eps * (nx2 + ny2):
            return float(np.sqrt(d2sq))
        # the closed form cancels catastrophically near zero; align the phase
        # explicitly and difference the vectors instead
        phase = 1.0 if ip == 0 else ip / abs(ip)
        return float(np.linalg.norm(x - phase * y))

    from scipy.optimize import minimize_scalar  # slow to import; only p != 2 needs it

    def objective(phi: float) -> float:
        return float(np.linalg.norm(x - np.exp(1j * phi) * y, ord=p))

    grid = np.linspace(0.0, 2.0 * np.pi, _PHASE_GRID, endpoint=False)
    values = np.linalg.norm(x - np.exp(1j * grid)[:, None] * y, ord=p, axis=1)
    k = int(np.argmin(values))
    step = 2.0 * np.pi / _PHASE_GRID
    lo, hi = grid[k] - step, grid[k] + step
    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-9})
    return float(min(res.fun, values[k]))


def outer_distance(x, y, p: float = 2) -> float:
    """||x x* - y y*||_p for p in {1, 2, inf}, via the closed-form spectrum."""
    x, y = _check_pair(x, y)
    spec = rank_one_diff_spectrum(x, y)
    if p == 1:
        return spec.norm1
    if p == 2:
        return spec.norm2
    if p == np.inf or p == "inf":
        return spec.norm_inf
    raise ValueError(f"outer_distance supports p in {{1, 2, inf}}, got {p!r}")

