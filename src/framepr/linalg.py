"""Dense self-adjoint linear algebra primitives shared by every other module.

All routines are pure functions of their inputs and deterministic; eigenvalues
are always reported in descending order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IndefiniteOperator, NoConvergence, NotHermitian

DEFAULT_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-10
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class EigDecomposition:
    """Full spectrum of a self-adjoint matrix.

    ``eigenvalues`` is real and sorted descending; column ``k`` of
    ``eigenvectors`` is the unit eigenvector paired with ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def _kept(self) -> np.ndarray:
        lam = self.eigenvalues
        cutoff = DEFAULT_RANK_TOL * np.max(np.abs(lam)) if lam.size else 0.0
        return np.abs(lam) > cutoff

    def rank(self) -> int:
        """Number of eigenvalues with |lam| > DEFAULT_RANK_TOL * max|lam|."""
        return int(np.sum(self._kept()))

    def pseudo_inverse(self) -> np.ndarray:
        """Moore-Penrose inverse; eigenvalues with |lam| <= DEFAULT_RANK_TOL * max|lam| count as zero."""
        lam = self.eigenvalues
        inv = np.where(self._kept(), 1.0 / np.where(lam == 0, 1.0, lam), 0.0)
        out = (self.eigenvectors * inv) @ self.eigenvectors.conj().T
        return hermitian_part(out)


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M*)/2, absorbing roundoff asymmetry."""
    M = np.asarray(M)
    return 0.5 * (M + M.conj().T)


def _defect_within(D: np.ndarray, M: np.ndarray, tol: float) -> bool:
    """Whether ||D|| <= tol * max(||M||, 1) (Frobenius; the squares are
    compared).  A NaN or infinite ||D||, which any non-finite entry of M
    gives when D is a defect of M, fails."""
    defect = np.vdot(D, D).real
    # ||M|| is only needed when the defect exceeds the floor tol * 1
    return defect <= tol * tol or (
        math.isfinite(defect) and defect <= tol * tol * np.vdot(M, M).real
    )


def _hermitian_defect(M: np.ndarray, tol: float) -> np.ndarray:
    """D = M - M*, after raising NotHermitian when M is not square or when
    ``_defect_within(D, M, tol)`` fails, so also on NaN or inf entries."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {M.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the check refuses
        D = M - M.conj().T
    if not _defect_within(D, M, tol):
        raise NotHermitian("matrix is not self-adjoint within tolerance, or not finite")
    return D


@functools.cache
def _eig_routine(dtype: np.dtype):
    """The LAPACK divide-and-conquer routine np.linalg.eigh runs for ``dtype``;
    like eigh, it factors single precision in double.

    scipy.linalg is imported here, not with this module.  ``import framepr``
    loads it anyway, but loading it this early reorders the package import,
    which moves its garbage collections and slowed a cold ``import framepr``
    by 8-18% (2-vCPU Xeon, Python 3.11).
    """
    from scipy.linalg import lapack

    if dtype in (np.float32, np.float64):
        return lapack.dsyevd
    if dtype in (np.complex64, np.complex128):
        return lapack.zheevd
    raise TypeError(f"array type {dtype} is unsupported in linalg")


@functools.cache
def _cholesky_routine():
    """LAPACK's dposv (Cholesky factor and solve), imported on first use for
    the reason ``_eig_routine`` gives."""
    from scipy.linalg import lapack

    return lapack.dposv


def spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a real symmetric positive definite A by Cholesky.

    Calls LAPACK's dposv directly, without the checks and copies of
    ``scipy.linalg.solve``; only one triangle of A is read.  When the
    factorization meets a nonpositive pivot (A is not numerically positive
    definite, info > 0), the system is solved by ``np.linalg.solve`` (LU with
    partial pivoting) instead.
    """
    _, x, info = _cholesky_routine()(A, b)
    return np.linalg.solve(A, b) if info > 0 else x


def hermitian_eig(M: np.ndarray) -> EigDecomposition:
    """Full eigendecomposition of a self-adjoint matrix, sorted descending.

    NotHermitian is raised when ||M - M*||_F > DEFAULT_TOL * max(||M||_F, 1)
    or when M has a NaN or infinite entry; the input is then symmetrized to
    M - (M - M*)/2, so that roundoff-level asymmetry never leaks into the
    spectrum.  The factorization calls LAPACK's ?heevd/?syevd on the lower
    triangle (``lower=1``) directly: the routine, triangle and precision
    ``np.linalg.eigh`` uses, so the result is bit for bit that of ``eigh``
    without its per-call wrapper cost.  Integer input is factored as
    float64; float32 and complex64 results keep their dtype.
    """
    M = np.asarray(M)
    D = _hermitian_defect(M, DEFAULT_TOL)
    S = M - 0.5 * D
    routine = _eig_routine(S.dtype)
    w, v, info = routine(S, lower=1)
    if info != 0:
        raise NoConvergence(f"LAPACK {routine.__name__} failed with info={info}")
    if v.dtype != S.dtype:
        w, v = w.astype(np.finfo(S.dtype).dtype), v.astype(S.dtype)
    # LAPACK returns the spectrum ascending
    return EigDecomposition(w[::-1], v[:, ::-1])


def pseudo_inverse(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a self-adjoint matrix via its spectrum.

    Eigenvalues with |lam| <= DEFAULT_RANK_TOL * max|lam| are treated as zero.
    """
    return hermitian_eig(M).pseudo_inverse()


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a 1-D float or complex vector, the same sums and
    square root bit for bit, without its per-call dispatch."""
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def cg_solve(
    apply_A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = 1e-12,
    max_iter: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, bool, int]:
    """Conjugate gradients for a self-adjoint PSD operator given as a callback.

    Returns ``(x, converged, iterations)`` where ``converged`` reports whether
    ``||A x - b|| <= tol * ||b||`` was reached within the budget.  A direction
    of strictly negative curvature raises IndefiniteOperator.
    """
    b = np.asarray(b, dtype=float if not np.iscomplexobj(b) else complex)
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=b.dtype)
    r = b - apply_A(x)
    target = tol * max(_norm(b), _TINY)
    if _norm(r) <= target:
        return x, True, 0
    p = r.copy()
    rs = np.vdot(r, r).real
    for it in range(1, max_iter + 1):
        Ap = apply_A(p)
        curv = np.vdot(p, Ap).real
        if curv < -1e-14 * np.vdot(p, p).real:
            raise IndefiniteOperator("negative curvature direction encountered")
        if curv <= 0.0:
            # numerically flat direction; cannot make further progress
            return x, _norm(b - apply_A(x)) <= target, it
        alpha = rs / curv
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = np.vdot(r, r).real
        if np.sqrt(rs_new) <= target:
            return x, True, it
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, _norm(b - apply_A(x)) <= target, max_iter


def power_method(
    M: np.ndarray,
    seed: int = 0,
    tol: float = 1e-12,
    max_iter: int = 5000,
) -> tuple[float, np.ndarray, bool]:
    """Principal eigenpair of a self-adjoint PSD matrix by power iteration.

    Returns ``(lam1, e1, converged)``.  ``converged`` is False when the
    eigenvalue gap is too small for the iteration to settle within budget
    (the last iterate is still returned).  Deterministic given ``seed``.
    """
    M = np.asarray(M)
    _hermitian_defect(M, max(tol, DEFAULT_TOL))
    n = M.shape[0]
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.normal(size=n)
    if np.iscomplexobj(M):
        v = v + 1j * rng.normal(size=n)
    v = v / np.linalg.norm(v)
    lam = 0.0
    scale = max(np.linalg.norm(M, ord=np.inf), np.finfo(float).tiny)
    for _ in range(max_iter):
        w = M @ v
        norm_w = np.linalg.norm(w)
        if norm_w <= tol * scale:
            # M annihilates the iterate; any unit vector is optimal for a PSD
            # matrix that is numerically zero on this subspace
            return 0.0, v, True
        v_new = w / norm_w
        lam = float(np.vdot(v_new, M @ v_new).real)
        if np.linalg.norm(M @ v_new - lam * v_new) <= tol * scale:
            return lam, v_new, True
        v = v_new
    return lam, v, False
