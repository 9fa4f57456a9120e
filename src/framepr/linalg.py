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


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M*)/2, absorbing roundoff asymmetry."""
    M = np.asarray(M)
    return 0.5 * (M + M.conj().T)


def rank_one_coordinates(u: np.ndarray) -> np.ndarray:
    """Coordinates of u u* in ``hermitian_basis`` for each row u of a (k, n)
    complex array, shape (k, n^2): |u_a|^2, then sqrt(2) Re and sqrt(2) Im
    of u_a conj(u_b) for a < b, so <L(u), L(v)> = <u u*, v v*>_F = |<u, v>|^2.
    """
    a, b = _upper_pairs(u.shape[1])
    cross = np.sqrt(2.0) * u[:, a] * u[:, b].conj()
    return np.concatenate([np.abs(u) ** 2, cross.real, cross.imag], axis=1)


@functools.cache
def _upper_pairs(n: int) -> tuple:
    """Read-only index arrays (a, b) of the pairs a < b, as np.triu_indices(n, k=1)."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


@functools.cache
def hermitian_basis(n: int) -> np.ndarray:
    """U, complex (n^2, n^2) and read-only: row r is vec(B_r) for the
    orthonormal basis of the n x n Hermitian matrices in the coordinate order
    of ``rank_one_coordinates``: E_aa, then (E_ab + E_ba) / sqrt 2, then
    i (E_ab - E_ba) / sqrt 2 for a < b.

    z = Re(conj(U) vec X) holds the coordinates of X's Hermitian part, with
    ||z|| = ||X||_F for Hermitian X, and vec X = U^T z is exactly Hermitian
    for every real z.
    """
    a, b = _upper_pairs(n)
    E = np.eye(n * n).reshape(n, n, n * n)  # E[a, b] = vec(E_ab)
    diag = E[np.arange(n), np.arange(n)]
    re, im = np.sqrt(0.5) * (E[a, b] + E[b, a]), np.sqrt(0.5) * 1j * (E[a, b] - E[b, a])
    U = np.concatenate([diag, re, im])
    U.setflags(write=False)
    return U


def _hermitian_defect(M: np.ndarray, tol: float) -> np.ndarray:
    """D = M - M*, after raising NotHermitian when M is not square or when
    ||D|| > tol * max(||M||, 1) (Frobenius; the squares are compared).  A
    NaN or infinite entry of M gives a NaN or infinite ||D||, which fails."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {M.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the check refuses
        D = M - M.conj().T
    defect = np.vdot(D, D).real
    # ||M|| is only needed when the defect exceeds the floor tol * 1
    if not (defect <= tol * tol or (
        math.isfinite(defect) and defect <= tol * tol * np.vdot(M, M).real
    )):
        raise NotHermitian("matrix is not self-adjoint within tolerance, or not finite")
    return D


@functools.cache
def _heevd_routine():
    """LAPACK's zheevd, imported from scipy.linalg on first use.

    PhaseLift's loop calls it directly: a 4 x 4 complex eigensolve takes
    about 4.4 us this way against 9.0 us through ``np.linalg.eigh``, whose
    per-call wrapper cost dominates at that size (2-vCPU Xeon, one BLAS
    thread).  Every other eigensolve goes through
    ``hermitian_eig``, which needs no scipy.
    """
    from scipy.linalg import lapack

    return lapack.zheevd


@functools.cache
def _cholesky_routine():
    """LAPACK's dposv (Cholesky factor and solve), imported from scipy.linalg
    on first use, so that only IRLS's u-step loads it."""
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
    spectrum.  The factorization is ``np.linalg.eigh`` on the lower triangle
    (LAPACK's ?heevd/?syevd), whose dtype rules hold: integer input is
    factored as float64, float32 and complex64 are factored in double and
    keep their dtype, and float16 raises TypeError.  A LAPACK failure raises
    NoConvergence.
    """
    M = np.asarray(M)
    D = _hermitian_defect(M, DEFAULT_TOL)
    try:
        w, v = np.linalg.eigh(M - 0.5 * D, UPLO="L")
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"np.linalg.eigh failed: {exc}") from exc
    # eigh returns the spectrum ascending
    return EigDecomposition(w[::-1], v[:, ::-1])


def pseudo_inverse(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a self-adjoint matrix via its spectrum.

    Eigenvalues with |lam| <= DEFAULT_RANK_TOL * max|lam| are treated as zero.
    """
    dec = hermitian_eig(M)
    lam = dec.eigenvalues
    cutoff = DEFAULT_RANK_TOL * np.max(np.abs(lam)) if lam.size else 0.0
    inv = np.where(np.abs(lam) > cutoff, 1.0 / np.where(lam == 0, 1.0, lam), 0.0)
    return hermitian_part((dec.eigenvectors * inv) @ dec.eigenvectors.conj().T)


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
    if type(b) is not np.ndarray or b.dtype not in (np.float64, np.complex128):
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
