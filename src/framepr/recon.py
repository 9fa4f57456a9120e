"""Reconstruction of x (up to global phase) from intensity measurements.

Five solvers: exact linear inversion on the lifted matrix space, a PSD
least-squares relaxation (PhaseLift-style, solved by projected gradient
warm-started from the lifted least-squares solution), Gerchberg-Saxton
alternating projections, Wirtinger flow (the intensity-misfit gradient taken
along conjugate directions with an exact line search), and iterated
regularized least squares on a bilinear criterion.  All are deterministic given their
options; estimates are defined up to a global phase, so errors are reported
with the phase-quotient metrics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientRedundancy,
    NoConvergence,
    NonFiniteMeasurement,
)
from .frames import Frame, _check_count, _check_real, analysis, intensity_map
from .lifting import complexify, lifted_map, lifted_map_adjoint, realify
from .linalg import (
    DEFAULT_RANK_TOL,
    _heevd_routine,
    cg_solve,
    hermitian_basis,
    hermitian_eig,
    spd_solve,
)
from .metrics import _distances

_TIE_TOL = 1e-12

# fixed solver parameters, one set per solver; no caller tunes them
PHASELIFT_TOL = 1e-10  # relative FISTA step test of the final stage
L1_DELTA = 3e-2  # l1 weight floor, in units of ||y||_2 / m
GS_TOL = 1e-12  # relative residual change that stops Gerchberg-Saxton
WF_TOL = 1e-9  # relative gradient norm that stops Wirtinger flow
IRLS_RHO = 0.5  # initial ridge and coupling weights, in units of a1
IRLS_GAMMA = 0.85  # per-step decay of both weights
IRLS_MU_MIN = 1e-6  # coupling weight floor
IRLS_EPS = 1e-10  # misfit stop, in units of ||y||^2
IRLS_STALL_STEPS = 20  # stagnation window of the best misfit, in steps
IRLS_STALL_REL = 1e-9  # relative best-misfit gain below which IRLS stalls
IRLS_CG_TOL = 1e-12  # residual tolerance of the CG check on each u-step
_IRLS_LOG_BLOCK = 64  # IRLS steps per vectorized pass over the criterion log
_STEP_CAP = 100_000  # largest max_iter: GS and Wirtinger steps, one trace entry each
_STAGE_CAP = 10_000  # largest max_outer (IRLS steps, PhaseLift stages) and inner_max

logger = logging.getLogger("framepr")


def _values(frame: Frame, y) -> np.ndarray:
    """The measurements as a float array of shape (m,); any other shape is a
    DimensionMismatch, and a NaN or infinite entry a NonFiniteMeasurement."""
    values = np.asarray(y, dtype=float)
    if values.shape != (frame.m,):
        raise DimensionMismatch(f"expected {frame.m} measurements, got shape {values.shape}")
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteMeasurement(f"measurement {k} is {values[k]}")
    return values


def _check_start(x0) -> None:
    """An explicit start is a finite array of numbers: a NaN would spend the
    whole budget, and a bool would start from 1."""
    if x0 is not None and not (np.asarray(x0).dtype.kind in "iufc" and np.isfinite(x0).all()):
        raise ValueError(f"x0 must be a finite array of numbers, got {x0!r}")


def _start(frame: Frame, x0) -> np.ndarray:
    """An explicit start as a complex copy; a shape other than (n,) is a DimensionMismatch."""
    x = np.array(x0, dtype=complex)
    if x.shape != (frame.n,):
        raise DimensionMismatch(f"expected a start of shape ({frame.n},), got {x.shape}")
    return x


@dataclass
class ReconResult:
    """Estimate plus convergence diagnostics.

    ``residual`` is ||A(X_hat) - y||_2 for lifted solvers and
    ||intensity(x_hat) - y||_2 for vector solvers.  ``d2_error``/``d1_error``
    are phase-quotient errors against the ground truth when it was supplied.
    ``stop_reason`` says why the solver stopped: "tol" (its tolerance test
    held), "max_iter" (its budget ran out), "stagnation" (it stopped
    improving) or "degenerate" (a zero start, a nonpositive top eigenvalue
    or a tied one, so it returned a fallback estimate).  ``converged`` is a
    read-only property: ``stop_reason == "tol"``.
    """

    x_hat: np.ndarray
    X_hat: Optional[np.ndarray] = None
    iterations: int = 0
    residual: float = np.nan
    trace: Optional[list] = None
    d2_error: Optional[float] = None
    d1_error: Optional[float] = None
    flags: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    stop_reason: Optional[str] = None

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"


def _attach_errors(result: ReconResult, x_true) -> ReconResult:
    if x_true is not None:
        result.d2_error, result.d1_error = _distances(result.x_hat, x_true)
    return result


def _vector_result(frame: Frame, y: np.ndarray, x: np.ndarray, x_true, **fields) -> ReconResult:
    """The result of a vector solver with estimate x: its intensity residual
    ||intensity(x) - y||_2, the other ``fields``, and the errors against x_true."""
    result = ReconResult(x_hat=x, residual=float(np.linalg.norm(intensity_map(frame, x) - y)), **fields)
    return _attach_errors(result, x_true)


def _rank_one(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, e1, x) of a self-adjoint X: its spectrum in descending order,
    a top eigenvector e1 and the rank-one read-out x = sqrt(max(lam_1, 0)) e1."""
    dec = hermitian_eig(X)
    e1 = dec.eigenvectors[:, 0]
    return dec.eigenvalues, e1, np.sqrt(max(float(dec.eigenvalues[0]), 0.0)) * e1


# ---------------------------------------------------------------------------
# lifted linear inversion
# ---------------------------------------------------------------------------

def _lifted_least_squares(frame: Frame, y: np.ndarray) -> tuple[int, np.ndarray]:
    """(rank, z): the rank of ``Frame.hermitian_lift`` M, counting the
    singular values whose squares exceed DEFAULT_RANK_TOL times the largest
    (the eigenvalue rule of the Gram M M^T), and the coordinates z in
    ``hermitian_basis(n)`` of the minimum-norm least-squares solution of
    M z = y on those singular values, solved on the cached SVD.  The lifted
    map is injective exactly when the rank is n^2."""
    u, s, vh = frame.hermitian_lift_svd
    rank = int(np.sum(s * s > DEFAULT_RANK_TOL * s[0] * s[0]))
    return rank, vh[:rank].T @ ((u[:, :rank].T @ y) / s[:rank])


def lifted_linear(frame: Frame, y, x_true=None) -> ReconResult:
    """Invert the measurements linearly on the space of self-adjoint matrices.

    Requires the rank-one forms f_k f_k* to span that space: n^2 squared
    singular values of ``Frame.hermitian_lift`` above DEFAULT_RANK_TOL times
    the largest, the rank rule of the Gram M M^T.  The minimum-norm
    least-squares matrix estimate is solved on that lift's cached SVD, and
    two vector estimates are read off its top eigenpair:
    the least-squares scale sqrt(lambda1) and the gap scale
    sqrt(lambda1 - lambda2).  The gap-scaled estimate varies Lipschitz-
    continuously with y and is returned as ``x_hat``.  When the top
    eigenvalue is tied (a gap of at most 1e-12 |lambda1|, a relative test,
    so scaling y by a power of two scales every output exactly), ``x_hat``
    falls back to 0, flagged "tie_top_eigenvalue", with ``stop_reason``
    "degenerate" and ``converged`` False; otherwise the solve reports "tol".
    """
    y = _values(frame, y)
    rank, z = _lifted_least_squares(frame, y)
    if rank < frame.n**2:
        raise InsufficientRedundancy(
            f"rank-one forms span {rank} < n^2 = {frame.n ** 2} dimensions"
        )
    X = (hermitian_basis(frame.n).T @ z).reshape(frame.n, frame.n)
    lam, e1, x_ls = _rank_one(X)
    lam1 = float(lam[0])
    gap = lam1 - (float(lam[1]) if lam.shape[0] > 1 else 0.0)
    tie = gap <= _TIE_TOL * abs(lam1)
    result = ReconResult(
        x_hat=np.zeros(frame.n, dtype=complex) if tie else np.sqrt(gap) * e1,
        X_hat=X,
        iterations=1,
        residual=float(np.linalg.norm(lifted_map(frame, X) - y)),
        stop_reason="degenerate" if tie else "tol",
        flags=["tie_top_eigenvalue"] if tie else [],
        diagnostics={"x_ls": x_ls},
    )
    return _attach_errors(result, x_true)


# ---------------------------------------------------------------------------
# PSD least squares (PhaseLift relaxation)
# ---------------------------------------------------------------------------

@dataclass
class PhaseLiftOptions:
    fit: str = "l2"  # "l2" | "l1_reweighted"
    max_outer: int = 26  # l1 reweighting stages; l2 runs one stage of max_outer * inner_max steps
    inner_max: int = 400

    def __post_init__(self):
        _check_count("max_outer", self.max_outer, 1, _STAGE_CAP)
        _check_count("inner_max", self.inner_max, 1, _STAGE_CAP)
        if self.fit not in ("l2", "l1_reweighted"):
            raise ValueError(f"unknown fit mode {self.fit!r}")


def _step_operator(frame: Frame, w: np.ndarray, y: np.ndarray):
    """(L, H, c) of the weighted gradient step: with M = ``hermitian_lift``
    and K = M^T W M, L = 2 lambda_max(K) is the step's Lipschitz constant
    and Y - (2/L) A*(w (A(Y) - y)) = H vec(Y) + c.

    H = U^T (I - (2/L) K) conj(U) and c = U^T ((2/L) M^T W y) for the basis
    U = ``hermitian_basis(n)``: c is Hermitian and H maps Hermitian
    matrices to Hermitian matrices by construction, so the FISTA loop
    factors every step input without a check.
    """
    M = frame.hermitian_lift
    MW = M.T * w
    K = MW @ M
    L = max(2.0 * float(np.linalg.eigvalsh(K)[-1]), np.finfo(float).tiny)
    U = hermitian_basis(frame.n)
    H = U.T @ (np.eye(K.shape[0]) - (2.0 / L) * K) @ U.conj()
    c = U.T @ ((2.0 / L) * (MW @ y))
    return L, H, c


def _psd_projection(z: np.ndarray, heevd) -> np.ndarray:
    """vec of the projection onto the PSD cone of the Hermitian matrix with
    vec z: its eigenvalues clipped at 0.

    ``heevd`` is LAPACK's zheevd, called on the lower triangle of z viewed
    as n x n: the routine and triangle of ``hermitian_eig``, without
    np.linalg.eigh's per-call cost or that function's Hermitian check
    (``_step_operator`` builds z Hermitian), symmetrization and spectrum
    reversal; raises NoConvergence when LAPACK reports failure.
    """
    n = math.isqrt(z.shape[0])
    lam, V, info = heevd(z.reshape(n, n), lower=1)
    if info != 0:
        raise NoConvergence(f"LAPACK {heevd.__name__} failed with info={info}")
    np.maximum(lam, 0.0, out=lam)
    # np.dot rather than @ here and for H vec(Y): the same BLAS call without
    # matmul's dispatch, which at n = 4 cost 6% of a step (2-vCPU Xeon)
    return np.dot(V * lam, V.conj().T).ravel()


def phaselift(frame: Frame, y, opts: PhaseLiftOptions | None = None, x_true=None) -> ReconResult:
    """PSD least-squares recovery of the lifted matrix by projected gradient.

    Solves min_{X >= 0} sum_k w_k (A(X) - y)_k^2 with FISTA steps (gradient
    of the fit, then projection onto the PSD cone by clipping eigenvalues at
    0).  There is no trace term: once m is a small multiple of n the PSD
    constraint alone singles out xx* (Candes and Li 2014; Demanet and Hand
    2014).  Every solve starts from the PSD part of the minimum-norm
    least-squares solution on the cached SVD (``_lifted_least_squares``), at
    every m; when the lifted map is injective and y is noiseless, that start
    is already xx* and the solve stops on its first step.
    The gradient step Y - grad/L is one affine map on vec(Y), precomputed
    once per weight vector (``_step_operator``).  The loop keeps Y and the
    iterates as flat vec vectors, so a step is one n^2 x n^2 product and one
    direct LAPACK eigensolve (``_psd_projection``); H and c are built so that
    every such step input is Hermitian.
    The momentum uses the gradient restart of O'Donoghue and Candes: when
    <Y - X_new, X_new - X_prev> > 0 the momentum points uphill, so t falls
    back to 1 and the next step starts from X_new.

    Fit "l2" (all weights 1) runs one stage that may spend the whole budget,
    ``max_outer * inner_max`` steps.  Fit "l1_reweighted" runs ``max_outer``
    stages of up to ``inner_max`` steps and re-derives the weights from the
    residuals between stages, w_k = 1 / max(|r_k|, delta), approximating an
    l1 data fit; the floor is relative, delta = L1_DELTA * ||y||_2 / m
    (L1_DELTA itself when y = 0), so no weight outgrows the data scale and
    sets the step size alone.  The vector estimate is the principal
    eigenvector scaled by the square root of the principal eigenvalue.

    A stage stops when its step satisfies ||X_new - X_prev||_F <= s
    ||X_new||_F.  The last stage uses s = PHASELIFT_TOL; an earlier l1 stage
    only warm-starts the next, so it uses the looser s = sqrt(PHASELIFT_TOL).
    ``converged`` means the last stage met PHASELIFT_TOL.  No test or floor
    has units, so scaling y by a power of two scales X_hat by the same
    factor and leaves the steps and the stop reason unchanged.
    ``diagnostics["stage_iterations"]`` lists the FISTA steps of each stage,
    and each solve logs them at DEBUG level on the "framepr" logger.
    Measurements whose 2-norm overflows float64 raise NonFiniteMeasurement.
    """
    opts = opts or PhaseLiftOptions()
    y = _values(frame, y)
    n, m = frame.n, frame.m
    with np.errstate(over="ignore"):  # an overflowing norm is refused just below
        y_norm = float(np.linalg.norm(y))
    if not math.isfinite(y_norm):
        raise NonFiniteMeasurement(
            f"the 2-norm of the measurements overflows (largest |y_k| is {np.abs(y).max():.3g})")
    delta = L1_DELTA * (y_norm / m if y_norm > 0.0 else 1.0)
    if opts.fit == "l2":
        stages, budget = 1, opts.max_outer * opts.inner_max
    else:
        stages, budget = opts.max_outer, opts.inner_max
    trace_log: list[float] = []
    stage_iterations: list[int] = []
    heevd = _heevd_routine()
    # vec(X), as are Y and each step's X_new
    X = _psd_projection(hermitian_basis(n).T @ _lifted_least_squares(frame, y)[1], heevd)
    for stage in range(stages):
        w = 1.0 / np.maximum(np.abs(r), delta) if stage > 0 else np.ones(m)
        _, H, c = _step_operator(frame, w, y)
        stage_tol_sq = (PHASELIFT_TOL if stage == stages - 1 else math.sqrt(PHASELIFT_TOL)) ** 2
        Y = X
        t_m = 1.0
        for steps in range(1, budget + 1):
            X_new = _psd_projection(np.dot(H, Y) + c, heevd)
            D = X_new - X
            if np.vdot(Y - X_new, D).real > 0.0:
                t_new, Y = 1.0, X_new
            else:
                t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_m * t_m))
                Y = X_new + ((t_m - 1.0) / t_new) * D
            step_sq = np.vdot(D, D).real
            X, t_m = X_new, t_new
            met_tol = step_sq <= stage_tol_sq * np.vdot(X, X).real
            if met_tol:
                break
        stage_iterations.append(steps)
        r = lifted_map(frame, X.reshape(n, n)) - y
        trace_log.append(float(np.linalg.norm(r)))
    converged = bool(met_tol)
    iterations = sum(stage_iterations)
    logger.debug(
        "phaselift n=%d m=%d fit=%s: %d steps over %d stages %s, converged %s",
        n, m, opts.fit, iterations, len(stage_iterations), stage_iterations, converged,
    )
    X = X.reshape(n, n)
    _, _, x_hat = _rank_one(X)
    rank_one_gap = float(np.linalg.norm(X - np.outer(x_hat, x_hat.conj())))
    result = ReconResult(
        x_hat=x_hat,
        X_hat=X,
        iterations=iterations,
        residual=trace_log[-1],
        stop_reason="tol" if converged else "max_iter",
        trace=trace_log,
        diagnostics={"rank_one_gap": rank_one_gap, "stage_iterations": stage_iterations},
    )
    return _attach_errors(result, x_true)


# ---------------------------------------------------------------------------
# Gerchberg-Saxton alternating projections
# ---------------------------------------------------------------------------

@dataclass
class GSOptions:
    max_iter: int = 500
    x0: Optional[np.ndarray] = None  # overrides the spectral start

    def __post_init__(self):
        _check_count("max_iter", self.max_iter, 1, _STEP_CAP)
        _check_start(self.x0)


def gerchberg_saxton(frame: Frame, y, opts: GSOptions | None = None, x_true=None) -> ReconResult:
    """Alternate between the measured magnitudes and the coefficient range.

    Starts from ``opts.x0``, or else from the energy-matched spectral start
    of the unclamped measurements.  Each sweep: replace the iterate's
    coefficient magnitudes by sqrt(y) while keeping phases (zero coefficients
    get phase 1), synthesize with the canonical dual, and analyze the result
    once, for both the residual and the next sweep.  Convergence is not
    guaranteed; the best iterate by magnitude residual is returned.  The loop
    stops with ``stop_reason`` "tol" when that residual falls to
    GS_TOL ||sqrt(y)||, the only stop that sets ``converged``; "stagnation"
    when it changes by less than GS_TOL relative between sweeps; and
    "max_iter" otherwise.  Neither test has units, so scaling y by 4^k scales
    x_hat by 2^k and leaves the sweeps and the stop reason unchanged.
    Negative measurements are clamped to zero.
    """
    opts = opts or GSOptions()
    x = spectral_init(frame, y, mode="wf").x0 if opts.x0 is None else _start(frame, opts.x0)
    y = np.maximum(_values(frame, y), 0.0)
    r = np.sqrt(y)
    duals_t = frame.dual.vectors.T
    best_res = np.inf
    best_x = x
    trace_log: list[float] = []
    prev_res = None
    stop_reason = "max_iter"
    it = 0
    floor = GS_TOL * math.sqrt(r.dot(r))
    c = analysis(frame, x)
    absc = np.abs(c)
    for it in range(1, opts.max_iter + 1):
        # r c / |c|, and r itself (phase 1) where c = 0
        d = r.astype(complex)
        np.divide(r * c, absc, out=d, where=absc > 0.0)
        x = duals_t @ d
        c = analysis(frame, x)
        absc = np.abs(c)  # for the residual and the next sweep
        e = absc - r
        res = math.sqrt(e.dot(e))  # np.linalg.norm's own sum
        trace_log.append(res)
        if res < best_res:
            best_res, best_x = res, x
        if res <= floor:
            stop_reason = "tol"
            break
        if prev_res is not None and abs(prev_res - res) <= GS_TOL * max(prev_res, floor):
            stop_reason = "stagnation"
            break
        prev_res = res
    return _vector_result(frame, y, best_x, x_true, iterations=it, stop_reason=stop_reason,
                          trace=trace_log, diagnostics={"magnitude_residual": best_res})


# ---------------------------------------------------------------------------
# spectral initialization shared by the iterative solvers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralInit:
    a1: float
    e1: np.ndarray
    x0: np.ndarray


def spectral_init(frame: Frame, y, mode: str = "wf") -> SpectralInit:
    """Scaled principal eigenvector of the measurement-weighted frame operator.

    a1 and e1 are the top algebraic eigenpair of sum_k y_k f_k f_k*, which
    may be indefinite for noisy y.  x0 is e1 scaled (plus a 1e-12 component
    along any f_k orthogonal to e1): mode "wf" scales it so its energy
    matches the measurements; mode "irls" uses the IRLS_RHO-regularized scale
    and returns the zero sentinel when a1 <= 0.
    """
    y = _values(frame, y)
    V = frame.vectors
    dec = hermitian_eig(lifted_map_adjoint(frame, y))
    a1 = float(dec.eigenvalues[0])
    e1 = dec.eigenvectors[:, 0]
    c = frame.conj_vectors @ e1
    # an exact eigenvector can be orthogonal to some f_k (a repeated
    # orthonormal basis makes it so), and neither the WF gradient nor the IRLS
    # update then moves the iterate off the set where those <x, f_k> stay 0;
    # the start gets a tiny component along those f_k
    push = V[np.abs(c) <= _TIE_TOL * np.linalg.norm(V, axis=1)].sum(axis=0)
    start = e1 + _TIE_TOL / np.linalg.norm(push) * push if np.linalg.norm(push) > 0.0 else e1
    if mode == "wf":
        x0 = _energy_norm(frame, y) * start
    elif mode == "irls":
        if a1 <= 0.0:
            return SpectralInit(a1=a1, e1=e1, x0=np.zeros(frame.n, dtype=complex))
        fourth = float(np.sum(np.abs(c) ** 4))
        x0 = np.sqrt((1.0 - IRLS_RHO) * a1 / max(fourth, np.finfo(float).tiny)) * start
    else:
        raise ValueError(f"unknown spectral_init mode {mode!r}")
    return SpectralInit(a1=a1, e1=e1, x0=x0)


def _energy_norm(frame: Frame, y: np.ndarray) -> float:
    """Norm of the spectral start "wf": sqrt(n sum_k y_k / sum_k ||f_k||^2)."""
    total = float(np.sum(np.linalg.norm(frame.vectors, axis=1) ** 2))
    return math.sqrt(max(frame.n * float(np.sum(y)) / total, 0.0))


# ---------------------------------------------------------------------------
# Wirtinger flow
# ---------------------------------------------------------------------------

@dataclass
class WirtingerOptions(GSOptions):
    max_iter: int = 2500


def _quartic_step(r: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Global minimizer of phi(t) = sum_k (r_k + a_k t + b_k t^2)^2.

    phi'(t) / 2 = 2 S_bb t^3 + 3 S_ab t^2 + (S_aa + 2 S_rb) t + S_ra, with
    S_uv = sum_k u_k v_k, is solved in closed form: Cardano when it has one
    real root, the trigonometric form when it has three.  Of those, the one
    with the least phi, evaluated from the same moments, is returned.  When
    b = 0 then a = 0 too on the Wirtinger line (|d|^2 = 0 means d = 0), phi
    is constant and t = 0.
    """
    s_bb = float(b.dot(b))
    if s_bb == 0.0:
        return 0.0
    s_ab, s_aa, s_rb, s_ra = float(a.dot(b)), float(a.dot(a)), float(r.dot(b)), float(r.dot(a))
    # monic t^3 + e2 t^2 + e1 t + e0, shifted by t = u - e2 / 3 to u^3 + P u + Q
    e2 = 1.5 * s_ab / s_bb
    e1 = 0.5 * (s_aa + 2.0 * s_rb) / s_bb
    e0 = 0.5 * s_ra / s_bb
    shift = e2 / 3.0
    P = e1 - e2 * shift
    Q = shift * (2.0 * shift * shift - e1) + e0
    disc = 0.25 * Q * Q + P * P * P / 27.0
    if disc >= 0.0:
        A = -math.copysign(math.cbrt(0.5 * abs(Q) + math.sqrt(disc)), Q)
        return (A - P / (3.0 * A) if A != 0.0 else 0.0) - shift
    rad = math.sqrt(-P / 3.0)
    theta = math.acos(max(-1.0, min(1.0, -0.5 * Q / rad**3)))

    def phi(t: float) -> float:  # phi(t) - phi(0)
        return t * (2.0 * s_ra + t * (s_aa + 2.0 * s_rb + t * (2.0 * s_ab + t * s_bb)))

    return min((2.0 * rad * math.cos((theta - 2.0 * math.pi * k) / 3.0) - shift
                for k in range(3)), key=phi)


def wirtinger_flow(frame: Frame, y, opts: WirtingerOptions | None = None, x_true=None) -> ReconResult:
    """Conjugate-direction descent on the squared intensity misfit.

    Starts from the spectral initialization (energy-matched scaling).  Each
    step takes the Wirtinger gradient g = sum_k (|<x,f_k>|^2 - y_k) <x,f_k>
    f_k / m and the Polak-Ribiere+ direction p = -g + beta p_prev, beta =
    max(0, Re<g, g - g_prev> / ||g_prev||^2), falling back to p = -g when
    Re<p, g> >= 0.  The step length t is the exact minimizer of the quartic
    misfit sum_k (r_k + a_k t + b_k t^2)^2 along p, with r = |c|^2 - y, c the
    frame coefficients of x, d those of p, a = 2 Re(c conj d) and b = |d|^2
    (``_quartic_step``); then x <- x + t p and c <- c + t d, so a step costs
    one gradient and one analysis, and the misfit never increases (up to
    rounding).  Stops on "tol" when ||g|| <= WF_TOL ||x_s||^3, x_s the
    spectral start whatever the start, and x fits y better than x = 0, a
    critical point where a start near 0 passes that test; else on
    "max_iter".  A zero start returns at once ("degenerate", not converged).
    """
    opts = opts or WirtingerOptions()
    y = np.maximum(_values(frame, y), 0.0)
    m = frame.m
    x = spectral_init(frame, y, mode="wf").x0 if opts.x0 is None else _start(frame, opts.x0)
    if float(np.vdot(x, x).real) == 0.0:
        return _vector_result(frame, y, x, x_true, stop_reason="degenerate", trace=[])
    trace_log: list[float] = []
    stop_reason = "max_iter"
    it = 0
    gscale = max(_energy_norm(frame, y) ** 3, np.finfo(float).tiny)
    y_norm = float(np.linalg.norm(y))
    # analysis and synthesis as bare products
    conj_v, v_t = frame.conj_vectors, frame.vectors.T
    c = conj_v @ x
    # an infinite previous norm makes beta 0, so the first direction is -g
    p = g_prev = np.zeros_like(x)
    gg_prev = math.inf
    for it in range(1, opts.max_iter + 1):
        misfit = (c * c.conj()).real - y
        g = v_t @ (misfit * c) / m
        gg = float(np.vdot(g, g).real)
        trace_log.append(math.sqrt(misfit.dot(misfit)))
        if math.sqrt(gg) <= WF_TOL * gscale and trace_log[-1] < y_norm:
            stop_reason = "tol"
            break
        beta = max(0.0, (gg - float(np.vdot(g_prev, g).real)) / gg_prev)
        p = beta * p - g
        if np.vdot(p, g).real >= 0.0:
            p = -g
        d = conj_v @ p
        t = _quartic_step(misfit, 2.0 * (c * d.conj()).real, (d * d.conj()).real)
        x = x + t * p
        c = c + t * d
        g_prev, gg_prev = g, gg
    return _vector_result(frame, y, x, x_true, iterations=it, stop_reason=stop_reason,
                          trace=trace_log)


# ---------------------------------------------------------------------------
# iterated regularized least squares on the bilinear criterion
# ---------------------------------------------------------------------------

@dataclass
class IRLSOptions:
    lambda_min: float = 0.0  # floor for the decaying ridge weight
    max_outer: int = 400
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_real("lambda_min", self.lambda_min, zero=True)
        _check_count("max_outer", self.max_outer, 1, _STAGE_CAP)
        _check_start(self.x0)


def irls_objective(frame: Frame, u, v, lam: float, mu: float, y) -> float:
    """Bilinear criterion: squared misfit of the symmetrized coefficient
    product against y, plus Tikhonov terms on u, v and their difference."""
    y = _values(frame, y)
    cu = analysis(frame, np.asarray(u, dtype=complex))
    cv = analysis(frame, np.asarray(v, dtype=complex))
    model = (cu * cv.conj()).real
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return float(
        np.sum((model - y) ** 2)
        + lam * np.vdot(u, u).real
        + mu * np.vdot(u - v, u - v).real
        + lam * np.vdot(v, v).real
    )


def _row_dots(R: np.ndarray) -> np.ndarray:
    """r.dot(r) for every row r of the 2-d array R, bit for bit: matmul of a
    stack of 1 x k rows with k x 1 columns takes the same BLAS dot."""
    return np.matmul(R[:, None, :], R[:, :, None])[:, 0, 0]


def _irls_log(y: np.ndarray, start: tuple, steps: list, misfits: list) -> list[dict]:
    """The criterion log entries of consecutive IRLS steps.

    ``start`` is (xi, pq, misfit) of the iterate the first step starts at,
    ``steps`` holds (xi_u, pq_u, lam, mu, cg_iterations) of each step and
    ``misfits`` each step's misfit.  The three criterion values are
    ``irls_objective`` at (x, x), (u, x) and (u, u), written through the
    carried coefficients; each elementwise operation and dot acts on the
    stacked rows exactly as it would on one step's vectors, so the entries
    carry the bits a per-step computation gives.
    """
    m = y.shape[0]
    xi0, pq0, rr0 = start
    xis, pqs, lams, mus, cgs = zip(*steps)
    X = np.array((xi0, *xis))
    P = np.array((pq0, *pqs))
    cross = P[1:] * P[:-1]
    r_cross = cross[:, :m] + cross[:, m:]
    r_cross -= y
    xx = _row_dots(X)
    lam, mu = np.array(lams, dtype=float), np.array(mus, dtype=float)
    rr = np.array((rr0, *misfits[:-1]))
    sub_before = rr + 2.0 * lam * xx[:-1]
    sub_after = _row_dots(r_cross) + lam * xx[1:] + mu * _row_dots(X[1:] - X[:-1]) + lam * xx[:-1]
    return [
        {"lam": lam_k, "mu": mu_k, "J_sub_before": before, "J_sub_after": after,
         "J_misfit": misfit, "cg_iterations": n_cg}
        for lam_k, mu_k, before, after, misfit, n_cg
        in zip(lams, mus, sub_before.tolist(), sub_after.tolist(), misfits, cgs)
    ]


def irls(frame: Frame, y, opts: IRLSOptions | None = None, x_true=None) -> ReconResult:
    """Iterated regularized least squares with geometrically decaying weights.

    Each outer step freezes v at the current iterate and minimizes the
    criterion over u.  That is a quadratic in the realified coordinates whose
    normal matrix Z Z^T + (lam + mu) I (Z the gradient columns at v) is SPD,
    since lam never falls below ``lambda_min`` >= 0 and mu never below
    IRLS_MU_MIN > 0, from the first step on.  It is solved by Cholesky
    (``spd_solve``), and ``cg_solve`` started at that solution checks the
    residual against IRLS_CG_TOL, refining it when the direct solve falls
    short.  The exact minimizer never exceeds the criterion's value at
    u = v, so each step's subproblem value descends by construction.  The
    loop works in realified coordinates throughout: each step computes the
    coefficients (p, q) = (phi xi_u, J phi xi_u) of the new iterate with one
    product with ``Frame.realified_rows``, takes the misfit from them, and
    carries them into the next step, which builds Z from them (the columns
    ``gradient_columns`` gives, p_k phi_k + q_k J phi_k, written into
    buffers the solve reuses).  The three criterion values of
    ``diagnostics["outer_log"]`` never steer the loop, so they are computed
    after the step loop, in one vectorized pass per block of up to
    _IRLS_LOG_BLOCK steps, from each step's kept iterate, coefficients and
    weights; the kept arrays take O(_IRLS_LOG_BLOCK m) memory.  Both weights
    start at IRLS_RHO a1, floored
    at ``lambda_min`` and IRLS_MU_MIN, and decay by IRLS_GAMMA per step down
    to those floors.
    The loop stops on a misfit below IRLS_EPS ||y||^2 (``stop_reason``
    "tol", the only stop that sets ``converged``), when the best misfit has
    gained less than IRLS_STALL_REL of its value over the last
    IRLS_STALL_STEPS steps ("stagnation", the usual stop under noise, which
    no misfit test can reach), or after ``max_outer`` steps ("max_iter").
    The reported estimate is the best iterate by misfit.  Without an
    explicit start, a nonpositive a1 returns the zero vector at once
    ("degenerate").
    """
    opts = opts or IRLSOptions()
    y = _values(frame, y)
    eps = IRLS_EPS * float(y @ y)
    init = spectral_init(frame, y, mode="irls")
    if init.a1 <= 0.0 and opts.x0 is None:
        return _vector_result(frame, y, np.zeros(frame.n, dtype=complex), x_true,
                              stop_reason="degenerate", flags=["nonpositive_top_eigenvalue"])
    lam = max(IRLS_RHO * init.a1, opts.lambda_min)
    mu = max(IRLS_RHO * init.a1, IRLS_MU_MIN)
    m, d = frame.m, 2 * frame.n
    rows = frame.realified_rows
    # Z = gradient_columns(frame, xi) = phi^T p + (J phi)^T q and the
    # normal matrix are rebuilt in these buffers on every step, Z as the sum
    # of the two column blocks of W = rows^T diag(pq); Z is stored
    # column-major, as phi^T is, which keeps the BLAS products' bits
    rows_t = rows.T
    W, Z = np.empty((2 * m, d)).T, np.empty((m, d)).T
    A, rhs = np.empty((d, d)), np.empty(d)
    A_diag = A.reshape(-1)[:: d + 1]
    best_val = np.inf
    best_log: list[float] = []
    trace_log: list[float] = []
    outer_log: list[dict] = []
    cg_ok = True
    stop_reason = "max_iter"
    it = 0
    apply_A = A.dot  # A is rebuilt in place, so one bound product serves every step
    # the iterate xi carries its frame coefficients pq = [Re c; Im c] from
    # the u-step that produced it
    xi = best_xi = realify(init.x0 if opts.x0 is None else _start(frame, opts.x0))
    pq = np.dot(rows, xi)
    sq = pq * pq
    r = sq[:m] + sq[m:] - y
    # each block of log entries starts at an iterate: (xi, pq, misfit)
    block_start, block = (xi, pq, r.dot(r)), []
    for it in range(1, opts.max_outer + 1):
        np.multiply(rows_t, pq, out=W)
        np.add(W[:, :m], W[:, m:], out=Z)
        np.dot(Z, Z.T, out=A)
        A_diag += lam + mu
        np.dot(Z, y, out=rhs)
        rhs += mu * xi
        xi_u, ok, n_cg = cg_solve(
            apply_A, rhs, tol=IRLS_CG_TOL, max_iter=20 * d, x0=spd_solve(A, rhs)
        )
        cg_ok = cg_ok and ok
        pq_u = np.dot(rows, xi_u)
        sq = pq_u * pq_u
        r_u = sq[:m] + sq[m:]
        r_u -= y
        misfit = float(r_u.dot(r_u))
        trace_log.append(misfit)
        block.append((xi_u, pq_u, lam, mu, n_cg))
        xi_prev = xi
        xi, pq = xi_u, pq_u
        if len(block) == _IRLS_LOG_BLOCK:
            outer_log += _irls_log(y, block_start, block, trace_log[-len(block):])
            block_start, block = (xi, pq, misfit), []
        if misfit < best_val:
            best_val = misfit
            best_xi = xi
        best_log.append(best_val)
        lam = max(IRLS_GAMMA * lam, opts.lambda_min)
        mu = max(IRLS_GAMMA * mu, IRLS_MU_MIN)
        if misfit < eps:
            stop_reason = "tol"
            break
        if it > IRLS_STALL_STEPS:
            before = best_log[-1 - IRLS_STALL_STEPS]
            if before - best_val <= IRLS_STALL_REL * before:
                stop_reason = "stagnation"
                break
    if block:
        outer_log += _irls_log(y, block_start, block, trace_log[-len(block):])
    result = ReconResult(
        x_hat=complexify(best_xi),
        iterations=it,
        residual=float(np.sqrt(best_val)),
        stop_reason=stop_reason,
        trace=trace_log,
        flags=[] if cg_ok else ["cg_tolerance_missed"],
        diagnostics={
            "outer_log": outer_log,
            "final_pair": (complexify(xi), complexify(xi_prev)),
            "best_misfit": best_val,
        },
    )
    return _attach_errors(result, x_true)


# solver name -> options class, None when the solver takes no options.  The
# solver is looked up by name on this module at call time, so a wrapper bound
# to the attribute (a tracer, a profiler) sees every call.
SOLVERS = {
    "lifted_linear": None,
    "phaselift": PhaseLiftOptions,
    "gerchberg_saxton": GSOptions,
    "wirtinger_flow": WirtingerOptions,
    "irls": IRLSOptions,
}
