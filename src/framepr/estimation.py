"""Noise models, Fisher information matrices, and Cramer-Rao lower bounds.

Two measurement processes are covered: additive Gaussian noise on the
intensities ("awgn"), and complex Gaussian noise added to the frame
coefficient before the magnitude is taken ("coefficient").  The coefficient
noise convention is Var(mu_k) = rho^2 total, i.e. rho^2/2 per real component,
so that E|mu_k|^2 = rho^2 and the SNR argument of the Bessel weights is
|<x, f_k>|^2 / rho^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.integrate import quad

from .errors import OrthogonalAnchor, QuadratureError, ZeroVector
from .frames import Frame, MeasurementVector, intensity_map, rng_from_seed
from .lifting import _gradient_terms, apply_complex_structure, gradient_gram, realify
from .linalg import hermitian_part, pseudo_inverse

_SMALL_A = 1e-4  # below this, the Bessel weight uses its continuous extension


@dataclass(frozen=True)
class NoiseModel:
    """Seeded measurement noise description.

    kind "awgn" requires ``sigma`` (std dev of the additive intensity noise);
    kind "coefficient" requires ``rho`` (total std dev of the complex noise
    added to each coefficient before squaring).
    """

    kind: str
    sigma: float | None = None
    rho: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind == "awgn":
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("awgn noise requires sigma > 0")
        elif self.kind == "coefficient":
            if self.rho is None or self.rho <= 0:
                raise ValueError("coefficient noise requires rho > 0")
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")


@dataclass(frozen=True)
class FisherMatrix:
    """Fisher information in realified coordinates (2n x 2n, PSD).

    The realified direction J j(x_ref) always lies in the kernel: the global
    phase of x is not identifiable from intensity measurements.
    """

    matrix: np.ndarray
    kind: str
    x_ref: np.ndarray
    field: str


def simulate_measurements(frame: Frame, x, model: NoiseModel) -> MeasurementVector:
    """Draw one noisy intensity measurement vector; deterministic given seed."""
    rng = rng_from_seed(model.seed)
    x = np.asarray(x, dtype=complex)
    if model.kind == "awgn":
        y = intensity_map(frame, x).values + rng.normal(0.0, model.sigma, frame.m)
    else:
        c = frame.vectors.conj() @ x
        half = model.rho * np.sqrt(0.5)
        mu = rng.normal(0.0, half, frame.m) + 1j * rng.normal(0.0, half, frame.m)
        y = np.abs(c + mu) ** 2
    return MeasurementVector(y, kind="intensity")


# ---------------------------------------------------------------------------
# the scalar SNR weights
# ---------------------------------------------------------------------------

def _weight_integrand_window(t, a):
    # I1(t)^2/I0(t) * t^3 * exp(-t^2/(4a)) * e^{-a} / (8 a^3), with the
    # exponentials combined into the stable window exp(-(t-2a)^2/(4a))
    ratio = special.i1e(t) ** 2 / special.i0e(t)
    return ratio * t**3 * np.exp(-((t - 2.0 * a) ** 2) / (4.0 * a))


def bessel_ratio_weight(a: float) -> float:
    """Scalar SNR weight: the Bessel-ratio integral with Gaussian window.

    Continuous at 0 with value 2; decreases towards 1 for large a.  Absolute
    accuracy around 1e-10 (series extension below a = 1e-4).
    """
    if a < 0:
        raise ValueError("argument must be nonnegative")
    if a <= _SMALL_A:
        # second-order small-argument expansion of the integral
        return float(np.exp(-a) * (2.0 + 4.0 * a * a))
    width = 13.0 * np.sqrt(a)
    lo, hi = max(0.0, 2.0 * a - width), 2.0 * a + width
    pts = [2.0 * a] if lo < 2.0 * a < hi else None
    val, err = quad(_weight_integrand_window, lo, hi, args=(a,),
                    epsabs=1e-12, epsrel=1e-12, limit=200, points=pts)
    if err > 1e-8 * max(1.0, abs(val)):
        raise QuadratureError(f"window quadrature error {err:.2e} at a={a}")
    return float(val / (8.0 * a**3))


def bessel_ratio_excess(a: float) -> float:
    """a * (weight(a) - 1); vanishes linearly at 0 with unit slope."""
    if a < 0:
        raise ValueError("argument must be nonnegative")
    return a * (bessel_ratio_weight(a) - 1.0)


# ---------------------------------------------------------------------------
# Fisher matrices
# ---------------------------------------------------------------------------

def fisher_awgn(frame: Frame, x, sigma: float) -> FisherMatrix:
    """(4 / sigma^2) times the gradient Gram of the intensity map at x."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=complex)
    mat = (4.0 / sigma**2) * gradient_gram(frame, realify(x))
    return FisherMatrix(matrix=mat, kind="awgn", x_ref=x, field=frame.field)


def fisher_coefficient_noise(frame: Frame, x, rho: float, form: str = "excess") -> FisherMatrix:
    """Fisher matrix for noise added to the coefficients before the magnitude.

    Both printed assemblies are available: form "excess" weights each gradient
    column by the excess function over the intensity, form "weight" uses the
    raw weight minus one.  They agree up to roundoff; terms whose intensity is
    numerically zero use the continuous-extension weight (and vanish with the
    gradient column).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if form not in ("excess", "weight"):
        raise ValueError(f"unknown form {form!r}")
    x = np.asarray(x, dtype=complex)
    Z, s, zero = _gradient_terms(frame, realify(x))
    w = np.empty(frame.m)
    for k in range(frame.m):
        if zero[k]:
            w[k] = 4.0 / rho**4  # lim excess(s)/s
        elif form == "excess":
            w[k] = (4.0 / rho**2) * bessel_ratio_excess(s[k] / rho**2) / s[k]
        else:
            w[k] = (4.0 / rho**4) * (bessel_ratio_weight(s[k] / rho**2) - 1.0)
    mat = (Z * w) @ Z.T
    return FisherMatrix(matrix=hermitian_part(mat), kind="coefficient", x_ref=x, field=frame.field)


# ---------------------------------------------------------------------------
# Cramer-Rao lower bounds
# ---------------------------------------------------------------------------

def _anchor_projection(z0: np.ndarray) -> np.ndarray:
    """Projection removing the unidentifiable phase direction at anchor z0."""
    psi = realify(z0)
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise ZeroVector("anchor vector must be nonzero")
    jpsi = apply_complex_structure(psi / nrm)
    return np.eye(psi.shape[0]) - np.outer(jpsi, jpsi)


def crlb(fisher: FisherMatrix, z0) -> np.ndarray:
    """Covariance floor for unbiased estimators with phase anchored at z0.

    Returns the pseudo-inverse of the anchored Fisher matrix.  For real-tagged
    frames the anchor projection restricts to the real coordinate block; for
    complex frames it removes the direction J j(z0).
    """
    z0 = np.asarray(z0, dtype=complex)
    if np.linalg.norm(z0) == 0.0:
        raise ZeroVector("anchor vector must be nonzero")
    d = fisher.matrix.shape[0]
    n = d // 2
    if fisher.field == "real":
        Pi = np.zeros((d, d))
        Pi[:n, :n] = np.eye(n)
    else:
        Pi = _anchor_projection(z0)
    return pseudo_inverse(hermitian_part(Pi @ fisher.matrix @ Pi))


def crlb_upper_bound(frame: Frame, x, z0, sigma: float, a0: float) -> np.ndarray:
    """Covariance ceiling for CRLB-achieving estimators under additive noise.

    Requires a certified a0 > 0 and an anchor not orthogonal to x; the bound
    is sigma^2 ||z0||^2 / (4 a0 |<x, z0>|^2) times the anchor projection.
    (For a unit-norm anchor the scalar reduces to sigma^2 / (4 a0 |<x,z0>|^2);
    the ||z0||^2 factor keeps the bound above the CRLB at every anchor scale.)
    """
    if a0 <= 0:
        raise ValueError("a0 must be a certified positive constant")
    x = np.asarray(x, dtype=complex)
    z0 = np.asarray(z0, dtype=complex)
    ip = np.vdot(z0, x)  # <x, z0>
    scale = np.linalg.norm(x) * np.linalg.norm(z0)
    if abs(ip) <= 1e-14 * max(scale, np.finfo(float).tiny):
        raise OrthogonalAnchor("anchor is orthogonal to the signal")
    nz2 = np.vdot(z0, z0).real
    return (sigma**2 * nz2 / (4.0 * a0 * abs(ip) ** 2)) * _anchor_projection(z0)
