"""Noise models, Fisher information matrices, and Cramer-Rao lower bounds.

Two measurement processes are covered: additive Gaussian noise on the
intensities ("awgn"), and complex Gaussian noise added to the frame
coefficient before the magnitude is taken ("coefficient").  The coefficient
noise convention is Var(mu_k) = rho^2 total, i.e. rho^2/2 per real component,
so that E|mu_k|^2 = rho^2 and the SNR argument of the Bessel weights is
|<x, f_k>|^2 / rho^2.

The Bessel weights of all measurements come from one vectorized pass per
regime: moderate arguments integrate the Gaussian window with a fixed
Gauss-Kronrod rule (G7/K15, as in QUADPACK's qk15), large ones with a
24-node Gauss-Hermite rule in the window's own variable; a coarser
companion rule (G7, or 16-node Gauss-Hermite) gates the relative error, and
small arguments use a series.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import OrthogonalAnchor, QuadratureError, ZeroVector
from .frames import Frame, _check_real, analysis, intensity_map, rng_from_seed
from .lifting import _gradient_terms, apply_complex_structure, gradient_gram, realify
from .linalg import hermitian_part, pseudo_inverse

_SMALL_A = 1e-4  # below this, the Bessel weight uses its continuous extension
_PANELS = 8  # equal G7/K15 panels on each side of the window's peak
_WEIGHT_RTOL = 1e-10  # relative error gate of the Bessel weights
# from this argument on, the window lies inside t > 0 out to the outermost
# Gauss-Hermite node (|x| < 6.02 < sqrt(50)), and the weight takes the
# Gauss-Hermite rule of the first order, gated by the second
_HERMITE_A = 50.0
_HERMITE_ORDERS = (24, 16)

# G7/K15 Gauss-Kronrod rule on [-1, 1] (Piessens et al., QUADPACK, 1983): the
# nonnegative Kronrod nodes in decreasing order, their Kronrod weights, and the
# 7-point Gauss weights on the same nodes (Gauss uses every other node)
_KRONROD_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_KRONROD_W = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_GAUSS_W = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
])
# the same rules on all 15 nodes, left to right
_GK_NODES = np.concatenate([-_KRONROD_X[:-1], _KRONROD_X[::-1]])
_GK_WEIGHTS = np.concatenate([_KRONROD_W[:-1], _KRONROD_W[::-1]])
_GK_ERROR = _GK_WEIGHTS - np.concatenate([_GAUSS_W[:-1], _GAUSS_W[::-1]])

# the one table of noise kinds: each kind's level parameter (a NoiseModel
# field) and the name of its Fisher builder in this module, looked up by name
# so that a caller reaches the module's current binding
_NOISE_KINDS = {"awgn": ("sigma", "fisher_awgn"), "coefficient": ("rho", "fisher_coefficient_noise")}


@dataclass(frozen=True)
class NoiseModel:
    """Seeded measurement noise description.

    ``kind`` is a key of ``_NOISE_KINDS``, whose level parameter must be a
    positive number: kind "awgn" requires ``sigma`` (std dev of the additive
    intensity noise); kind "coefficient" requires ``rho`` (total std dev of
    the complex noise added to each coefficient before squaring).
    """

    kind: str
    sigma: float | None = None
    rho: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        level = _NOISE_KINDS[self.kind][0]
        _check_real(level, getattr(self, level))


@dataclass(frozen=True)
class FisherMatrix:
    """Fisher information in realified coordinates (2n x 2n, PSD).

    The realified direction J realify(x) always lies in the kernel at the
    point x it was built at: the global phase of x is not identifiable from
    intensity measurements.
    """

    matrix: np.ndarray
    field: str


def simulate_measurements(frame: Frame, x, model: NoiseModel) -> np.ndarray:
    """Draw one noisy intensity measurement vector; deterministic given seed."""
    rng = rng_from_seed(model.seed)
    if model.kind == "awgn":
        return intensity_map(frame, x) + rng.normal(0.0, model.sigma, frame.m)
    c = analysis(frame, x)
    half = model.rho * np.sqrt(0.5)
    mu = rng.normal(0.0, half, frame.m) + 1j * rng.normal(0.0, half, frame.m)
    return np.abs(c + mu) ** 2


# ---------------------------------------------------------------------------
# the scalar SNR weights
# ---------------------------------------------------------------------------

@functools.cache
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss-Hermite rule for the
    weight exp(-x^2) on the real line, by Golub-Welsch: the nodes are the
    eigenvalues of the symmetric Jacobi matrix of the Hermite recurrence
    (off-diagonal sqrt(k/2)), the weights sqrt(pi) times the squared first
    components of its unit eigenvectors; both symmetrized about 0 and
    read-only."""
    off = np.sqrt(np.arange(1, order) / 2.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = np.sqrt(np.pi) * v[0] ** 2
    rule = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    for arr in rule:
        arr.flags.writeable = False  # cached, and shared by every caller
    return rule


def _window_integrand(t: np.ndarray) -> np.ndarray:
    """I1(t)^2/I0(t) * t^3 * e^{-t}, from the exponentially scaled Bessel
    functions; the window's Gaussian factor multiplies it.  scipy.special is
    imported here, its only use, so that no other path loads it."""
    from scipy import special

    return special.i1e(t) ** 2 / special.i0e(t) * t**3


def _panel_weights(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weights, error bounds) of the arguments ``a`` by the G7/K15 panels:
    the window [max(0, 2a - 13 sqrt(a)), 2a + 13 sqrt(a)] split at the peak
    2a into _PANELS equal panels per side, all arguments and nodes in one
    array, with the summed |K15 - G7| difference as the error bound."""
    peak = 2.0 * a
    width = 13.0 * np.sqrt(a)
    lo = np.maximum(0.0, peak - width)
    # (args, side, panel): the panel half-widths and centres
    half = np.stack([peak - lo, width], axis=1)[:, :, None] / (2 * _PANELS)
    centre = np.stack([lo, peak], axis=1)[:, :, None] + half * np.arange(1, 2 * _PANELS, 2)
    t = centre[..., None] + half[..., None] * _GK_NODES
    # the exponentials exp(-t^2/(4a)) e^{-a} e^{t} combined into the stable
    # window exp(-(t-2a)^2/(4a)); times the panel half-width, so the rules
    # below need no further scaling
    at = a[:, None, None, None]
    f = _window_integrand(t) * np.exp(-((t - 2.0 * at) ** 2) / (4.0 * at))
    f *= half[..., None]
    norm = 8.0 * a**3
    w = (f * _GK_WEIGHTS).sum(axis=-1).sum(axis=(1, 2)) / norm
    err = np.abs((f * _GK_ERROR).sum(axis=-1)).sum(axis=(1, 2)) / norm
    return w, err


def _hermite_weights(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weights, error bounds) of the arguments ``a`` (all >= _HERMITE_A) by
    Gauss-Hermite: t = 2a + 2 sqrt(a) x turns the window into exp(-x^2) and
    the weight into sum_i w_i g(t_i) / (4 a^(5/2)), g the window integrand;
    the error bound is the difference between the two orders' sums."""
    root = np.sqrt(a)
    sums = []
    for order in _HERMITE_ORDERS:
        x, wx = _hermite_rule(order)
        t = 2.0 * a[:, None] + 2.0 * root[:, None] * x
        # a row-wise sum, not a matrix product, so each weight's bits do not
        # depend on the other arguments in the pass
        sums.append((_window_integrand(t) * wx).sum(axis=-1))
    norm = 4.0 * a**2 * root
    w = sums[0] / norm
    return w, np.abs(sums[0] - sums[1]) / norm


def _bessel_weights(a: np.ndarray) -> np.ndarray:
    """The SNR weight of every entry of the 1-d array ``a`` (all >= 0).

    The weight is the Bessel-ratio integral
    (1 / (8 a^3)) * int_0^inf I1(t)^2 / I0(t) * t^3 * exp(-t^2/(4a) - a) dt.
    Arguments up to _SMALL_A use its second-order series.  Those below
    _HERMITE_A are integrated over the window
    [max(0, 2a - 13 sqrt(a)), 2a + 13 sqrt(a)], split at the peak 2a into
    _PANELS equal panels per side, each with the G7/K15 rule, and the summed
    |K15 - G7| difference bounds the error.  From _HERMITE_A on, the window
    lies inside t > 0 out to every Gauss-Hermite node, and the
    24-node Gauss-Hermite rule in x = (t - 2a) / (2 sqrt(a)) integrates it,
    its difference from the 16-node rule bounding the error.  Each regime
    takes one vectorized pass.  Raises QuadratureError when the error bound,
    relative to the weight, exceeds _WEIGHT_RTOL * max(1, weight).
    """
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("argument must be nonnegative")
    w = np.exp(-a) * (2.0 + 4.0 * a * a)  # second-order small-argument series
    regimes = ((_SMALL_A < a) & (a < _HERMITE_A), _panel_weights), (a >= _HERMITE_A, _hermite_weights)
    for part, rule in regimes:
        if not np.any(part):
            continue
        ap = a[part]
        w[part], err = rule(ap)
        bad = err > _WEIGHT_RTOL * np.maximum(1.0, w[part])
        if np.any(bad):
            k = int(np.flatnonzero(bad)[0])
            raise QuadratureError(f"window quadrature error {err[k]:.2e} at a={ap[k]}")
    return w


def bessel_ratio_weight(a: float) -> float:
    """Scalar SNR weight: the Bessel-ratio integral with Gaussian window.

    Continuous at 0 with value 2; decreases towards 1 for large a.  Below
    a = 50 it is computed by the fixed G7/K15 Gauss-Kronrod rule on 8 panels
    each side of the window's peak, and raises QuadratureError unless the
    summed Kronrod-Gauss difference is within 1e-10 of the weight; from
    a = 50 on, by the 24-node Gauss-Hermite rule in the window's variable,
    gated the same way by its difference from the 16-node rule.  Over a in
    (1e-4, 1e6] the result agrees with a tight adaptive reference to about
    1e-13.  Up to a = 1e-4 a second-order series is used, within about
    1.2e-11.
    """
    _check_real("a", a, zero=True)
    return float(_bessel_weights(np.array([a], dtype=float))[0])


# ---------------------------------------------------------------------------
# Fisher matrices
# ---------------------------------------------------------------------------

def fisher_awgn(frame: Frame, x, sigma: float) -> FisherMatrix:
    """(4 / sigma^2) times the gradient Gram of the intensity map at x."""
    _check_real("sigma", sigma)
    mat = (4.0 / sigma**2) * gradient_gram(frame, realify(x))
    return FisherMatrix(matrix=mat, field=frame.field)


def fisher_coefficient_noise(frame: Frame, x, rho: float, form: str = "excess") -> FisherMatrix:
    """Fisher matrix for noise added to the coefficients before the magnitude.

    Both printed assemblies are available: form "excess" weights each gradient
    column by the excess function over the intensity, form "weight" uses the
    raw weight minus one.  They agree up to roundoff; terms whose intensity is
    numerically zero use the continuous-extension weight (and vanish with the
    gradient column).  The Bessel weights of all the other terms come from
    ``_bessel_weights``: the G7/K15 panels for SNR arguments a below
    _HERMITE_A, the Gauss-Hermite rule from there on.  Each term is weighted
    by w(a) - 1, about 1 / (2a) at large a, so a relative rounding error of
    the weight reaches that term about 2a times larger.
    """
    _check_real("rho", rho)
    if form not in ("excess", "weight"):
        raise ValueError(f"unknown form {form!r}")
    Z, s, zero = _gradient_terms(frame, realify(x))
    w = np.full(frame.m, 4.0 / rho**4)  # lim excess(s)/s on the zero terms
    kept = ~zero
    a = s[kept] / rho**2
    w1 = _bessel_weights(a) - 1.0
    if form == "excess":
        w[kept] = (4.0 / rho**2) * (a * w1) / s[kept]
    else:
        w[kept] = (4.0 / rho**4) * w1
    mat = (Z * w) @ Z.T
    return FisherMatrix(matrix=hermitian_part(mat), field=frame.field)


# ---------------------------------------------------------------------------
# Cramer-Rao lower bounds
# ---------------------------------------------------------------------------

def _anchor_projection(z0: np.ndarray) -> np.ndarray:
    """Projection removing the unidentifiable phase direction at anchor z0,
    which is nonzero: ``crlb`` refuses a zero anchor, and ``crlb_upper_bound``
    finds it orthogonal to the signal."""
    psi = realify(z0)
    jpsi = apply_complex_structure(psi / np.linalg.norm(psi))
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
    _check_real("a0", a0)
    _check_real("sigma", sigma)
    x = np.asarray(x, dtype=complex)
    z0 = np.asarray(z0, dtype=complex)
    ip = np.vdot(z0, x)  # <x, z0>
    scale = np.linalg.norm(x) * np.linalg.norm(z0)
    if abs(ip) <= 1e-14 * max(scale, np.finfo(float).tiny):
        raise OrthogonalAnchor("anchor is orthogonal to the signal")
    nz2 = np.vdot(z0, z0).real
    return (sigma**2 * nz2 / (4.0 * a0 * abs(ip) ** 2)) * _anchor_projection(z0)
