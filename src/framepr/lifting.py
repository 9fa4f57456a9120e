"""Realification machinery and lifted (rank-one) measurement operators.

A complex vector x in C^n is identified with xi = [real(x); imag(x)] in R^{2n};
multiplication by i corresponds to the orthogonal antisymmetric matrix J.
Each frame vector f contributes a rank-2 PSD form Phi with
<Phi xi, xi> = |<x, f>|^2, which turns the intensity measurement map into
linear algebra on symmetric matrices.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OddDimension
from .frames import Frame, intensity_map
from .linalg import hermitian_basis

ZERO_TOL = 1e-12  # relative threshold of the zero-measurement rule (_gradient_terms)


def realify(x) -> np.ndarray:
    """Stack real and imaginary parts: C^n -> R^{2n}; norm preserving."""
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x.real, x.imag])


def complexify(xi) -> np.ndarray:
    """Inverse of realify.  Raises OddDimension on odd-length input."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[0] % 2 != 0:
        raise OddDimension(f"length {xi.shape[0]} is not even")
    n = xi.shape[0] // 2
    return xi[:n] + 1j * xi[n:]


def apply_complex_structure(xi: np.ndarray) -> np.ndarray:
    """J @ xi without forming J."""
    n = xi.shape[0] // 2
    return np.concatenate([-xi[n:], xi[:n]])


def measurement_form(f) -> np.ndarray:
    """Rank-2 PSD form Phi = phi phi^T + (J phi)(J phi)^T for one frame vector.

    Satisfies <Phi xi, xi> = |<x, f>|^2 and has the single nonzero eigenvalue
    ||f||^2 with multiplicity 2; Phi / ||f||^2 is an orthogonal projection.
    """
    phi = realify(f)
    jphi = apply_complex_structure(phi)
    return np.outer(phi, phi) + np.outer(jphi, jphi)


def measurement_forms(frame: Frame) -> np.ndarray:
    """Stacked forms, shape (m, 2n, 2n)."""
    phi, jphi = frame.phi, frame.jphi
    return np.einsum("ki,kj->kij", phi, phi) + np.einsum("ki,kj->kij", jphi, jphi)


def sym_outer(x, y) -> np.ndarray:
    """Symmetric outer product (x y* + y x*)/2; sym_outer(x, x) = x x*."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape mismatch {x.shape} vs {y.shape}")
    return 0.5 * (np.outer(x, y.conj()) + np.outer(y, x.conj()))


@dataclass(frozen=True)
class S11Spectrum:
    """Closed-form spectrum of a difference of two rank-one PSD matrices.

    Such a matrix has at most one positive eigenvalue a_plus and one negative
    eigenvalue a_minus; norm1 = a_plus - a_minus.
    """

    a_plus: float
    a_minus: float
    norm1: float
    norm2: float
    norm_inf: float


def sym_outer_spectrum(u, v) -> S11Spectrum:
    """Eigenvalues and p-norms of sym_outer(u, v) without any eigensolve.

    sym_outer(u, v) = x x* - y y* for x = (u + v) / 2 and y = (u - v) / 2.
    Its discriminant ||u||^2 ||v||^2 - (Im <u, v>)^2 cancels near u = i t v,
    so it is formed exactly, as in ``rank_one_diff_spectrum``.
    """
    return _exact_s11_spectrum(u, v, sym=True)


def rank_one_diff_spectrum(x, y) -> S11Spectrum:
    """Eigenvalues and p-norms of x x* - y y* in closed form.

    Near the phase orbit of y, the closed form cancels catastrophically in
    floating point (a d1 of 1.1e-7 at ||x||^2 = 6 read 0), so it is formed
    exactly (``_exact_s11_spectrum``).
    """
    return _exact_s11_spectrum(x, y, sym=False)


def _exact_s11_spectrum(x, y, sym: bool) -> S11Spectrum:
    """Spectrum of x x* - y y*, or of sym_outer(x, y) when ``sym``.

    With G = ||x||^2 ||y||^2 - |<x, y>|^2 >= 0 and A = ||x||^2 - ||y||^2 the
    eigenvalues of x x* - y y* are (A +- d) / 2 with d = sqrt(A^2 + 4 G) =
    norm1, their product is -G, and the squared Frobenius norm is A^2 + 2 G;
    those of sym_outer(x, y) follow from A = 2 Re <x, y> over a doubled
    scale.  A and G are formed exactly: every finite float is an integer over
    a power of two, and Python integers carry the sums.  Each output is then
    rounded once: the eigenvalue of larger modulus from (|A| + d) / 2, the
    other from the product -G.  Non-finite input gives NaN throughout.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape mismatch {x.shape} vs {y.shape}")
    coords = np.concatenate([x.real, x.imag, y.real, y.imag], axis=None)
    if not np.isfinite(coords).all():
        return S11Spectrum(*[math.nan] * 5)
    ratios = [v.as_integer_ratio() for v in coords.tolist()]
    den = max(d for _, d in ratios)  # every denominator is a power of two
    ints = [p * (den // d) for p, d in ratios]
    n = x.size
    xs, ys = ints[: 2 * n], ints[2 * n :]
    jys = [-v for v in ys[n:]] + ys[:n]  # realified i y

    def dot(a, b):
        return sum(map(operator.mul, a, b))

    nx2, ny2, re = dot(xs, xs), dot(ys, ys), dot(xs, ys)
    G = nx2 * ny2 - re * re - dot(xs, jys) ** 2
    # A and d carry scale, G scale^2; square roots keep 64 guard bits below
    # the final rounding
    A, scale = (2 * re, 2 * den * den) if sym else (nx2 - ny2, den * den)
    root = math.isqrt((A * A + 4 * G) << 128)
    big = (abs(A) << 64) + root  # (|A| + d) / 2 = big / (scale 2^65)
    far = _quotient(big, scale << 65)  # the eigenvalue of larger modulus
    # the other eigenvalue, from the product a_plus a_minus = -G
    near = _quotient((-G if A >= 0 else G) << 65, scale * big) if big else 0.0
    a_plus, a_minus = (far, near) if A >= 0 else (near, -far)
    return S11Spectrum(
        a_plus=a_plus,
        a_minus=a_minus,
        norm1=_quotient(root, scale << 64),
        norm2=_quotient(math.isqrt((A * A + 2 * G) << 128), scale << 64),
        norm_inf=far,
    )


def _quotient(num: int, den: int) -> float:
    """num / den correctly rounded, or an infinity of its sign where that
    overflows (den > 0)."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def lifted_map(frame: Frame, X) -> np.ndarray:
    """Measurements of a self-adjoint matrix: k-th entry trace(f_k f_k* X).

    Linear in X; on X = x x* it reproduces the intensity measurements of x.
    A non-Hermitian X is measured through its Hermitian part: the product
    of ``Frame.hermitian_lift`` with z = Re(conj(U) vec X).
    """
    X = np.asarray(X, dtype=complex)
    if X.shape != (frame.n, frame.n):
        raise DimensionMismatch(f"expected ({frame.n},{frame.n}) matrix, got {X.shape}")
    # Re(conj(U) x) = Re(U conj(x)), without a conjugated copy of U
    return frame.hermitian_lift @ (hermitian_basis(frame.n) @ X.ravel().conj()).real


def lifted_map_adjoint(frame: Frame, w) -> np.ndarray:
    """Adjoint of lifted_map: sum_k w_k f_k f_k*, Hermitian by construction
    as U^T (M^T w) for real w."""
    w = np.asarray(w, dtype=float)
    if w.shape != (frame.m,):
        raise DimensionMismatch(f"expected length-{frame.m} weights, got {w.shape}")
    return (hermitian_basis(frame.n).T @ (frame.hermitian_lift.T @ w)).reshape(frame.n, frame.n)


def weighted_frame_operator(frame: Frame, x) -> np.ndarray:
    """R(x) = sum_k |<x, f_k>|^2 f_k f_k*; PSD and quadratic in x."""
    return lifted_map_adjoint(frame, intensity_map(frame, x))


def gradient_columns(frame: Frame, xi) -> np.ndarray:
    """Matrix with columns Phi_k xi, shape (2n, m), at a point xi of shape
    (2n,); at the rows of a batch of shape (k, 2n), their stack (k, 2n, m).

    Column k is half the gradient of xi -> <Phi_k xi, xi>, the k-th intensity
    measurement in realified coordinates: p_k phi_k + q_k J phi_k, where
    p = phi xi and q = J phi xi are the real and imaginary parts of <x, f_k>.
    """
    xi = np.asarray(xi, dtype=float)
    d = 2 * frame.n
    if xi.ndim not in (1, 2) or xi.shape[-1] != d:
        raise DimensionMismatch(f"expected shape ({d},) or (k, {d}), got {xi.shape}")
    p = xi @ frame.phi.T
    q = xi @ frame.jphi.T
    return frame.phi.T * p[..., None, :] + frame.jphi.T * q[..., None, :]


def gradient_gram(frame: Frame, xi) -> np.ndarray:
    """Gram matrix of the measurement gradients: sum_k Phi_k xi xi^T Phi_k,
    at a point or at each row of a batch, as in ``gradient_columns``.

    Equal to Z Z^T for Z = gradient_columns(frame, xi); J xi lies in its kernel.
    """
    Z = gradient_columns(frame, xi)
    return Z @ np.swapaxes(Z, -1, -2)


def _gradient_terms(frame: Frame, xi: np.ndarray):
    """Z = gradient_columns(frame, xi), s = Z^T xi and the zero-measurement mask.

    s_k = <Phi_k xi, xi> = |<x, f_k>|^2; measurement k counts as zero at xi
    when s_k <= ZERO_TOL * ||f_k||^2 * ||xi||^2 (Phi_k xi = 0 up to roundoff).
    """
    if xi.ndim != 1:
        raise DimensionMismatch(f"expected one point of shape ({2 * frame.n},), got {xi.shape}")
    Z = gradient_columns(frame, xi)
    s = Z.T @ xi
    scale = np.linalg.norm(frame.vectors, axis=1) ** 2 * float(xi @ xi)
    return Z, s, s <= ZERO_TOL * np.maximum(scale, np.finfo(float).tiny)


def _normalized_gram(Z: np.ndarray, s: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """sum over the nonzero measurements k of Z_k Z_k^T / s_k, from the
    terms of ``_gradient_terms``; 0 when every measurement is zero."""
    Zk = Z[:, ~zero] / np.sqrt(s[~zero])
    return Zk @ Zk.T


def lift_outer(x) -> np.ndarray:
    """x x*, the isometric embedding of the phase quotient for the 1-norm."""
    x = np.asarray(x, dtype=complex)
    return np.outer(x, x.conj())
