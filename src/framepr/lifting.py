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
from .frames import Frame, analysis
from .linalg import hermitian_part

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
    """Eigenvalues and p-norms of sym_outer(u, v) without any eigensolve."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    ip = np.vdot(v, u)  # <u, v> under the first-linear convention
    re, im = ip.real, ip.imag
    nu2 = np.vdot(u, u).real
    nv2 = np.vdot(v, v).real
    disc = np.sqrt(max(nu2 * nv2 - im * im, 0.0))
    a_plus = 0.5 * (re + disc)
    a_minus = 0.5 * (re - disc)
    norm2 = np.sqrt(max(0.5 * (nu2 * nv2 + re * re - im * im), 0.0))
    return S11Spectrum(
        a_plus=float(a_plus),
        a_minus=float(a_minus),
        norm1=float(disc),
        norm2=float(norm2),
        norm_inf=float(0.5 * (abs(re) + disc)),
    )


def rank_one_diff_spectrum(x, y) -> S11Spectrum:
    """Eigenvalues and p-norms of x x* - y y* in closed form.

    With A = ||x||^2 - ||y||^2 and G = ||x||^2 ||y||^2 - |<x, y>|^2 >= 0 the
    eigenvalues are (A +- d) / 2 with d = sqrt(A^2 + 4 G) = norm1, their
    product is -G, and the squared Frobenius norm is A^2 + 2 G.  Near the
    phase orbit of y, A and G cancel catastrophically in floating point (a
    d1 of 1.1e-7 at ||x||^2 = 6 read 0), so both are formed exactly: every
    finite float is an integer over a power of two, and Python integers
    carry the sums.  Each output is then rounded once: the eigenvalue of
    larger modulus from (|A| + d) / 2, the other from the product -G.
    Non-finite input gives NaN throughout.
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

    nx2, ny2 = dot(xs, xs), dot(ys, ys)
    A = nx2 - ny2
    G = nx2 * ny2 - dot(xs, ys) ** 2 - dot(xs, jys) ** 2
    # A carries den^2, G den^4; square roots keep 64 guard bits below the
    # final rounding
    scale = den * den
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
    """
    X = np.asarray(X, dtype=complex)
    if X.shape != (frame.n, frame.n):
        raise DimensionMismatch(f"expected ({frame.n},{frame.n}) matrix, got {X.shape}")
    return (frame.lifted_rows @ X.ravel()).real


def lifted_map_adjoint(frame: Frame, w) -> np.ndarray:
    """Adjoint of lifted_map: sum_k w_k f_k f_k* (self-adjoint for real w)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (frame.m,):
        raise DimensionMismatch(f"expected length-{frame.m} weights, got {w.shape}")
    return hermitian_part((w @ frame.lifted_rows).conj().reshape(frame.n, frame.n))


def weighted_frame_operator(frame: Frame, x) -> np.ndarray:
    """R(x) = sum_k |<x, f_k>|^2 f_k f_k*; PSD and quadratic in x."""
    c = analysis(frame, x)
    w = (c * c.conj()).real
    return lifted_map_adjoint(frame, w)


def gradient_columns(frame: Frame, xi) -> np.ndarray:
    """Matrix with columns Phi_k xi, shape (2n, m).

    Column k is half the gradient of xi -> <Phi_k xi, xi>, the k-th intensity
    measurement in realified coordinates.
    """
    xi = np.asarray(xi, dtype=float)
    d = 2 * frame.n
    if xi.shape != (d,):
        raise DimensionMismatch(f"expected length-{d} vector, got {xi.shape}")
    return coefficient_columns(frame, frame.phi @ xi, frame.jphi @ xi)


def coefficient_columns(frame: Frame, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``gradient_columns`` at the point whose frame coefficients are p + iq.

    Column k is Phi_k xi = p_k phi_k + q_k J phi_k, where p = phi xi and
    q = J phi xi are the real and imaginary parts of <x, f_k>; a solver that
    already holds them skips the two products with the realified rows.
    """
    return (frame.phi.T * p) + (frame.jphi.T * q)


def gradient_gram(frame: Frame, xi) -> np.ndarray:
    """Gram matrix of the measurement gradients: sum_k Phi_k xi xi^T Phi_k.

    Equal to Z Z^T for Z = gradient_columns(frame, xi); J xi lies in its kernel.
    """
    Z = gradient_columns(frame, xi)
    return Z @ Z.T


def _gradient_terms(frame: Frame, xi: np.ndarray):
    """Z = gradient_columns(frame, xi), s = Z^T xi and the zero-measurement mask.

    s_k = <Phi_k xi, xi> = |<x, f_k>|^2; measurement k counts as zero at xi
    when s_k <= ZERO_TOL * ||f_k||^2 * ||xi||^2 (Phi_k xi = 0 up to roundoff).
    """
    Z = gradient_columns(frame, xi)
    s = Z.T @ xi
    scale = np.linalg.norm(frame.vectors, axis=1) ** 2 * float(xi @ xi)
    return Z, s, s <= ZERO_TOL * np.maximum(scale, np.finfo(float).tiny)


def normalized_gradient_gram(frame: Frame, xi) -> np.ndarray:
    """Same sum with each term divided by <Phi_k xi, xi>.

    Terms of measurements that are numerically zero at xi are excluded.
    """
    xi = np.asarray(xi, dtype=float)
    Z, s, zero = _gradient_terms(frame, xi)
    keep = ~zero
    if not np.any(keep):
        return np.zeros((xi.shape[0], xi.shape[0]))
    Zk = Z[:, keep] / np.sqrt(s[keep])
    return Zk @ Zk.T


def lift_outer(x) -> np.ndarray:
    """x x*, the isometric embedding of the phase quotient for the 1-norm."""
    x = np.asarray(x, dtype=complex)
    return np.outer(x, x.conj())
