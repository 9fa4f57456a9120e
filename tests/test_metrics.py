import mpmath
import numpy as np
import pytest

from framepr import (
    hermitian_eig,
    lift_outer,
    metrics,
    outer_distance,
    quotient_distance,
    rank_one_diff_spectrum,
)
from conftest import random_complex


def grid_min(x, y, grid=10**4):
    phis = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    return min(np.linalg.norm(x - np.exp(1j * phi) * y) for phi in phis)


def test_quotient_distance_same_class():
    e1 = np.eye(2, dtype=complex)[0]
    assert quotient_distance(e1, 1j * e1) == 0.0


def test_quotient_distance_orthogonal():
    e = np.eye(2, dtype=complex)
    assert quotient_distance(e[0], e[1]) == pytest.approx(np.sqrt(2.0))


def test_quotient_distance_matches_grid(rng):
    for _ in range(10):
        x, y = random_complex(rng, 3), random_complex(rng, 3)
        assert quotient_distance(x, y) == pytest.approx(grid_min(x, y), abs=1e-6)


@pytest.mark.parametrize("sep", [1e-1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-14])
def test_quotient_distance_matches_high_precision(rng, sep):
    # y a relative distance sep from the phase orbit of x, at a random phase.
    # d2 is ||x x* - y y*||_1, formed exactly, over a sum of positive terms,
    # so it keeps a few eps at every separation; aligning y would round each
    # entry by about eps ||y|| and lose eps / sep, and the closed form
    # sqrt(||x||^2 + ||y||^2 - 2 |<x, y>|) eps / sep^2
    worst = 0.0
    for _ in range(40):
        x, w = random_complex(rng, 4), random_complex(rng, 4)
        y = x + sep * np.linalg.norm(x) / np.linalg.norm(w) * w
        y = y * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        with mpmath.workdps(60):
            X = [mpmath.mpc(complex(v)) for v in x]
            Y = [mpmath.mpc(complex(v)) for v in y]
            ip = abs(mpmath.fsum(a * mpmath.conj(b) for a, b in zip(X, Y)))
            ref = mpmath.sqrt(mpmath.fsum(abs(a) ** 2 for a in X + Y) - 2 * ip)
            worst = max(worst, float(abs(quotient_distance(x, y) - ref) / ref))
    assert worst <= 1e-15


def test_quotient_distance_of_zero_vectors():
    assert quotient_distance(np.zeros(3), np.zeros(3)) == 0.0
    assert quotient_distance([0.0, 3j], np.zeros(2)) == 3.0


@pytest.mark.parametrize("x, y, d2, d1", [
    # ||x||^2 overflows: unscaled, the quotient is inf / inf = NaN
    ([1e160, 2e160j], [3e160, 1e160], 2.7908596254688306e160, np.inf),
    # ||x||^2 underflows to 0: unscaled, d2 is 0 for two distinct classes
    ([1e-170, 2e-170j], [3e-170, 1e-170], 2.7908596254688304e-170, 0.0),
])
def test_quotient_distance_of_huge_and_tiny_vectors(x, y, d2, d1):
    # d2 is exact on the pair scaled by a power of two into the float range,
    # whichever power it is; d1 = ||xx* - yy*||_1 itself leaves that range
    assert quotient_distance(x, y) == d2
    assert metrics._distances(x, y) == (d2, d1)
    for k in (-600, -530, 530):
        s = 2.0**k
        if 2.0**-500 < (s * abs(x[0])) ** 2 < 2.0**500:
            assert quotient_distance(s * np.array(x), s * np.array(y)) / s == d2


def test_quotient_distance_keeps_its_bits_inside_the_float_range(rng):
    # the rescaling only runs when the sum under the root leaves
    # [2^-500, 2^500]; elsewhere d2 and d1 are the unscaled formula's bits
    for k in range(40):
        n = 1 + k % 5
        x = random_complex(rng, n) * 10.0 ** rng.uniform(-70, 70)
        y = random_complex(rng, n) * 10.0 ** rng.uniform(-70, 70)
        norm1 = rank_one_diff_spectrum(x, y).norm1
        den = np.sqrt(np.vdot(x, x).real + np.vdot(y, y).real + 2.0 * abs(np.vdot(y, x)))
        assert metrics._distances(x, y) == (float(norm1 / den), norm1)


def test_outer_distance_examples():
    e = np.eye(2, dtype=complex)
    assert outer_distance(e[0], e[1], 1) == pytest.approx(2.0)
    x = np.array([0.3 - 1j, 2.0 + 0.5j])
    for p in (1, 2, np.inf):
        assert outer_distance(x, np.exp(0.7j) * x, p) == pytest.approx(0.0, abs=1e-12)


def test_outer_distance_vs_eigensolver(rng):
    for _ in range(20):
        x, y = random_complex(rng, 4), random_complex(rng, 4)
        lam = hermitian_eig(lift_outer(x) - lift_outer(y)).eigenvalues
        scale = max(1.0, np.abs(lam).max())
        assert abs(outer_distance(x, y, 1) - np.abs(lam).sum()) < 1e-10 * scale
        assert abs(outer_distance(x, y, 2) - np.linalg.norm(lam)) < 1e-10 * scale
        assert abs(outer_distance(x, y, np.inf) - np.abs(lam).max()) < 1e-10 * scale


def _metric_axioms(dist, pts, tol=1e-10):
    for a in pts:
        assert dist(a, a) <= tol
        for b in pts:
            assert abs(dist(a, b) - dist(b, a)) <= tol
            for c in pts:
                assert dist(a, c) <= dist(a, b) + dist(b, c) + tol


def test_metric_axioms(rng):
    pts = [random_complex(rng, 3) for _ in range(4)]
    _metric_axioms(quotient_distance, pts)
    for p in (1, 2, np.inf):
        _metric_axioms(lambda a, b, p=p: outer_distance(a, b, p), pts)


def test_identity_of_indiscernibles_class_level(rng):
    x = random_complex(rng, 4)
    y = np.exp(1.234j) * x
    assert quotient_distance(x, y) <= 1e-10
    assert outer_distance(x, y, 1) <= 1e-10
    z = random_complex(rng, 4)
    assert quotient_distance(x, z) > 1e-6


@pytest.mark.parametrize("p,q", [(1, 2), (2, 1), (2, np.inf), (np.inf, 1)])
def test_outer_distance_norm_equivalence(rng, p, q):
    # d_q <= max(1, 2^(1/q - 1/p)) d_p: rank <= 2 matrices
    inv = lambda r: 0.0 if r == np.inf else 1.0 / r
    const = max(1.0, 2.0 ** (inv(q) - inv(p)))
    for _ in range(10):
        x, y = random_complex(rng, 4), random_complex(rng, 4)
        assert outer_distance(x, y, q) <= const * outer_distance(x, y, p) + 1e-10


def test_normalized_lift_is_bilipschitz(rng):
    # D2 <= ||k(x) - k(y)||_2 <= sqrt(2) D2 for the normalized lift k(x) = x x* / ||x||
    for _ in range(30):
        x, y = random_complex(rng, 3), random_complex(rng, 3)
        d = quotient_distance(x, y)
        k = np.linalg.norm(lift_outer(x) / np.linalg.norm(x) - lift_outer(y) / np.linalg.norm(y))
        assert d - 1e-9 <= k <= np.sqrt(2.0) * d + 1e-9

