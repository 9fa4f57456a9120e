import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from framepr import (
    NoiseModel,
    OrthogonalAnchor,
    QuadratureError,
    ZeroVector,
    apply_complex_structure,
    bessel_ratio_weight,
    crlb,
    crlb_upper_bound,
    certify_retrievable_complex,
    fisher_awgn,
    fisher_coefficient_noise,
    gradient_columns,
    hermitian_eig,
    intensity_map,
    local_stability_bounds,
    make_frame,
    pseudo_inverse,
    random_frame,
    realify,
    simulate_measurements,
    weighted_frame_operator,
)
from framepr import estimation
from framepr.estimation import _SMALL_A, _bessel_weights
from framepr.lifting import _gradient_terms, _normalized_gram
from conftest import random_complex

SCALAR = make_frame(np.array([[1.0 + 0j]]))


# ---------------------------------------------------------------------------
# noise simulation
# ---------------------------------------------------------------------------

def test_awgn_vanishing_noise_returns_intensities(rng):
    frame = random_frame(3, 7, "gaussian", seed=1)
    x = random_complex(rng, 3)
    model = NoiseModel(kind="awgn", sigma=1e-300, seed=0)
    np.testing.assert_array_equal(
        simulate_measurements(frame, x, model), intensity_map(frame, x)
    )


def test_awgn_sample_mean(rng):
    frame = random_frame(2, 50, "gaussian", seed=2)
    x = random_complex(rng, 2)
    beta = intensity_map(frame, x)
    sigma = 0.3
    draws = 2000  # 1e5 scalar samples in total
    acc = np.zeros(frame.m)
    for i in range(draws):
        model = NoiseModel(kind="awgn", sigma=sigma, seed=[7, i])
        acc += simulate_measurements(frame, x, model) - beta
    mean = acc.sum() / (draws * frame.m)
    assert abs(mean) <= 3.0 * sigma / np.sqrt(draws * frame.m)


def test_coefficient_noise_zero_signal_mean():
    # with x = 0 each sample is |mu_k|^2 with E = rho^2 (total variance rho^2)
    frame = random_frame(2, 50, "gaussian", seed=3)
    rho = 0.7
    acc = 0.0
    draws = 2000
    for i in range(draws):
        model = NoiseModel(kind="coefficient", rho=rho, seed=[8, i])
        acc += simulate_measurements(frame, np.zeros(2), model).mean()
    mean = acc / draws
    # Var(|mu|^2) = rho^4; 4-sigma band for the mean of draws * m samples
    assert abs(mean - rho**2) <= 4.0 * rho**2 / np.sqrt(draws * frame.m)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(kind="awgn", sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(kind="coefficient")
    with pytest.raises(ValueError):
        NoiseModel(kind="poisson", sigma=1.0)


def test_simulation_deterministic():
    frame = random_frame(2, 5, "gaussian", seed=4)
    x = np.array([1.0, 1j])
    model = NoiseModel(kind="coefficient", rho=0.5, seed=123)
    y1 = simulate_measurements(frame, x, model)
    y2 = simulate_measurements(frame, x, model)
    np.testing.assert_array_equal(y1, y2)


# ---------------------------------------------------------------------------
# the scalar weights
# ---------------------------------------------------------------------------

def _bessel_ratio_weight_alt(a):
    # the weight from its other printed integral form (exponential weight in
    # the original variable), an independent reference for bessel_ratio_weight
    def integrand(t):
        z = 2.0 * np.sqrt(a * t)
        ratio = special.i1e(z) ** 2 / special.i0e(z)
        return ratio * t * np.exp(-((np.sqrt(t) - np.sqrt(a)) ** 2))

    hi = (np.sqrt(a) + 13.0) ** 2
    val, err = quad(integrand, 0.0, hi, epsabs=1e-12, epsrel=1e-12, limit=200, points=[a])
    assert err <= 1e-8 * max(1.0, abs(val))
    return val / a


def test_weight_small_argument_limit():
    w = bessel_ratio_weight(1e-4)
    assert abs(w - 2.0) <= 1e-3
    assert 1.99 <= w <= 2.01
    assert bessel_ratio_weight(0.0) == 2.0


def test_excess_slope_at_zero():
    # the excess a (w(a) - 1) vanishes linearly at 0 with unit slope
    for a in (1e-6, 1e-4, 1e-3):
        assert a * (bessel_ratio_weight(a) - 1.0) / a == pytest.approx(1.0, abs=5e-3)


def test_weight_dual_quadrature_forms_agree():
    for a in (1e-3, 0.1, 1.0, 5.0, 25.0, 200.0):
        w1 = bessel_ratio_weight(a)
        w2 = _bessel_ratio_weight_alt(a)
        assert w1 == pytest.approx(w2, abs=1e-7)


def _bessel_ratio_weight_tight(a):
    # the same window integral by adaptive quadrature on each side of the
    # peak, with the absolute tolerance scaled by the normalization 8 a^3
    def integrand(t):
        ratio = special.i1e(t) ** 2 / special.i0e(t)
        return ratio * t**3 * np.exp(-((t - 2.0 * a) ** 2) / (4.0 * a))

    width = 13.0 * np.sqrt(a)
    edges = (max(0.0, 2.0 * a - width), 2.0 * a, 2.0 * a + width)
    norm = 8.0 * a**3
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        val, err = quad(integrand, lo, hi, epsabs=1e-14 * norm, epsrel=1e-13, limit=500)
        assert err <= 1e-12 * norm
        total += val
    return total / norm


def test_weight_kernel_matches_tight_reference():
    a = np.logspace(-4, 6, 51)
    w = _bessel_weights(a)
    ref = np.array([_bessel_ratio_weight_tight(v) for v in a])
    quadrature = a > _SMALL_A
    assert quadrature.sum() == 50  # only a = 1e-4 takes the series
    assert np.max(np.abs(w - ref)[quadrature]) <= 1e-12
    # the series' third-order remainder at its boundary is about 1.2e-11
    assert np.max(np.abs(w - ref)[~quadrature]) <= 2e-11


def test_weight_kernel_vector_matches_scalar_wrappers():
    a = np.concatenate([[0.0, 1e-6, _SMALL_A], np.logspace(-3, 5, 17)])
    w = _bessel_weights(a)
    np.testing.assert_array_equal(w, [bessel_ratio_weight(v) for v in a])
    with pytest.raises(ValueError):
        _bessel_weights(np.array([1.0, -1e-3]))
    with pytest.raises(ValueError):
        bessel_ratio_weight(-1.0)


def test_weight_gate_rejects_a_coarse_rule(monkeypatch):
    # one panel per side leaves the G7 and K15 sums far apart
    monkeypatch.setattr("framepr.estimation._PANELS", 1)
    with pytest.raises(QuadratureError):
        bessel_ratio_weight(1.0)
    with pytest.raises(QuadratureError):
        fisher_coefficient_noise(random_frame(2, 6, seed=1), np.array([1.0, 0.5j]), 0.5)
    # the series branch runs no quadrature, so the gate cannot reach it
    assert bessel_ratio_weight(_SMALL_A) == np.exp(-_SMALL_A) * (2.0 + 4.0 * _SMALL_A**2)


def test_weight_continuous_across_the_hermite_switch():
    a_star = estimation._HERMITE_A
    below, above = _bessel_weights(np.array([a_star * (1.0 - 1e-12), a_star * (1.0 + 1e-12)]))
    assert above == pytest.approx(below, rel=1e-13)


def _hermite_frame_case():
    frame = random_frame(8, 64, seed=3)
    x = random_complex(np.random.default_rng(3), 8)
    return frame, x / np.linalg.norm(x), 0.01


def test_fisher_hermite_regime_matches_panel_rule(monkeypatch):
    frame, x, rho = _hermite_frame_case()
    a = intensity_map(frame, x) / rho**2
    assert np.all(a >= estimation._HERMITE_A)
    w = _bessel_weights(a)
    both = fisher_coefficient_noise(frame, x, rho).matrix
    monkeypatch.setattr(estimation, "_HERMITE_A", np.inf)
    w_panels = _bessel_weights(a)
    panels = fisher_coefficient_noise(frame, x, rho).matrix
    np.testing.assert_allclose(w, w_panels, rtol=1e-13, atol=0.0)
    # the matrix is sum_k (4 / rho^4) (w_k - 1) Z_k Z_k^T, and w - 1 is about
    # 1 / (2a) here, so a change of 1e-13 w_k in each weight moves it by up to
    # 1e-13 (4 / rho^4) sum_k w_k ||Z_k||^2, far more than 1e-13 of its norm
    Z = gradient_columns(frame, realify(x))
    bound = 1e-13 * (4.0 / rho**4) * np.sum(w_panels * np.sum(Z * Z, axis=0))
    assert np.linalg.norm(both - panels) <= bound


def test_weight_gate_rejects_a_coarse_hermite_rule(monkeypatch):
    # 3- and 2-node rules differ far beyond the gate on the window integrand
    monkeypatch.setattr(estimation, "_HERMITE_ORDERS", (3, 2))
    frame, x, rho = _hermite_frame_case()
    with pytest.raises(QuadratureError):
        fisher_coefficient_noise(frame, x, rho)


def test_weight_decreases_towards_one():
    vals = [bessel_ratio_weight(a) for a in (0.01, 0.1, 1.0, 10.0, 100.0)]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] > 1.0


# ---------------------------------------------------------------------------
# Fisher matrices
# ---------------------------------------------------------------------------

def test_fisher_awgn_scalar_example():
    # single measurement of a unit scalar with sigma = 2: information E11
    fi = fisher_awgn(SCALAR, np.array([1.0 + 0j]), sigma=2.0)
    np.testing.assert_allclose(fi.matrix, np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-14)


def test_fisher_awgn_kernel_and_scaling(rng):
    frame = random_frame(3, 8, "gaussian", seed=5)
    x = random_complex(rng, 3)
    fi1 = fisher_awgn(frame, x, sigma=0.5)
    jxi = apply_complex_structure(realify(x))
    assert np.linalg.norm(fi1.matrix @ jxi) <= 1e-12 * np.linalg.norm(fi1.matrix)
    fi2 = fisher_awgn(frame, x, sigma=1.0)
    np.testing.assert_allclose(fi1.matrix, 4.0 * fi2.matrix, rtol=1e-14)
    with pytest.raises(ValueError):
        fisher_awgn(frame, x, sigma=0.0)


def test_fisher_awgn_rank_bound(rng):
    frame = random_frame(3, 9, "gaussian", seed=6)
    x = random_complex(rng, 3)
    fi = fisher_awgn(frame, x, sigma=1.0)
    lam = hermitian_eig(fi.matrix).eigenvalues
    rank = int(np.sum(lam > 1e-10 * lam[0]))
    assert rank <= 2 * frame.n - 1


def test_fisher_coefficient_dual_forms(rng):
    frame = random_frame(2, 6, "gaussian", seed=7)
    for _ in range(5):
        x = random_complex(rng, 2)
        f1 = fisher_coefficient_noise(frame, x, rho=0.8, form="excess").matrix
        f2 = fisher_coefficient_noise(frame, x, rho=0.8, form="weight").matrix
        scale = max(1.0, np.linalg.norm(f1))
        assert np.linalg.norm(f1 - f2) <= 1e-8 * scale


@pytest.mark.parametrize("x", [[1.0, 1.0], [0.0, 0.0]])
def test_fisher_coefficient_rejects_unknown_form(x):
    # at x = 0 every term is zero, so the form must be checked before the terms
    with pytest.raises(ValueError):
        fisher_coefficient_noise(random_frame(2, 6, seed=1), np.array(x), 0.5, form="bogus")


def test_fisher_coefficient_kernel_and_psd(rng):
    frame = random_frame(3, 7, "gaussian", seed=8)
    x = random_complex(rng, 3)
    fi = fisher_coefficient_noise(frame, x, rho=0.6)
    jxi = apply_complex_structure(realify(x))
    assert np.linalg.norm(fi.matrix @ jxi) <= 1e-10 * np.linalg.norm(fi.matrix)
    lam = hermitian_eig(fi.matrix).eigenvalues
    assert lam[-1] >= -1e-10 * max(1.0, lam[0])


@pytest.mark.parametrize(
    "z, zeros",
    [
        ([0.0, 0.8 - 0.3j, 0.0], [0, 2]),  # exactly orthogonal to e1 and e3
        ([0.0, 0.4 + 1.1j, -0.9j], [0]),
        ([0.0, 0.0, 0.0], list(range(7))),
    ],
)
def test_zero_measurement_rule_is_shared(monkeypatch, z, zeros):
    # an orthonormal basis plus generic rows: at z the basis vectors on its
    # zero entries are exactly orthogonal to z.  local_stability_bounds reports
    # exactly the terms the normalized gradient Gram leaves out, and the Fisher
    # matrix gives exactly those the continuous-extension weight 4/rho^4
    rows = np.random.Generator(np.random.Philox(5)).normal(size=(4, 6))
    frame = make_frame(np.vstack([np.eye(3), rows[:, :3] + 1j * rows[:, 3:]]))
    xi = realify(np.array(z))
    Z = gradient_columns(frame, xi)
    s = Z.T @ xi
    kept = [k for k in range(frame.m) if k not in zeros]
    assert local_stability_bounds(frame, np.array(z))["zero_set"] == zeros
    expected = sum((np.outer(Z[:, k], Z[:, k]) / s[k] for k in kept), np.zeros((6, 6)))
    np.testing.assert_allclose(_normalized_gram(*_gradient_terms(frame, xi)), expected, rtol=1e-12, atol=0)

    rho = 0.7
    seen = []

    def recording_weights(a):
        seen.append(a.copy())
        return _bessel_weights(a)

    monkeypatch.setattr("framepr.estimation._bessel_weights", recording_weights)
    fi = fisher_coefficient_noise(frame, np.array(z), rho)
    monkeypatch.undo()
    # one kernel call, on exactly the kept terms; the other terms take 4/rho^4
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], [s[k] / rho**2 for k in kept])
    # the kernel is elementwise in its argument, so the vector pass equals the
    # per-term scalar excess bit for bit
    w = np.full(frame.m, 4.0 / rho**4)
    for k in kept:
        a = s[k] / rho**2
        w[k] = (4.0 / rho**2) * (a * (bessel_ratio_weight(a) - 1.0)) / s[k]
    np.testing.assert_array_equal(fi.matrix, 0.5 * ((Z * w) @ Z.T + ((Z * w) @ Z.T).T))


def test_fisher_score_covariance_scalar_case():
    # Monte-Carlo covariance of the score matches the information matrix
    frame = make_frame(np.array([[1.0 + 0j], [0.7 + 0.4j]]))
    x = np.array([0.9 + 0.2j])
    sigma = 0.35
    fi = fisher_awgn(frame, x, sigma)
    xi = realify(x)
    Z = gradient_columns(frame, xi)  # columns Phi_k xi
    rng = np.random.Generator(np.random.Philox(31415))
    draws = 200_000
    nu = rng.normal(0.0, sigma, size=(draws, frame.m))
    scores = (2.0 / sigma**2) * nu @ Z.T
    cov = scores.T @ scores / draws
    assert np.linalg.norm(cov - fi.matrix) <= 0.05 * np.linalg.norm(fi.matrix)


# ---------------------------------------------------------------------------
# Cramer-Rao bounds
# ---------------------------------------------------------------------------

def test_crlb_scalar_example():
    fi = fisher_awgn(SCALAR, np.array([1.0 + 0j]), sigma=2.0)
    bound = crlb(fi, np.array([1.0 + 0j]))
    np.testing.assert_allclose(bound, np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-12)


def test_crlb_anchor_at_signal_is_plain_pseudoinverse(rng):
    frame = random_frame(3, 9, "gaussian", seed=9)
    x = random_complex(rng, 3)
    fi = fisher_awgn(frame, x, sigma=0.7)
    np.testing.assert_allclose(
        crlb(fi, x), pseudo_inverse(fi.matrix), atol=1e-10 * np.linalg.norm(pseudo_inverse(fi.matrix))
    )


def test_crlb_real_case_block(rng):
    frame = random_frame(3, 7, "real_gaussian", seed=10)
    x = rng.normal(size=3)
    sigma = 0.4
    fi = fisher_awgn(frame, x.astype(complex), sigma)
    bound = crlb(fi, x.astype(complex))
    R = weighted_frame_operator(frame, x.astype(complex)).real
    expected = (sigma**2 / 4.0) * np.linalg.inv(R)
    np.testing.assert_allclose(bound[:3, :3], expected, atol=1e-9 * np.linalg.norm(expected))
    np.testing.assert_allclose(bound[3:, :], 0.0, atol=1e-12)


def test_crlb_psd_and_range(rng):
    frame = random_frame(2, 6, "gaussian", seed=11)
    x = random_complex(rng, 2)
    z0 = random_complex(rng, 2)
    fi = fisher_awgn(frame, x, sigma=1.0)
    bound = crlb(fi, z0)
    lam = hermitian_eig(bound).eigenvalues
    assert lam[-1] >= -1e-12 * max(1.0, lam[0])
    # range contained in the anchored subspace: the removed direction is J psi0
    psi0 = realify(z0) / np.linalg.norm(z0)
    jpsi = apply_complex_structure(psi0)
    assert np.linalg.norm(bound @ jpsi) <= 1e-10 * max(1.0, np.linalg.norm(bound))
    with pytest.raises(ZeroVector):
        crlb(fi, np.zeros(2))


def test_crlb_upper_bound_scalar_reduction(rng):
    frame = random_frame(2, 8, "gaussian", seed=12)
    cert = certify_retrievable_complex(frame, seed=12)
    x = random_complex(rng, 2)
    sigma = 0.3
    bound = crlb_upper_bound(frame, x, x, sigma, cert.a0_lower)
    # at z0 = x the scalar is sigma^2 / (4 a0 ||x||^2); for unit signals this
    # is the plain sigma^2 / (4 a0 |<x,x>|^2) reduction
    scalar = sigma**2 / (4.0 * cert.a0_lower * np.linalg.norm(x) ** 2)
    psi0 = realify(x) / np.linalg.norm(x)
    jpsi = apply_complex_structure(psi0)
    Pi = np.eye(4) - np.outer(jpsi, jpsi)
    np.testing.assert_allclose(bound, scalar * Pi, atol=1e-12 * scalar)
    # larger certified margin tightens the ceiling
    bound2 = crlb_upper_bound(frame, x, x, sigma, 2.0 * cert.a0_lower)
    assert np.all(hermitian_eig(bound - bound2).eigenvalues >= -1e-12)


def test_crlb_sandwiched_by_upper_bound(rng):
    frame = random_frame(2, 8, "gaussian", seed=13)
    cert = certify_retrievable_complex(frame, seed=13)
    sigma = 0.5
    for _ in range(5):
        x = random_complex(rng, 2)
        fi = fisher_awgn(frame, x, sigma)
        lower = crlb(fi, x)
        upper = crlb_upper_bound(frame, x, x, sigma, cert.a0_lower)
        gap = hermitian_eig(upper - lower).eigenvalues
        assert gap[-1] >= -1e-10 * max(1.0, abs(gap[0]))


def test_crlb_upper_bound_orthogonal_anchor():
    frame = random_frame(2, 8, "gaussian", seed=14)
    e = np.eye(2, dtype=complex)
    with pytest.raises(OrthogonalAnchor):
        crlb_upper_bound(frame, e[0], e[1], 0.5, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0,
                                 pytest.param(10**400, id="int_beyond_float")])
def test_noise_and_bound_parameters_are_finite_and_positive(bad):
    frame = random_frame(2, 6, seed=1)
    x = np.array([1.0, 0.5j])
    calls = (
        lambda: NoiseModel(kind="awgn", sigma=bad),
        lambda: NoiseModel(kind="coefficient", rho=bad),
        lambda: fisher_awgn(frame, x, bad),
        lambda: fisher_coefficient_noise(frame, x, bad),
        lambda: crlb_upper_bound(frame, x, x, sigma=bad, a0=1.0),
        lambda: crlb_upper_bound(frame, x, x, sigma=0.1, a0=bad),
    )
    for call in calls:
        with pytest.raises(ValueError, match="finite positive"):
            call()
