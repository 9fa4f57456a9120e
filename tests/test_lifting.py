import numpy as np
import pytest

from framepr import (
    DimensionMismatch,
    OddDimension,
    analysis,
    apply_complex_structure,
    complexify,
    gradient_columns,
    gradient_gram,
    hermitian_eig,
    intensity_map,
    lift_outer,
    lifted_map,
    lifted_map_adjoint,
    make_frame,
    measurement_form,
    measurement_forms,
    normalized_gradient_gram,
    random_frame,
    rank_one_diff_spectrum,
    realify,
    sym_outer,
    sym_outer_spectrum,
    weighted_frame_operator,
)
from framepr.lifting import coefficient_columns
from conftest import random_complex


def test_realify_roundtrip(rng):
    x = np.array([1 + 2j])
    np.testing.assert_array_equal(realify(x), [1.0, 2.0])
    z = random_complex(rng, 5)
    np.testing.assert_array_equal(complexify(realify(z)), z)
    assert np.linalg.norm(realify(z)) == pytest.approx(np.linalg.norm(z))


def test_complexify_odd_dimension():
    with pytest.raises(OddDimension):
        complexify(np.ones(3))


def test_complex_structure_properties():
    # J xi = realify(i x), J^2 = -I and J^T = -J (so <J xi, xi> = 0)
    x = np.array([1 + 2j, -3j, 0.5])
    xi = realify(x)
    np.testing.assert_array_equal(apply_complex_structure(xi), realify(1j * x))
    np.testing.assert_array_equal(apply_complex_structure(apply_complex_structure(xi)), -xi)
    assert apply_complex_structure(xi) @ xi == 0.0


def test_inner_product_splits_into_real_pair(rng):
    # <x, f> = <xi, phi> + i <xi, J phi>
    for _ in range(20):
        x = random_complex(rng, 4)
        f = random_complex(rng, 4)
        xi, phi = realify(x), realify(f)
        ip = np.vdot(f, x)
        assert abs(ip.real - xi @ phi) < 1e-13 * max(1, abs(ip))
        assert abs(ip.imag - xi @ apply_complex_structure(phi)) < 1e-13 * max(1, abs(ip))


def test_measurement_form_scalar_case():
    np.testing.assert_array_equal(measurement_form(np.array([1.0 + 0j])), np.eye(2))


def test_measurement_form_spectrum(rng):
    f = random_complex(rng, 3)
    lam = hermitian_eig(measurement_form(f)).eigenvalues
    nf2 = np.linalg.norm(f) ** 2
    np.testing.assert_allclose(lam, [nf2, nf2, 0, 0, 0, 0], atol=1e-12 * max(1, nf2))
    # scaled form is a projection
    P = measurement_form(f) / nf2
    np.testing.assert_allclose(P @ P, P, atol=1e-12)


def test_measurement_form_quadratic_identity(rng):
    frame = random_frame(3, 6, "gaussian", seed=21)
    forms = measurement_forms(frame)
    for _ in range(20):
        x = random_complex(rng, 3)
        xi = realify(x)
        beta = intensity_map(frame, x)
        quad = np.einsum("kij,i,j->k", forms, xi, xi)
        np.testing.assert_allclose(quad, beta, atol=1e-12 * max(1, beta.max()))


def test_sym_outer_basics(rng):
    e1 = np.eye(2, dtype=complex)[0]
    np.testing.assert_array_equal(sym_outer(e1, e1), np.diag([1.0, 0.0]).astype(complex))
    x, y = random_complex(rng, 4), random_complex(rng, 4)
    np.testing.assert_array_equal(sym_outer(x, y), sym_outer(y, x))


def test_sym_outer_polarization(rng):
    x, y = random_complex(rng, 5), random_complex(rng, 5)
    lhs = sym_outer(x, y)
    rhs = 0.25 * lift_outer(x + y) - 0.25 * lift_outer(x - y)
    assert np.linalg.norm(lhs - rhs) < 1e-13 * max(1, np.linalg.norm(lhs))


def test_witt_factorization(rng):
    # xx* - yy* = sym_outer(x+y, x-y)
    x, y = random_complex(rng, 4), random_complex(rng, 4)
    lhs = lift_outer(x) - lift_outer(y)
    rhs = sym_outer(x + y, x - y)
    assert np.linalg.norm(lhs - rhs) < 1e-13 * max(1, np.linalg.norm(lhs))


def test_sym_outer_spectrum_canonical_cases():
    e = np.eye(3, dtype=complex)
    s = sym_outer_spectrum(e[0], e[0])
    assert (s.a_plus, s.a_minus) == (1.0, 0.0)
    assert (s.norm1, s.norm2, s.norm_inf) == (1.0, 1.0, 1.0)
    s = sym_outer_spectrum(e[0], e[1])
    assert (s.a_plus, s.a_minus) == (0.5, -0.5)
    assert s.norm1 == pytest.approx(1.0)
    assert s.norm2 == pytest.approx(1 / np.sqrt(2))
    assert s.norm_inf == pytest.approx(0.5)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sym_outer_spectrum_vs_eigensolver(rng, n):
    for _ in range(30):
        u, v = random_complex(rng, n), random_complex(rng, n)
        s = sym_outer_spectrum(u, v)
        lam = hermitian_eig(sym_outer(u, v)).eigenvalues
        scale = max(1.0, np.abs(lam).max())
        assert abs(s.a_plus - lam[0]) < 1e-10 * scale
        assert abs(s.a_minus - lam[-1]) < 1e-10 * scale
        assert abs(s.norm1 - np.abs(lam).sum()) < 1e-10 * scale
        assert abs(s.norm2 - np.linalg.norm(lam)) < 1e-10 * scale
        assert abs(s.norm_inf - np.abs(lam).max()) < 1e-10 * scale
        assert s.a_plus >= -1e-14 and s.a_minus <= 1e-14
        assert s.norm_inf <= s.norm2 + 1e-12 <= s.norm1 + 2e-12
        assert abs(s.norm1 - (s.a_plus - s.a_minus)) < 1e-12 * scale


def test_rank_one_diff_spectrum_canonical():
    e = np.eye(2, dtype=complex)
    s = rank_one_diff_spectrum(e[0], e[1])
    assert (s.a_plus, s.a_minus) == (1.0, -1.0)
    assert s.norm1 == pytest.approx(2.0)
    assert s.norm2 == pytest.approx(np.sqrt(2.0))
    assert s.norm_inf == pytest.approx(1.0)
    z = rank_one_diff_spectrum(e[0], e[0])
    assert z.norm1 == z.norm2 == z.norm_inf == 0.0


def _spectrum_reference(x, y):
    """(a_plus, a_minus, norm1, norm2, norm_inf) of x x* - y y*, from a
    50-digit eigensolve of the matrix built from the float inputs."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    X = [mp.mpc(complex(v)) for v in x]
    Y = [mp.mpc(complex(v)) for v in y]
    n = len(X)
    M = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            M[i, j] = X[i] * mp.conj(X[j]) - Y[i] * mp.conj(Y[j])
    lam = mp.eighe(M, eigvals_only=True)
    a_plus, a_minus = max(lam[n - 1], 0), min(lam[0], 0)
    return [float(v) for v in (a_plus, a_minus, a_plus - a_minus,
                               mp.sqrt(a_plus**2 + a_minus**2), max(a_plus, -a_minus))]


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("sep", [1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0])
def test_rank_one_diff_spectrum_matches_high_precision(rng, sep, rotate):
    # y a distance sep from the phase orbit of x: the closed forms in floating
    # point cancel there (a d1 of 1e-7 read exactly 0)
    for n in (1, 2, 4, 8):
        x = random_complex(rng, n)
        y = x + sep * random_complex(rng, n)
        if rotate:
            y = y * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        s = rank_one_diff_spectrum(x, y)
        got = [s.a_plus, s.a_minus, s.norm1, s.norm2, s.norm_inf]
        for g, r in zip(got, _spectrum_reference(x, y)):
            # abs: the reference's own rounding where an eigenvalue is 0
            assert g == pytest.approx(r, rel=1e-12, abs=1e-40)


def test_rank_one_diff_spectrum_resolves_a_small_d1():
    # ||x||^2 = 6 at n = 4 and a d1 of about 1.1e-7, which once read 0
    x = np.array([1.0, 1.0 + 1.0j, 1.0j, 1.0 - 1.0j])
    y = x + 2.5e-8 * np.array([0.0, 1.0, 0.0, 0.0])
    ref = _spectrum_reference(x, y)
    assert 1e-7 < ref[2] < 1.5e-7
    s = rank_one_diff_spectrum(x, y)
    assert s.norm1 == pytest.approx(ref[2], rel=1e-12)
    assert s.a_minus == pytest.approx(ref[1], rel=1e-12)


def test_rank_one_diff_spectrum_extreme_inputs():
    s = rank_one_diff_spectrum([np.nan, 1.0], [1.0, 0.0])
    assert all(np.isnan([s.a_plus, s.a_minus, s.norm1, s.norm2, s.norm_inf]))
    # eigenvalues beyond the float range overflow to infinities of their sign
    s = rank_one_diff_spectrum([1e200, 0.0], [1e-3, 3e200])
    assert (s.a_plus, s.a_minus, s.norm1) == (np.inf, -np.inf, np.inf)
    # while a finite one beside them keeps its value
    s = rank_one_diff_spectrum([1e200, 1.0], [1.0, 1.0])
    assert s.a_plus == np.inf and s.a_minus == pytest.approx(-1.0, rel=1e-15)
    with pytest.raises(DimensionMismatch):
        rank_one_diff_spectrum([1.0, 0.0], [1.0])


@pytest.mark.parametrize("n", [2, 4, 6])
def test_rank_one_diff_spectrum_vs_eigensolver(rng, n):
    for _ in range(30):
        x, y = random_complex(rng, n), random_complex(rng, n)
        s = rank_one_diff_spectrum(x, y)
        lam = hermitian_eig(lift_outer(x) - lift_outer(y)).eigenvalues
        scale = max(1.0, np.abs(lam).max())
        assert abs(s.a_plus - lam[0]) < 1e-10 * scale
        assert abs(s.a_minus - lam[-1]) < 1e-10 * scale
        assert abs(s.norm1 - np.abs(lam).sum()) < 1e-10 * scale
        assert abs(s.norm2 - np.linalg.norm(lam)) < 1e-10 * scale
        assert abs(s.norm_inf - np.abs(lam).max()) < 1e-10 * scale


def test_spectrum_sign_flip(rng):
    # negating the matrix swaps the positive and negative eigenvalues
    u, v = random_complex(rng, 4), random_complex(rng, 4)
    s = sym_outer_spectrum(u, v)
    s_neg = sym_outer_spectrum(u, -v)
    assert s_neg.a_plus == pytest.approx(-s.a_minus, abs=1e-12)
    assert s_neg.a_minus == pytest.approx(-s.a_plus, abs=1e-12)


def test_signature_preserved_under_congruence(rng):
    # (#positive, #negative) eigenvalues of M and T* M T agree for invertible T
    for _ in range(10):
        x, y = random_complex(rng, 4), random_complex(rng, 4)
        M = lift_outer(x) - lift_outer(y)
        T = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lam1 = hermitian_eig(M).eigenvalues
        lam2 = hermitian_eig(T.conj().T @ M @ T).eigenvalues
        tol1 = 1e-10 * max(1, np.abs(lam1).max())
        tol2 = 1e-10 * max(1, np.abs(lam2).max())
        assert (lam1 > tol1).sum() == (lam2 > tol2).sum()
        assert (lam1 < -tol1).sum() == (lam2 < -tol2).sum()


def test_lifted_map_identity_orthobasis():
    basis = make_frame(np.eye(3))
    np.testing.assert_allclose(lifted_map(basis, np.eye(3)), np.ones(3))


def test_lifted_map_linearity(rng):
    frame = random_frame(3, 7, "gaussian", seed=22)
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    X = 0.5 * (X + X.conj().T)
    Y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Y = 0.5 * (Y + Y.conj().T)
    lhs = lifted_map(frame, 2.0 * X - 0.7 * Y)
    rhs = 2.0 * lifted_map(frame, X) - 0.7 * lifted_map(frame, Y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(rhs).max()))


@pytest.mark.parametrize("n, m", [(1, 3), (3, 7), (4, 24), (5, 30)])
def test_lifted_map_matches_einsum_forms(rng, n, m):
    frame = random_frame(n, m, "gaussian", seed=[26, n])
    V = frame.vectors
    for _ in range(3):
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        X = 0.5 * (X + X.conj().T)
        w = rng.normal(size=m)
        forward = np.einsum("ki,ij,kj->k", V.conj(), X, V).real
        adjoint = np.einsum("k,ki,kj->ij", w, V, V.conj())
        np.testing.assert_allclose(
            lifted_map(frame, X), forward, rtol=0, atol=1e-13 * np.abs(forward).max()
        )
        out = lifted_map_adjoint(frame, w)
        np.testing.assert_allclose(out, adjoint, rtol=0, atol=1e-13 * np.abs(adjoint).max())
        np.testing.assert_array_equal(out, out.conj().T)
    with pytest.raises(DimensionMismatch):
        lifted_map(frame, np.eye(n + 1))
    with pytest.raises(DimensionMismatch):
        lifted_map_adjoint(frame, np.ones(m + 1))


def test_realification_consistency_identity(rng):
    # trace(F_k sym_outer(x,y)) = real(<x,f_k><f_k,y>) = <Phi_k xi, eta>
    frame = random_frame(4, 9, "gaussian", seed=24)
    forms = measurement_forms(frame)
    for _ in range(20):
        x, y = random_complex(rng, 4), random_complex(rng, 4)
        xi, eta = realify(x), realify(y)
        cx, cy = analysis(frame, x), analysis(frame, y)
        expected = (cx * cy.conj()).real
        t1 = np.array([np.trace(lift_outer(f) @ sym_outer(x, y)).real for f in frame.vectors])
        t2 = np.einsum("kij,i,j->k", forms, xi, eta)
        scale = max(1.0, np.abs(expected).max())
        np.testing.assert_allclose(t1, expected, atol=1e-12 * scale)
        np.testing.assert_allclose(t2, expected, atol=1e-12 * scale)


def test_weighted_frame_operator(rng):
    basis = make_frame(np.eye(2))
    np.testing.assert_allclose(
        weighted_frame_operator(basis, np.zeros(2)), np.zeros((2, 2)), atol=1e-15
    )
    # standard basis, x = (1,1): sum |x_k|^2 e_k e_k^T = I
    np.testing.assert_allclose(
        weighted_frame_operator(basis, np.array([1.0, 1.0])), np.eye(2), atol=1e-14
    )
    frame = random_frame(3, 7, "gaussian", seed=25)
    x = random_complex(rng, 3)
    lam = hermitian_eig(weighted_frame_operator(frame, x)).eigenvalues
    assert lam[-1] >= -1e-12 * max(1, lam[0])  # PSD
    # homogeneity in the weight vector
    np.testing.assert_allclose(
        weighted_frame_operator(frame, 2j * x),
        4.0 * weighted_frame_operator(frame, x),
        atol=1e-11 * max(1, lam[0]),
    )


def test_gradient_gram_scalar_case():
    frame = make_frame(np.array([[1.0 + 0j]]))
    xi = np.array([1.0, 0.0])
    np.testing.assert_allclose(gradient_gram(frame, xi), np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_gradient_gram_factorization_and_kernel(rng):
    frame = random_frame(3, 8, "gaussian", seed=26)
    for _ in range(20):
        xi = rng.normal(size=6)
        Z = gradient_columns(frame, xi)
        R = gradient_gram(frame, xi)
        scale = max(1.0, np.linalg.norm(R))
        np.testing.assert_allclose(R, Z @ Z.T, atol=1e-12 * scale)
        assert np.linalg.norm(R @ apply_complex_structure(xi)) < 1e-12 * scale


def test_coefficient_columns_match_gradient_columns(rng):
    frame = random_frame(3, 8, "gaussian", seed=27)
    m = frame.m
    for _ in range(5):
        xi = rng.normal(size=6)
        pq = frame.realified_rows @ xi
        c = frame.vectors.conj() @ (xi[:3] + 1j * xi[3:])
        # the stacked rows give [Re c; Im c] in one product
        np.testing.assert_allclose(pq, np.concatenate([c.real, c.imag]), atol=1e-12)
        np.testing.assert_allclose(
            coefficient_columns(frame, pq[:m], pq[m:]), gradient_columns(frame, xi), atol=1e-12
        )


def test_normalized_gradient_gram_quadratic_form(rng):
    # each kept term satisfies <T_k xi, xi> = <Phi_k xi, xi>, so the quadratic
    # form at xi recovers the total kept coefficient energy
    frame = random_frame(3, 7, "gaussian", seed=27)
    xi = rng.normal(size=6)
    S = normalized_gradient_gram(frame, xi)
    x = complexify(xi)
    energy = float(np.sum(intensity_map(frame, x)))
    assert float(xi @ S @ xi) == pytest.approx(energy, rel=1e-10)


def test_normalized_gradient_gram_exclusion_set():
    # a coefficient that vanishes drops its term instead of dividing by zero
    frame = make_frame(np.eye(2))
    xi = realify(np.array([1.0 + 0j, 0.0]))  # orthogonal to the second vector
    S = normalized_gradient_gram(frame, xi)
    expected = measurement_forms(frame)[0] @ np.outer(xi, xi) @ measurement_forms(frame)[0]
    np.testing.assert_allclose(S, expected, atol=1e-14)
    assert np.trace(S) == pytest.approx(1.0)


def test_lift_maps(rng):
    e1 = np.eye(2, dtype=complex)[0]
    np.testing.assert_array_equal(lift_outer(e1), np.diag([1.0, 0.0]).astype(complex))
    x = random_complex(rng, 5)
    assert np.linalg.norm(lift_outer(x)) == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-12)
