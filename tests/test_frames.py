import json

import numpy as np
import pytest

from framepr import (
    CombinatorialBudgetExceeded,
    DimensionMismatch,
    NoiseModel,
    analysis,
    canonical_dual,
    frame_bounds,
    frame_from_dict,
    frame_operator,
    frame_to_dict,
    intensity_map,
    is_full_spark,
    lift_outer,
    lifted_map,
    load_frame,
    magnitude_map,
    make_frame,
    random_frame,
    save_frame,
    simulate_measurements,
    synthesis,
    weighted_frame_operator,
)
from framepr.frames import decode_complex, encode_complex
from conftest import random_complex

TRIPLE = make_frame([[1, 0], [0, 1], [1, 1]])  # real mercedes-ish test frame


def test_analysis_basis_coefficients():
    np.testing.assert_allclose(analysis(TRIPLE, [1, 0]), [1, 0, 1])
    np.testing.assert_allclose(analysis(TRIPLE, [0, 0]), [0, 0, 0])


def test_analysis_matches_elementwise(rng):
    frame = random_frame(3, 7, "gaussian", seed=5)
    x = random_complex(rng, 3)
    direct = np.array([np.sum(x * f.conj()) for f in frame.vectors])
    np.testing.assert_allclose(analysis(frame, x), direct, atol=1e-14)


@pytest.mark.parametrize("ensemble", ["gaussian", "real_gaussian"])
def test_analysis_is_the_conjugate_product_bit_for_bit(rng, ensemble):
    # analysis multiplies by the cached conj(V); the product keeps its bits
    for n, m in ((1, 3), (3, 7), (8, 64)):
        frame = random_frame(n, m, ensemble, seed=n + m)
        for scale in (1e-150, 1.0, 1e150):
            x = scale * random_complex(rng, n)
            np.testing.assert_array_equal(analysis(frame, x), frame.vectors.conj() @ x)


def test_analysis_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        analysis(TRIPLE, [1, 0, 0])
    # the maps built on analysis check the same shape
    for noise in (NoiseModel(kind="awgn", sigma=0.1), NoiseModel(kind="coefficient", rho=0.1)):
        with pytest.raises(DimensionMismatch):
            simulate_measurements(TRIPLE, [1, 0, 0], noise)
    with pytest.raises(DimensionMismatch):
        weighted_frame_operator(TRIPLE, [1, 0, 0])


def test_synthesis_canonical():
    c = np.zeros(3)
    c[0] = 1.0
    np.testing.assert_allclose(synthesis(TRIPLE, c), TRIPLE.vectors[0])
    np.testing.assert_allclose(synthesis(TRIPLE, np.zeros(3)), [0, 0])


def test_adjointness(rng):
    frame = random_frame(4, 9, "gaussian", seed=6)
    x = random_complex(rng, 4)
    c = random_complex(rng, 9)
    lhs = np.vdot(c, analysis(frame, x))  # <T x, c>
    rhs = np.vdot(synthesis(frame, c), x)  # <x, T* c>
    assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))


def test_magnitude_map_basics(rng):
    np.testing.assert_allclose(magnitude_map(TRIPLE, [1, 0]), [1, 0, 1])
    x = random_complex(rng, 2)
    a1 = magnitude_map(TRIPLE, x)
    a2 = magnitude_map(TRIPLE, 1j * x)
    np.testing.assert_allclose(a1**2, a2**2, atol=1e-14)


def test_intensity_map_is_squared_magnitude(rng):
    frame = random_frame(3, 8, "gaussian", seed=7)
    x = random_complex(rng, 3)
    np.testing.assert_allclose(
        intensity_map(frame, x), magnitude_map(frame, x) ** 2, atol=1e-13
    )
    np.testing.assert_allclose(intensity_map(TRIPLE, [1, 0]), [1, 0, 1])


def test_intensity_matches_lifted_map(rng):
    frame = random_frame(3, 7, "gaussian", seed=8)
    x = random_complex(rng, 3)
    np.testing.assert_allclose(
        intensity_map(frame, x), lifted_map(frame, lift_outer(x)), atol=1e-12
    )


def test_intensity_scaling(rng):
    x = random_complex(rng, 2)
    c = 1.7 - 0.3j
    np.testing.assert_allclose(
        intensity_map(TRIPLE, c * x),
        abs(c) ** 2 * intensity_map(TRIPLE, x),
        atol=1e-12,
    )


def test_frame_bounds_orthonormal():
    basis = make_frame(np.eye(2))
    assert frame_bounds(basis) == pytest.approx((1.0, 1.0))


def test_frame_bounds_triple():
    # frame operator [[2,1],[1,2]] has eigenvalues 1 and 3
    A, B = frame_bounds(TRIPLE)
    assert A == pytest.approx(1.0, abs=1e-12)
    assert B == pytest.approx(3.0, abs=1e-12)


def test_frame_bounds_homogeneity():
    doubled = make_frame(2.0 * TRIPLE.vectors)
    A, B = frame_bounds(TRIPLE)
    A2, B2 = frame_bounds(doubled)
    assert (A2, B2) == pytest.approx((4 * A, 4 * B))


def test_parseval_sandwich(rng):
    frame = random_frame(4, 10, "gaussian", seed=9)
    A, B = frame_bounds(frame)
    for _ in range(25):
        x = random_complex(rng, 4)
        e = np.linalg.norm(analysis(frame, x)) ** 2
        nx = np.linalg.norm(x) ** 2
        assert A * nx - 1e-10 <= e <= B * nx + 1e-10


def test_full_spark():
    assert is_full_spark(TRIPLE)
    assert not is_full_spark(make_frame([[1, 0], [0, 1], [1, 0]]))
    assert not is_full_spark(make_frame([[1, 0], [0, 1], [0, 0]]))  # a zero row
    frame = random_frame(3, 6, "gaussian", seed=10)
    assert is_full_spark(frame)


def test_full_spark_budget():
    frame = random_frame(10, 30, "gaussian", seed=11)  # C(30, 10) > 10**6 subsets
    with pytest.raises(CombinatorialBudgetExceeded):
        is_full_spark(frame)


def test_random_frame_determinism():
    f1 = random_frame(3, 7, "gaussian", seed=42)
    f2 = random_frame(3, 7, "gaussian", seed=42)
    np.testing.assert_array_equal(f1.vectors, f2.vectors)


@pytest.mark.parametrize("n", [0, -1])
def test_frames_need_positive_dimension(n):
    with pytest.raises(ValueError, match="n >= 1"):
        random_frame(n, 3)
    with pytest.raises(ValueError, match="n >= 1"):
        make_frame(np.zeros((3, 0)))


def test_random_frame_uniform_sphere_norms():
    frame = random_frame(5, 12, "uniform_sphere", seed=1)
    np.testing.assert_allclose(np.linalg.norm(frame.vectors, axis=1) ** 2, 5.0, atol=1e-12)


def test_random_frame_real_tag():
    frame = random_frame(3, 8, "real_gaussian", seed=2)
    assert frame.is_real
    assert np.all(frame.vectors.imag == 0.0)


def test_random_frame_law_of_large_numbers():
    # E[f f*] = I for the gaussian ensemble; the empirical mean concentrates
    # at spectral rate ~ 2 sqrt(n/m), so 25% needs m >> n (m = 16 only gives
    # an O(1) deviation bound)
    small = random_frame(4, 16, "gaussian", seed=3)
    assert np.linalg.norm(frame_operator(small) / small.m - np.eye(4), 2) < 1.5
    large = random_frame(4, 1024, "gaussian", seed=3)
    assert np.linalg.norm(frame_operator(large) / large.m - np.eye(4), 2) < 0.25


def test_canonical_dual_orthonormal():
    basis = make_frame(np.eye(3))
    dual = canonical_dual(basis)
    np.testing.assert_allclose(dual.vectors, basis.vectors, atol=1e-14)


def test_canonical_dual_reconstruction(rng):
    frame = random_frame(4, 9, "gaussian", seed=12)
    dual = canonical_dual(frame)
    x = random_complex(rng, 4)
    np.testing.assert_allclose(synthesis(dual, analysis(frame, x)), x, atol=1e-12)


def test_canonical_dual_triple():
    # S = [[2,1],[1,2]], duals are S^{-1} f_k
    Sinv = np.linalg.inv([[2.0, 1.0], [1.0, 2.0]])
    dual = canonical_dual(TRIPLE)
    np.testing.assert_allclose(dual.vectors.real, TRIPLE.vectors.real @ Sinv.T, atol=1e-13)


def test_dual_of_dual_operator(rng):
    frame = random_frame(3, 7, "gaussian", seed=13)
    dual = canonical_dual(frame)
    S = frame_operator(frame)
    np.testing.assert_allclose(frame_operator(dual), np.linalg.inv(S), atol=1e-10)


def test_frame_json_roundtrip(tmp_path):
    frame = random_frame(3, 7, "gaussian", seed=14)
    path = tmp_path / "frame.json"
    save_frame(frame, path)
    loaded = load_frame(path)
    np.testing.assert_array_equal(loaded.vectors, frame.vectors)
    assert loaded.field == frame.field
    # dict head fields
    d = frame_to_dict(frame)
    assert d["n"] == 3 and d["m"] == 7 and d["field"] == "complex"
    np.testing.assert_array_equal(frame_from_dict(d).vectors, frame.vectors)


def test_cached_frame_operators(monkeypatch):
    import framepr.frames as frames_mod

    frame = random_frame(3, 10, "gaussian", seed=15)
    V = frame.vectors
    calls = []
    fresh_dual = frames_mod.canonical_dual

    def counting_dual(f):
        calls.append(f)
        return fresh_dual(f)

    monkeypatch.setattr(frames_mod, "canonical_dual", counting_dual)
    assert frame.dual is frame.dual
    assert len(calls) == 1
    np.testing.assert_array_equal(frame.dual.vectors, fresh_dual(frame).vectors)

    np.testing.assert_array_equal(frame.phi, np.concatenate([V.real, V.imag], axis=1))
    np.testing.assert_array_equal(frame.jphi, np.concatenate([-V.imag, V.real], axis=1))
    np.testing.assert_array_equal(frame.realified_rows, np.concatenate([frame.phi, frame.jphi]))
    np.testing.assert_array_equal(frame.conj_vectors, V.conj())
    # row k of the lift holds the coordinates of f_k f_k*, so its Gram is
    # |<f_k, f_j>|^2
    M = frame.hermitian_lift
    assert M.shape == (10, 9) and M.dtype == float
    np.testing.assert_allclose(M @ M.T, np.abs(V.conj() @ V.T) ** 2, rtol=1e-13)
    u, s, vh = frame.hermitian_lift_svd
    # m = 10 >= n^2 = 9: the thin SVD, whose u has n^2 columns
    assert (u.shape, s.shape, vh.shape) == ((10, 9), (9,), (9, 9))
    np.testing.assert_allclose((u * s) @ vh, M, atol=1e-13 * s[0])
    names = ("conj_vectors", "realified_rows", "phi", "jphi", "hermitian_lift", "hermitian_lift_svd")
    for name in names:
        assert getattr(frame, name) is getattr(frame, name)
    cached = tuple(getattr(frame, name) for name in names[:-1]) + frame.hermitian_lift_svd
    for value in cached:
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[(0,) * value.ndim] = 0.0


def test_hermitian_lift_svd_spans_the_kernel_below_n_squared():
    # m = 5 < n^2 = 9: the full SVD's vh still has n^2 rows, and its last
    # n^2 - m rows span the lifted map's kernel
    frame = random_frame(3, 5, "gaussian", seed=3)
    u, s, vh = frame.hermitian_lift_svd
    assert (u.shape, s.shape, vh.shape) == ((5, 5), (5,), (9, 9))
    np.testing.assert_allclose(vh @ vh.T, np.eye(9), rtol=0, atol=1e-14)
    np.testing.assert_allclose(frame.hermitian_lift @ vh[5:].T, 0.0, rtol=0, atol=1e-13 * s[0])


def test_complex_codec_roundtrip(rng):
    z = random_complex(rng, 6).reshape(2, 3)
    z[0, 0] = complex(-0.0, 0.0)
    data = encode_complex(z)
    assert data[1][2] == [z[1, 2].real, z[1, 2].imag]
    back = decode_complex(data)
    np.testing.assert_array_equal(back, z)
    assert np.signbit(back[0, 0].real)
    assert encode_complex(z[0]) == data[0]
    with pytest.raises(ValueError):
        decode_complex([[1.0, 2.0, 3.0]])


def _encode_per_entry(a):
    # reference rule: one [float(re), float(im)] per entry, recursing row by
    # row above rank 1
    a = np.asarray(a, dtype=complex)
    if a.ndim > 1:
        return [_encode_per_entry(row) for row in a]
    return [[float(z.real), float(z.imag)] for z in a]


def _leaves(data):
    return [y for x in data for y in _leaves(x)] if isinstance(data, list) else [data]


@pytest.mark.parametrize("shape", [(9,), (3, 4), (2, 3, 4), (0,), (0, 3), (3, 0), (2, 0, 2)])
def test_encode_complex_matches_the_per_entry_rule(shape):
    values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2e-300, 1e300, 5e-324])
    a = np.empty(shape, dtype=complex)
    a.real = np.resize(values, shape)
    a.imag = np.resize(np.roll(values, 4), shape)
    data = encode_complex(a)
    assert json.dumps(data) == json.dumps(_encode_per_entry(a))
    assert all(type(x) is float for x in _leaves(data))
