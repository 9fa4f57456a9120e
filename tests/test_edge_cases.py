"""Edge cases and contract checks that cut across modules."""

import numpy as np
import pytest

from framepr import (
    DimensionMismatch,
    GSOptions,
    IRLSOptions,
    InvalidPartition,
    NoiseModel,
    NotHermitian,
    PhaseLiftOptions,
    RankDeficient,
    WirtingerOptions,
    certify_retrievable_complex,
    cg_solve,
    check_retrievable_real,
    gerchberg_saxton,
    hermitian_eig,
    intensity_map,
    lifted_linear,
    lifted_map,
    load_frame,
    magnitude_map,
    make_frame,
    outer_distance,
    pseudo_inverse,
    random_frame,
    run_experiment,
    save_frame,
    simulate_measurements,
    spectral_init,
    sym_outer,
    synthesis,
    wirtinger_flow,
)
from conftest import random_complex


def test_options_validation():
    with pytest.raises(ValueError):
        PhaseLiftOptions(fit="huber")
    with pytest.raises(ValueError):
        GSOptions(max_iter=0)
    # the regularization weight is finite and non-negative; NaN passes a bare < 0
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lambda_min"):
            IRLSOptions(lambda_min=bad)
    # iteration budgets must be integers; bool is an int subclass but not a count
    for cls, budget in ((PhaseLiftOptions, "max_outer"), (PhaseLiftOptions, "inner_max"),
                        (GSOptions, "max_iter"), (WirtingerOptions, "max_iter"),
                        (IRLSOptions, "max_outer")):
        for bad in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match=budget):
                cls(**{budget: bad})
        assert getattr(cls(**{budget: np.int64(3)}), budget) == 3
    # an explicit start is finite; a NaN start would run to the iteration cap
    for cls in (GSOptions, WirtingerOptions, IRLSOptions):
        for bad in ([np.nan, 1.0], [1.0, np.inf], [complex(1.0, np.nan), 0.0]):
            with pytest.raises(ValueError, match="x0"):
                cls(x0=np.array(bad))


def test_measurement_maps_return_float_arrays():
    frame = random_frame(3, 7, "gaussian", seed=5)
    x = np.array([1.0, 0.5j, -0.25])
    noise = NoiseModel(kind="coefficient", rho=0.1, seed=1)
    for y in (magnitude_map(frame, x), intensity_map(frame, x), simulate_measurements(frame, x, noise)):
        assert isinstance(y, np.ndarray) and y.dtype == np.float64 and y.shape == (7,)


def test_real_frame_json_roundtrip(tmp_path):
    frame = random_frame(3, 7, "real_gaussian", seed=5)
    path = tmp_path / "real.json"
    save_frame(frame, path)
    loaded = load_frame(path)
    assert loaded.is_real
    np.testing.assert_array_equal(loaded.vectors, frame.vectors)


def test_cg_complex_hermitian(rng):
    B = random_complex(rng, 36).reshape(6, 6)
    A = B @ B.conj().T + 4 * np.eye(6)
    b = random_complex(rng, 6)
    x, ok, _ = cg_solve(lambda v: A @ v, b, tol=1e-12)
    assert ok
    np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-9)


def test_pseudo_inverse_indefinite(rng):
    # negative eigenvalues are inverted, not clipped
    M = np.diag([2.0, -0.5, 0.0])
    np.testing.assert_allclose(pseudo_inverse(M), np.diag([0.5, -2.0, 0.0]), atol=1e-14)


def test_lifted_linear_negative_measurements():
    # heavily negative (noisy) measurements can push the top eigenvalue below
    # zero: the least-squares estimate falls back to 0
    frame = random_frame(2, 6, "gaussian", seed=31)
    y = -lifted_map(frame, np.eye(2))
    result = lifted_linear(frame, y)
    np.testing.assert_array_equal(result.diagnostics["x_ls"], np.zeros(2))


def test_wirtinger_zero_start():
    frame = random_frame(2, 8, "gaussian", seed=32)
    y = intensity_map(frame, np.array([1.0, 1j]))
    result = wirtinger_flow(frame, y, WirtingerOptions(x0=np.zeros(2)))
    np.testing.assert_array_equal(result.x_hat, np.zeros(2))
    assert not result.converged
    assert result.stop_reason == "degenerate" and result.iterations == 0


def test_gs_zero_start():
    frame = random_frame(2, 8, "gaussian", seed=33)
    x = np.array([1.0, 1j]) / np.sqrt(2)
    result = gerchberg_saxton(frame, intensity_map(frame, x), GSOptions(x0=np.zeros(2)))
    assert np.isfinite(result.residual)
    assert np.linalg.norm(result.x_hat) > 0  # first sweep leaves the origin


def test_harness_inline_frame_and_signal_norm():
    config = {
        "task": "reconstruct",
        "frame": {
            "inline": {
                "n": 1,
                "m": 2,
                "field": "complex",
                "vectors": [[[1, 0]], [[0, 1]]],
            }
        },
        "signal": {"kind": "gaussian", "norm": 2.0},
        "trials": 2,
        "seed": 7,
        "algorithms": [{"name": "lifted_linear"}],
    }
    report = run_experiment(config)
    for rec in report.records:
        assert rec["d2_error"] <= 1e-8
        # the relative error is normalized by the requested signal norm
        assert rec["d2_rel"] == pytest.approx(rec["d2_error"] / 2.0)


def test_harness_sweep_rho():
    config = {
        "task": "sweep",
        "frame": {"ensemble": "gaussian", "n": 2, "m": 6, "seed": 8},
        "noise": {"kind": "coefficient"},
        "sweep": {"parameter": "rho", "values": [0.01, 0.2]},
        "trials": 3,
        "seed": 9,
        "algorithms": [{"name": "lifted_linear"}],
    }
    report = run_experiment(config)
    rows = {row["noise_level"]: row["d2_rel_mean"] for row in report.tables}
    assert rows[0.01] < rows[0.2]


def test_hermitian_eig_scalar_matrix():
    dec = hermitian_eig(np.array([[3.5]]))
    assert dec.eigenvalues[0] == 3.5
    assert abs(dec.eigenvectors[0, 0]) == 1.0


def test_make_frame_rejects_nonfinite():
    with pytest.raises(ValueError):
        make_frame([[np.nan, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError):
        make_frame(np.array([[1, 1j], [0, 1]]), field="real")


_FRAME = random_frame(2, 4, seed=0)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: check_retrievable_real(_FRAME), InvalidPartition, "real-tagged"),
        (lambda: make_frame(np.ones((1, 2))), RankDeficient, "m >= n"),
        (lambda: random_frame(3, 2), RankDeficient, "m >= n"),
        (lambda: make_frame(np.eye(2), field="quaternion"), ValueError, "unknown field"),
        (lambda: random_frame(2, 4, "bogus"), ValueError, "unknown ensemble"),
        (lambda: synthesis(_FRAME, np.ones(3)), DimensionMismatch, "length 4"),
        (lambda: sym_outer(np.ones(2), np.ones(3)), DimensionMismatch, "shape mismatch"),
        (lambda: hermitian_eig(np.ones((2, 3))), NotHermitian, "square"),
        (lambda: outer_distance(np.ones(2), np.ones(2), p=3), ValueError, "p in"),
        (lambda: spectral_init(_FRAME, np.ones(4), mode="x"), ValueError, "mode"),
    ],
    ids=["real_check_of_complex_frame", "make_frame_too_few", "random_frame_too_few", "field",
         "ensemble", "synthesis_length", "sym_outer_shapes", "eig_not_square", "outer_distance_p",
         "spectral_init_mode"],
)
def test_argument_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_real_frame_with_a_zero_margin_partition_is_undecided():
    # exactly retrievable (every pair of sides has determinant 1 or 1e-9), but
    # the float margin is zero; pinned so that an exact decision changes this
    # answer on purpose
    cert = check_retrievable_real(make_frame([[1, 0], [1, 1e-9], [0, 1]], field="real"))
    assert (cert.verdict, cert.notes) == ("undecided", "zero partition margin")


def test_tiny_complex_line_frame_is_undecided():
    # sum |f_k|^4 = 3 * 2^-1200 underflows, so n = 1's closed form cannot be certified
    cert = certify_retrievable_complex(make_frame(np.full((3, 1), 2.0**-300), field="complex"))
    assert (cert.verdict, cert.notes) == ("undecided", "sum |f_k|^4 outside the certified float range")
