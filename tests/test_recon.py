import hashlib
import json
import math
import pathlib
import types

import numpy as np
import pytest

from conftest import random_hermitian
from framepr import linalg, recon
from framepr import (
    DimensionMismatch,
    FramePRError,
    GSOptions,
    IRLSOptions,
    InsufficientRedundancy,
    NoiseModel,
    NonFiniteMeasurement,
    NoConvergence,
    PhaseLiftOptions,
    complexify,
    gradient_columns,
    WirtingerOptions,
    gerchberg_saxton,
    intensity_map,
    irls,
    irls_objective,
    lift_outer,
    lifted_linear,
    lifted_map,
    lifted_map_adjoint,
    make_frame,
    phaselift,
    quotient_distance,
    random_frame,
    realify,
    rng_from_seed,
    simulate_measurements,
    spectral_init,
    wirtinger_flow,
)


def unit_signal(n, seed):
    r = rng_from_seed([seed, 77])
    x = r.normal(size=n) + 1j * r.normal(size=n)
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------------------
# lifted linear inversion
# ---------------------------------------------------------------------------

def test_lifted_linear_scalar_example():
    # two identical scalar measurements of x = 2: dual weights 1/2 each
    frame = make_frame(np.array([[1.0 + 0j], [1.0 + 0j]]))
    result = lifted_linear(frame, np.array([4.0, 4.0]))
    assert result.X_hat[0, 0].real == pytest.approx(4.0, abs=1e-12)
    np.testing.assert_allclose(result.diagnostics["x_ls"], [2.0], atol=1e-12)
    np.testing.assert_allclose(result.x_hat, [2.0], atol=1e-12)


def test_lifted_linear_exact_recovery():
    for seed in range(10):
        frame = random_frame(2, 6, "gaussian", seed=seed)
        x = unit_signal(2, seed)
        result = lifted_linear(frame, intensity_map(frame, x), x_true=x)
        assert result.d2_error <= 1e-8
        assert result.residual <= 1e-9


def test_lifted_linear_measurement_consistency():
    frame = random_frame(3, 12, "gaussian", seed=3)
    x = unit_signal(3, 3)
    y = intensity_map(frame, x)
    result = lifted_linear(frame, y)
    np.testing.assert_allclose(lifted_map(frame, result.X_hat), y, atol=1e-10)


def test_lifted_linear_tie_case():
    # measurements of the identity matrix: top eigenvalue tied, gap estimate 0
    frame = random_frame(2, 6, "gaussian", seed=4)
    y = lifted_map(frame, np.eye(2))
    result = lifted_linear(frame, y)
    assert "tie_top_eigenvalue" in result.flags
    np.testing.assert_allclose(result.x_hat, np.zeros(2), atol=1e-6)
    # the zero fallback is no solution of the tolerance test
    assert result.stop_reason == "degenerate" and not result.converged


def test_lifted_linear_insufficient_redundancy():
    frame = random_frame(2, 3, "gaussian", seed=5)
    with pytest.raises(InsufficientRedundancy):
        lifted_linear(frame, np.ones(3))


# ---------------------------------------------------------------------------
# PSD least squares (PhaseLift)
# ---------------------------------------------------------------------------

def test_phaselift_noiseless_recovery():
    for seed in range(5):
        frame = random_frame(4, 24, "gaussian", seed=seed)
        x = unit_signal(4, seed)
        result = phaselift(frame, intensity_map(frame, x), x_true=x)
        X_true = lift_outer(x)
        rel = np.linalg.norm(result.X_hat - X_true) / np.linalg.norm(X_true)
        assert rel <= 1e-3
        assert result.d2_error <= 0.1


def test_phaselift_zero_measurements():
    frame = random_frame(3, 12, "gaussian", seed=6)
    result = phaselift(frame, np.zeros(12))
    np.testing.assert_allclose(result.X_hat, np.zeros((3, 3)), atol=1e-9)
    np.testing.assert_allclose(result.x_hat, np.zeros(3), atol=1e-5)


@pytest.mark.parametrize("fit", ["l2", "l1_reweighted"])
def test_phaselift_refuses_measurements_whose_norm_overflows(fit):
    # every entry is finite, but ||y||_2 is inf; the step offset then held
    # inf/NaN and the solve raised a misleading NotHermitian
    frame = random_frame(3, 12, "gaussian", seed=6)
    y = 1e200 * intensity_map(frame, unit_signal(3, 1))
    assert np.isfinite(y).all()
    with pytest.raises(NonFiniteMeasurement, match="2-norm of the measurements overflows"):
        phaselift(frame, y, PhaseLiftOptions(fit=fit))


@pytest.mark.parametrize("inner_max", [1, 2])
def test_phaselift_converged_on_last_allowed_step(inner_max):
    # y = 0: the least-squares start is 0 and every step is 0, so each stage
    # meets the step tolerance on its first step, which with inner_max=1 is
    # also its last allowed one: the one l2 stage, and each of the 26
    # l1_reweighted stages
    frame = random_frame(3, 8, "gaussian", seed=6)
    for fit, stages in (("l2", 1), ("l1_reweighted", 26)):
        result = phaselift(frame, np.zeros(8), PhaseLiftOptions(fit=fit, inner_max=inner_max))
        assert result.diagnostics["stage_iterations"] == [1] * stages
        assert result.converged


def _phaselift_reference(frame, y, opts):
    """PhaseLift with the lifted map and its adjoint applied on every step;
    returns (X_hat, steps per stage, converged, trace length).

    Every fit starts from the PSD part of the minimum-norm least-squares
    solution; l2 runs one stage with the whole budget, l1_reweighted
    max_outer stages of inner_max steps.
    """
    n, m = frame.n, frame.m
    z = np.linalg.lstsq(frame.hermitian_lift, y, rcond=None)[0]
    basis = [B.reshape(n, n) for B in linalg.hermitian_basis(n)]
    ev, vecs = np.linalg.eigh(sum(zr * B for zr, B in zip(z, basis)))
    X = (vecs * np.maximum(ev, 0.0)) @ vecs.conj().T
    if opts.fit == "l2":
        stages, budget = 1, opts.max_outer * opts.inner_max
    else:
        stages, budget = opts.max_outer, opts.inner_max
    w = np.ones(m)
    delta = recon.L1_DELTA * np.linalg.norm(y) / m
    stage_steps = []
    tol = recon.PHASELIFT_TOL
    for stage in range(stages):
        if stage > 0:
            w = 1.0 / np.maximum(np.abs(lifted_map(frame, X) - y), delta)
        L = 2.0 * np.linalg.norm(np.sqrt(w)[:, None] * frame.hermitian_lift, 2) ** 2
        # earlier l1 stages only warm-start the next, so they stop at sqrt(tol)
        stage_tol = tol if stage == stages - 1 else np.sqrt(tol)
        Y, t_m, X_prev = X, 1.0, X
        stage_steps.append(0)
        for _ in range(budget):
            grad = 2.0 * lifted_map_adjoint(frame, w * (lifted_map(frame, Y) - y))
            Z = Y - grad / L
            ev, vecs = np.linalg.eigh(0.5 * (Z + Z.conj().T))
            X_new = (vecs * np.maximum(ev, 0.0)) @ vecs.conj().T
            if np.vdot(Y - X_new, X_new - X_prev).real > 0.0:  # gradient restart
                t_new, Y = 1.0, X_new
            else:
                t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_m * t_m))
                Y = X_new + ((t_m - 1.0) / t_new) * (X_new - X_prev)
            step = np.linalg.norm(X_new - X_prev)
            X_prev, X, t_m = X_new, X_new, t_new
            stage_steps[-1] += 1
            met_tol = step <= stage_tol * np.linalg.norm(X_new)
            if met_tol:
                break
    return X, stage_steps, met_tol, stages


# the truncated budget is the one the acceptance CLI config runs (8 l1
# stages of 100 steps, or one l2 stage of 800); the first four frames have
# m > n^2, the last two m < n^2
_REFERENCE_CASES = [(3, 14, 0), (3, 18, 1), (4, 24, 2), (5, 30, 3), (3, 8, 4), (4, 12, 5)]
_TRUNCATED = {"max_outer": 8, "inner_max": 100}


@pytest.mark.parametrize("fit", ["l2", "l1_reweighted"])
@pytest.mark.parametrize(
    "n, m, seed, schedule",
    [pytest.param(*case, {}, id="-".join(map(str, case))) for case in _REFERENCE_CASES]
    + [pytest.param(*case, _TRUNCATED, id="-".join(map(str, case)) + "-truncated")
       for case in _REFERENCE_CASES],
)
def test_phaselift_matches_per_step_reference(fit, n, m, seed, schedule):
    frame = random_frame(n, m, "gaussian", seed=[130, seed])
    x = unit_signal(n, seed)
    y = intensity_map(frame, x)
    if fit == "l1_reweighted":
        y = y + 0.01 * rng_from_seed([131, seed]).normal(size=m)
    opts = PhaseLiftOptions(fit=fit, **schedule)
    result = phaselift(frame, y, opts)
    X_ref, stage_steps, converged, trace_len = _phaselift_reference(frame, y, opts)
    # the reweighting divides by the residuals, so a one-ulp change of y
    # already moves the l1_reweighted reference by up to 4e-12 relative
    rtol = 1e-12 if fit == "l2" else 1e-10
    assert np.linalg.norm(result.X_hat - X_ref) <= rtol * np.linalg.norm(X_ref)
    assert result.iterations == sum(stage_steps)
    assert result.diagnostics["stage_iterations"] == stage_steps
    assert result.converged == converged
    assert len(result.trace) == trace_len


@pytest.mark.parametrize("n, m", [(3, 9), (4, 16), (4, 24), (5, 30)])
def test_phaselift_injective_l2_noiseless_solves_take_one_step(n, m):
    # the lifted map is injective, so the least-squares start is already xx*
    # and the one l2 stage meets the tolerance on its first step
    frame = random_frame(n, m, "gaussian", seed=[150, n, m])
    x = unit_signal(n, m)
    result = phaselift(frame, intensity_map(frame, x), x_true=x)
    assert result.diagnostics["stage_iterations"] == [1] and len(result.trace) == 1
    assert result.converged and result.stop_reason == "tol"
    assert result.d2_error <= 1e-12


def test_phaselift_l2_solves_below_n_squared_converge():
    # m < n^2: the lifted map is not injective, and the projected-gradient
    # path from the least-squares start meets the tolerance on every solve,
    # noiseless or not; the trace-weight continuation it replaced ran out of
    # budget on 7 of these 24 solves
    for n, m in [(3, 8), (4, 12), (5, 18)]:
        for sigma in (0.0, 0.01):
            for seed in range(4):
                frame = random_frame(n, m, "gaussian", seed=[7, n, m, seed])
                y = intensity_map(frame, unit_signal(n, seed))
                y = y + sigma * rng_from_seed([n, m, seed, 5]).normal(size=m)
                result = phaselift(frame, y)
                assert result.converged, (n, m, sigma, seed, result.iterations)


def test_phaselift_recovers_most_noiseless_signals_at_the_injectivity_edge():
    # n = 4, m = 12 < n^2 = 16: 37 of these 40 noiseless solves recover x to
    # d2 <= 1e-5; the trace-weight continuation it replaced recovered 27
    exact = 0
    for seed in range(40):
        frame = random_frame(4, 12, "gaussian", seed=[17, 4, 12, seed])
        x = unit_signal(4, seed)
        exact += phaselift(frame, intensity_map(frame, x), x_true=x).d2_error <= 1e-5
    assert exact >= 35


def test_phaselift_default_noiseless_solves_converge():
    # at m = 24 < n^2 the one l2 stage meets the tolerance;
    # plain_fista_steps is the same solve with FISTA momentum that never
    # restarts, and the gradient restart needs under half of it;
    # continuation_steps is the 26-stage trace-weight continuation this
    # path replaced, which needed more steps on every solve
    for seed, (plain_fista_steps, continuation_steps) in enumerate(
        ((800, 400), (925, 466), (1131, 517), (2380, 702))
    ):
        frame = random_frame(5, 24, "gaussian", seed=[132, seed])
        x = unit_signal(5, seed)
        result = phaselift(frame, intensity_map(frame, x), x_true=x)
        assert result.converged
        assert result.d2_error <= 1e-7
        assert len(result.trace) == 1
        assert result.iterations < plain_fista_steps / 2
        assert result.iterations < continuation_steps


def test_phaselift_reports_steps_per_stage(caplog):
    # fit l1_reweighted runs max_outer stages; l2 runs one
    frame = random_frame(3, 8, "gaussian", seed=6)
    y = intensity_map(frame, unit_signal(3, 6))
    for fit, stages in (("l1_reweighted", 5), ("l2", 1)):
        opts = PhaseLiftOptions(fit=fit, max_outer=5)
        caplog.clear()
        with caplog.at_level("DEBUG", logger="framepr"):
            result = phaselift(frame, y, opts)
        steps = result.diagnostics["stage_iterations"]
        assert len(steps) == len(result.trace) == stages
        assert all(isinstance(k, int) and 1 <= k <= opts.inner_max * opts.max_outer / stages
                   for k in steps)
        assert sum(steps) == result.iterations
        records = [r.getMessage() for r in caplog.records if r.name == "framepr"]
        assert len(records) == 1
        assert str(steps) in records[0] and f"{result.iterations} steps" in records[0]


def test_phaselift_lifted_map_calls_per_stage(monkeypatch):
    # the inner steps run on the per-stage affine map, never the lifted map,
    # which computes each stage's residual once
    import framepr.recon as recon_mod

    calls = []
    for name in ("lifted_map", "lifted_map_adjoint"):
        fn = getattr(recon_mod, name)
        monkeypatch.setattr(recon_mod, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    frame = random_frame(4, 15, "gaussian", seed=5)
    y = intensity_map(frame, unit_signal(4, 5))
    for fit in ("l2", "l1_reweighted"):
        calls.clear()
        result = phaselift(frame, y, PhaseLiftOptions(fit=fit))
        stages = len(result.diagnostics["stage_iterations"])
        assert result.iterations > stages
        assert calls == ["lifted_map"] * stages


def test_phaselift_steps_bypass_hermitian_eig(monkeypatch):
    # the FISTA steps call LAPACK directly; hermitian_eig only reads the
    # estimate off the final X (m = 15 < n^2, so the solve takes many steps)
    calls = []
    monkeypatch.setattr(recon, "hermitian_eig", lambda M: calls.append(1) or linalg.hermitian_eig(M))
    frame = random_frame(4, 15, "gaussian", seed=5)
    result = phaselift(frame, intensity_map(frame, unit_signal(4, 5)))
    assert result.converged and result.iterations > 100
    assert len(calls) == 1


def test_phaselift_eigensolver_failure_inside_the_loop_raises(monkeypatch):
    # the first eigensolve projects the least-squares start, each later one
    # is a step (m = 15 < n^2, so the solve takes more than four); numpy
    # reports a failed factorization by NaN eigenvalues and eigenvectors
    calls = []

    def eigh_lo(a):
        calls.append(1)
        w, v = np.linalg.eigh(a, UPLO="L")
        return (np.full_like(w, np.nan), np.full_like(v, np.nan)) if len(calls) == 5 else (w, v)

    monkeypatch.setattr(recon, "_umath_linalg", types.SimpleNamespace(eigh_lo=eigh_lo))
    frame = random_frame(4, 15, "gaussian", seed=5)
    with pytest.raises(NoConvergence, match="did not converge"):
        phaselift(frame, intensity_map(frame, unit_signal(4, 5)))
    assert len(calls) == 5


@pytest.mark.parametrize("n", range(1, 9))
def test_psd_projection_factors_exactly_as_numpy_eigh(rng, n):
    # the projection calls eigh's gufunc directly; a numpy that changes or
    # drops it must fail here rather than let PhaseLift drift.  The upper
    # triangle is scrambled, so only the lower one may be read.
    M = random_hermitian(rng, n)
    M[np.triu_indices(n, 1)] = rng.normal(size=n * (n - 1) // 2)
    w, v = recon._umath_linalg.eigh_lo(M)
    w_ref, v_ref = np.linalg.eigh(M, UPLO="L")
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    expected = np.dot(v_ref * np.maximum(w_ref, 0.0), v_ref.conj().T).ravel()
    assert np.array_equal(recon._psd_projection(M.ravel()), expected)


def test_step_operator_maps_hermitian_matrices_to_hermitian_matrices():
    # H and c are built in a Hermitian basis, so no check is needed: the
    # step input H vec(Y) + c of a Hermitian Y is Hermitian, for unit and
    # for reweighted weights
    frame = random_frame(3, 12, "gaussian", seed=5)
    y = intensity_map(frame, unit_signal(3, 5))
    Y = lift_outer(unit_signal(3, 6)) + lift_outer(unit_signal(3, 7))
    for w in (np.ones(12), 1.0 / np.linspace(0.1, 2.0, 12)):
        L, H, c = recon._step_operator(frame, w, y)
        Z = (H @ Y.ravel() + c).reshape(3, 3)
        assert np.linalg.norm(Z - Z.conj().T) <= 1e-14 * np.linalg.norm(Z)
        # and it is the gradient step Y - (2/L) A*(w (A(Y) - y))
        step = Y - (2.0 / L) * lifted_map_adjoint(frame, w * (lifted_map(frame, Y) - y))
        np.testing.assert_allclose(Z, step, rtol=0, atol=1e-13 * np.linalg.norm(step))


@pytest.mark.parametrize("fit", ["l2", "l1_reweighted"])
def test_phaselift_builds_step_operator_once_per_weight_vector(monkeypatch, fit):
    # L (one eigvalsh), H and c depend only on the weights: l2's are all ones
    # for its one stage, l1_reweighted's change at every stage
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(1) or eigvalsh(*a))
    frame = random_frame(4, 15, "gaussian", seed=5)
    x = unit_signal(4, 5)
    y = intensity_map(frame, x) + 0.01 * rng_from_seed([142, 4]).normal(size=15)
    opts = PhaseLiftOptions(fit=fit)
    result = phaselift(frame, y, opts)
    stages = len(result.diagnostics["stage_iterations"])
    assert stages == (1 if fit == "l2" else opts.max_outer)
    assert len(calls) == stages


@pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (4, 0), (4, 1), (5, 0), (5, 1)])
def test_phaselift_l1_noisy_solves_converge(n, seed):
    # the relative weight floor keeps L at the data scale, so every stage
    # meets the step tolerance well inside the inner_max budget
    m = 5 * n
    frame = random_frame(n, m, "gaussian", seed=[140, n, seed])
    x = unit_signal(n, seed)
    y = intensity_map(frame, x) + 0.01 * rng_from_seed([141, n, seed]).normal(size=m)
    opts = PhaseLiftOptions(fit="l1_reweighted")
    result = phaselift(frame, y, opts, x_true=x)
    assert result.converged
    assert result.iterations < opts.max_outer * opts.inner_max / 2
    assert result.d2_error <= 0.02


def test_phaselift_l1_mode_runs_and_fits():
    frame = random_frame(3, 18, "gaussian", seed=7)
    x = unit_signal(3, 7)
    y = intensity_map(frame, x)
    rng = rng_from_seed(8)
    noise = rng.normal(size=18)
    noise *= 0.2 / np.abs(noise).sum()
    result = phaselift(
        frame, y + noise, PhaseLiftOptions(fit="l1_reweighted"), x_true=x
    )
    assert result.d2_error <= 0.2
    assert result.diagnostics["rank_one_gap"] >= 0.0


# ---------------------------------------------------------------------------
# Gerchberg-Saxton
# ---------------------------------------------------------------------------

def test_gs_fixed_point():
    frame = random_frame(4, 16, "gaussian", seed=9)
    x = unit_signal(4, 9)
    result = gerchberg_saxton(frame, intensity_map(frame, x), GSOptions(x0=x), x_true=x)
    assert result.d2_error <= 1e-12
    assert result.converged


def test_gs_zero_measurements():
    frame = random_frame(3, 9, "gaussian", seed=10)
    result = gerchberg_saxton(frame, np.zeros(9), GSOptions(x0=unit_signal(3, 10)))
    np.testing.assert_allclose(result.x_hat, np.zeros(3), atol=1e-14)


def test_gs_negative_entries_rectified():
    frame = random_frame(2, 6, "gaussian", seed=11)
    y = intensity_map(frame, unit_signal(2, 11))
    y[0] = -0.5  # noisy entry below zero
    result = gerchberg_saxton(frame, y, GSOptions(x0=unit_signal(2, 12)))
    assert np.isfinite(result.residual)


def _gs_reference(frame, y, x0, max_iter):
    """Gerchberg-Saxton analyzing each sweep's start and result separately;
    returns (x_hat, iterations, stop_reason, trace)."""
    r = np.sqrt(np.maximum(np.asarray(y, dtype=float), 0.0))
    floor = recon.GS_TOL * float(np.linalg.norm(r))
    x, best_res, best_x, trace, prev, stop = x0, np.inf, x0, [], None, "max_iter"
    for it in range(1, max_iter + 1):
        c = frame.vectors.conj() @ x
        absc = np.abs(c)
        d = np.where(absc > 0.0, r * c / np.where(absc > 0.0, absc, 1.0), r)
        x = frame.dual.vectors.T @ d
        res = float(np.linalg.norm(np.abs(frame.vectors.conj() @ x) - r))
        trace.append(res)
        if res < best_res:
            best_res, best_x = res, x
        if res <= floor:
            stop = "tol"
            break
        if prev is not None and abs(prev - res) <= recon.GS_TOL * max(prev, floor):
            stop = "stagnation"
            break
        prev = res
    return best_x, it, stop, trace


@pytest.mark.parametrize(
    "sigma, max_iter", [(None, 500), (0.05, 500), (0.05, 7), (0.0, 500)], ids=str
)
def test_gs_matches_reference_with_one_analysis_per_sweep(sigma, max_iter, monkeypatch):
    # sigma None: exact measurements; 0.0: y = 0, so every coefficient of the
    # first sweep's result is 0 and gets phase 1
    frame = random_frame(4, 24, "gaussian", seed=20)
    x = unit_signal(4, 20)
    if sigma is None:
        y = intensity_map(frame, x)
    else:
        y = sigma * rng_from_seed(3).normal(size=24) + (sigma > 0) * intensity_map(frame, x)
    x0 = spectral_init(frame, intensity_map(frame, x), mode="wf").x0
    x_ref, iterations, stop, trace = _gs_reference(frame, y, x0, max_iter)
    calls = []

    def counted(frame_, v):
        calls.append(1)
        return frame_.vectors.conj() @ np.asarray(v, dtype=complex)

    monkeypatch.setattr(recon, "analysis", counted)
    result = gerchberg_saxton(frame, y, GSOptions(x0=x0, max_iter=max_iter))
    assert len(calls) == result.iterations + 1
    assert (result.iterations, result.stop_reason) == (iterations, stop)
    np.testing.assert_array_equal(result.x_hat, x_ref)
    assert result.trace == trace


def test_gs_best_iterate_tracking():
    frame = random_frame(8, 48, "gaussian", seed=12)
    x = unit_signal(8, 12)
    y = intensity_map(frame, x)
    x0 = spectral_init(frame, y, mode="wf").x0
    result = gerchberg_saxton(frame, y, GSOptions(x0=x0, max_iter=300))
    trace = np.array(result.trace)
    best = result.diagnostics["magnitude_residual"]
    assert best == trace.min()
    # best iterate never worse than the start of the sweep
    assert best <= trace[0] + 1e-12


# ---------------------------------------------------------------------------
# spectral initialization
# ---------------------------------------------------------------------------

def test_spectral_init_orthobasis():
    frame = make_frame(np.eye(3))
    y = intensity_map(frame, np.eye(3, dtype=complex)[0])
    init = spectral_init(frame, y, mode="wf")
    assert quotient_distance(init.x0, np.eye(3, dtype=complex)[0]) <= 1e-6
    assert init.a1 == pytest.approx(1.0, abs=1e-8)


def test_spectral_init_energy_scale():
    # basis of C^2 repeated four times, x = e1: the start point has unit norm
    V = np.vstack([np.eye(2)] * 4)
    frame = make_frame(V)
    y = intensity_map(frame, np.eye(2, dtype=complex)[0])
    init = spectral_init(frame, y, mode="wf")
    assert np.linalg.norm(init.x0) == pytest.approx(1.0, abs=1e-10)


def test_spectral_init_nonpositive_sentinel():
    frame = make_frame(np.eye(2))
    y = -intensity_map(frame, np.eye(2, dtype=complex)[0])
    init = spectral_init(frame, y, mode="irls")
    assert init.a1 <= 0.0
    np.testing.assert_array_equal(init.x0, np.zeros(2, dtype=complex))


def test_spectral_init_deterministic():
    frame = random_frame(3, 9, "gaussian", seed=13)
    y = intensity_map(frame, unit_signal(3, 13))
    i1 = spectral_init(frame, y)
    i2 = spectral_init(frame, y)
    np.testing.assert_array_equal(i1.x0, i2.x0)
    assert i1.a1 == i2.a1


def test_spectral_init_matches_dense_eigh():
    # noisy y with negative entries: R_y is indefinite, and the start is its
    # top algebraic eigenpair
    frame = random_frame(4, 24, "gaussian", seed=23)
    y = simulate_measurements(frame, unit_signal(4, 23), NoiseModel(kind="awgn", sigma=4.0, seed=24))
    w, vecs = np.linalg.eigh(lifted_map_adjoint(frame, y))
    assert w[0] < 0.0 < w[-1]
    init = spectral_init(frame, y, mode="wf")
    assert init.a1 == pytest.approx(w[-1], rel=1e-12)
    phase = np.vdot(init.e1, vecs[:, -1])
    assert abs(phase) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(init.e1 * phase, vecs[:, -1], atol=1e-12)


# ---------------------------------------------------------------------------
# Wirtinger flow
# ---------------------------------------------------------------------------

def test_wirtinger_converges_noiseless():
    frame = random_frame(16, 128, "gaussian", seed=14)
    x = unit_signal(16, 14)
    result = wirtinger_flow(frame, intensity_map(frame, x), x_true=x)
    assert result.d2_error <= 1e-5
    assert result.iterations <= 200


def test_wirtinger_noisy_stops_on_tol_with_nonincreasing_misfit():
    # conjugate directions with an exact line search: every noisy n=8, m=64
    # solve meets the gradient test well inside the budget, each step lowers
    # the misfit, and the returned x_hat itself passes the test
    for seed in range(10):
        frame = random_frame(8, 64, "gaussian", seed=seed)
        sigma = (0.005, 0.01, 0.02)[seed % 3]
        y = simulate_measurements(frame, unit_signal(8, seed), NoiseModel("awgn", sigma=sigma, seed=seed))
        result = wirtinger_flow(frame, y)
        assert result.stop_reason == "tol" and result.converged
        assert result.iterations <= 150
        assert len(result.trace) == result.iterations
        assert np.all(np.diff(result.trace) <= 0.0)
        c = frame.vectors.conj() @ result.x_hat
        y_plus = np.maximum(y, 0.0)
        scale = recon._energy_norm(frame, y_plus)
        assert scale == pytest.approx(np.linalg.norm(spectral_init(frame, y_plus).x0), rel=1e-14)
        g = frame.vectors.T @ (((c * c.conj()).real - y_plus) * c) / frame.m
        assert np.linalg.norm(g) <= recon.WF_TOL * scale**3


def test_wirtinger_stop_scale_comes_from_y_not_the_start():
    # a small explicit start used to set the gradient test's scale ||x0||^3 and
    # ran the whole budget at residual 1e-14; the scale is now the norm of
    # the energy-matched start, so every start stops on "tol".  Starts within
    # about 1e-9 of that norm from the critical point x = 0 pass the
    # gradient test there, and the misfit condition sends them on
    frame = random_frame(3, 12, seed=1)
    x = unit_signal(3, 1)
    y = intensity_map(frame, x)
    for x0 in (None, 1e-3 * np.ones(3), 1e-20 * np.ones(3), 1e-80 * np.ones(3)):
        result = wirtinger_flow(frame, y, WirtingerOptions(x0=x0, max_iter=3000), x_true=x)
        assert result.stop_reason == "tol" and result.iterations < 300
        assert result.d2_error <= 1e-6
    # y = 0 gives a zero scale: an explicit start shrinks toward 0 and never
    # claims convergence
    result = wirtinger_flow(frame, np.zeros(12), WirtingerOptions(x0=np.ones(3), max_iter=50))
    assert result.stop_reason == "max_iter" and np.linalg.norm(result.x_hat) < 0.1


def _quartic(r, a, b, t):
    return float(np.sum((r + a * t + b * t * t) ** 2))


def _quartic_step_over_root_list(r, a, b):
    """The closed form as a min over a list of real roots, the single root
    of the one-root case included; returns (t, number of roots)."""
    s_bb = float(b @ b)
    if s_bb == 0.0:
        return 0.0, 0
    s_ab, s_aa, s_rb, s_ra = float(a @ b), float(a @ a), float(r @ b), float(r @ a)
    e2 = 1.5 * s_ab / s_bb
    e1 = 0.5 * (s_aa + 2.0 * s_rb) / s_bb
    e0 = 0.5 * s_ra / s_bb
    shift = e2 / 3.0
    P = e1 - e2 * shift
    Q = shift * (2.0 * shift * shift - e1) + e0
    disc = 0.25 * Q * Q + P * P * P / 27.0
    if disc >= 0.0:
        A = -math.copysign(math.cbrt(0.5 * abs(Q) + math.sqrt(disc)), Q)
        roots = [A - P / (3.0 * A) if A != 0.0 else 0.0]
    else:
        rad = math.sqrt(-P / 3.0)
        theta = math.acos(max(-1.0, min(1.0, -0.5 * Q / rad**3)))
        roots = [2.0 * rad * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3)]

    def phi(t):
        return t * (2.0 * s_ra + t * (s_aa + 2.0 * s_rb + t * (2.0 * s_ab + t * s_bb)))

    return min((u - shift for u in roots), key=phi), len(roots)


def test_quartic_step_is_the_global_line_minimizer():
    # the closed form against np.roots of phi' and a dense grid, over draws
    # whose phi' has one real root and draws (r << 0, a double well) with
    # three; in some of the latter phi'(0) < 0 and still the deeper well lies
    # at t < 0.  Each t is also, bit for bit, the min over a root list that
    # the one-root case returns without building
    rng = rng_from_seed(40)
    kinds = {"one": 0, "three": 0, "descent_but_negative": 0}
    for k in range(300):
        m = int(rng.integers(1, 9))
        r = rng.normal(size=m) - (3.0 if k % 2 else 0.0)
        a = rng.normal(size=m) * (0.2 if k % 2 else 1.0)
        b = rng.random(m)
        t = recon._quartic_step(r, a, b)
        assert t == _quartic_step_over_root_list(r, a, b)[0]
        cubic = [4.0 * b @ b, 6.0 * a @ b, 2.0 * (a @ a + 2.0 * r @ b), 2.0 * r @ a]
        crit = np.roots(cubic)
        crit = crit[np.abs(crit.imag) <= 1e-7 * (1.0 + np.abs(crit))].real
        # t is a critical point, and none has a lower phi (two wells can tie)
        assert np.min(np.abs(crit - t)) <= 1e-7 * (1.0 + abs(t))
        best = min(_quartic(r, a, b, s) for s in crit)
        assert _quartic(r, a, b, t) <= best + 1e-12 * (1.0 + r @ r)
        grid = np.linspace(crit.min() - 1.0, crit.max() + 1.0, 20001)
        phi = np.sum((r[:, None] + a[:, None] * grid + b[:, None] * grid**2) ** 2, axis=0)
        assert _quartic(r, a, b, t) <= phi.min() + 1e-12 * (1.0 + r @ r)
        kinds["one" if len(crit) == 1 else "three"] += 1
        kinds["descent_but_negative"] += r @ a < 0.0 and t < 0.0
    assert all(count > 0 for count in kinds.values()), kinds
    # b = 0 forces a = 0 along a Wirtinger line, so phi is constant there
    assert recon._quartic_step(np.ones(3), np.zeros(3), np.zeros(3)) == 0.0
    # A = 0, a triple root: phi = (r0 + a0 t + t^2)^2 + r1^2 with moments
    # that make P = Q = 0 exactly, at t = 0 and at t = -1
    for r, a, b, t in [([1.0, 0.0], [0.0, 0.0], [0.0, 1.0], 0.0),
                       ([1.0, 5.0], [2.0, 0.0], [1.0, 0.0], -1.0)]:
        r, a, b = np.array(r), np.array(a), np.array(b)
        assert _quartic_step_over_root_list(r, a, b) == (t, 1)
        assert recon._quartic_step(r, a, b) == t


def test_wirtinger_direction_matches_finite_differences():
    # the update direction is the gradient of the squared intensity misfit
    # over realified coordinates, up to the single global constant 4m
    frame = random_frame(3, 9, "gaussian", seed=15)
    m = frame.m
    rng = rng_from_seed(16)
    x_true = unit_signal(3, 15)
    y = intensity_map(frame, x_true)

    def f(xi):
        c = frame.vectors.conj() @ (xi[:3] + 1j * xi[3:])
        return float(np.sum((y - (c * c.conj()).real) ** 2))

    for _ in range(5):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        c = frame.vectors.conj() @ x
        misfit = (c * c.conj()).real - y
        g = frame.vectors.T @ (misfit * c) / m
        direction = realify(g)
        xi = realify(x)
        fd = np.zeros(6)
        h = 1e-6
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd[i] = (f(xi + e) - f(xi - e)) / (2 * h)
        np.testing.assert_allclose(fd, 4.0 * m * direction, rtol=1e-5, atol=1e-7)


def test_wirtinger_init_quality():
    # at m = 8n the spectral start correlates well with the signal (median
    # class distance ~0.7 for unit signals, against ~1.3 for a random
    # direction); the dense eigensolver gives the same quality, so this is
    # the estimator's true accuracy at this measurement count
    dists = []
    for seed in range(20):
        frame = random_frame(16, 128, "gaussian", seed=seed)
        x = unit_signal(16, seed)
        init = spectral_init(frame, intensity_map(frame, x), mode="wf")
        dists.append(quotient_distance(init.x0, x))
    assert max(dists) <= 1.1
    assert float(np.median(dists)) <= 0.8


# ---------------------------------------------------------------------------
# iterated regularized least squares
# ---------------------------------------------------------------------------

def test_irls_subproblem_descent():
    frame = random_frame(8, 64, "gaussian", seed=17)
    x = unit_signal(8, 17)
    result = irls(frame, intensity_map(frame, x), x_true=x)
    for entry in result.diagnostics["outer_log"]:
        slack = 1e-9 * max(1.0, entry["J_sub_before"])
        assert entry["J_sub_after"] <= entry["J_sub_before"] + slack


def test_irls_noiseless_residual():
    frame = random_frame(8, 64, "gaussian", seed=18)
    x = unit_signal(8, 18)
    y = intensity_map(frame, x)
    result = irls(frame, y, x_true=x)
    ysq = float(np.asarray(y) @ np.asarray(y))
    assert result.diagnostics["best_misfit"] <= 1e-8 * ysq
    assert result.d2_error <= 1e-4


def _noisy_irls_problem():
    frame = random_frame(8, 64, "gaussian", seed=23)
    x = unit_signal(8, 23)
    y = intensity_map(frame, x) + 0.01 * rng_from_seed([23, 1]).normal(size=64)
    return frame, x, y


@pytest.mark.parametrize("max_outer", [1, 5, 40])
def test_irls_logged_values_match_objective(max_outer):
    # the loop builds the criterion from carried coefficients; irls_objective
    # is the independent definition
    frame, x, y = _noisy_irls_problem()
    result = irls(frame, y, IRLSOptions(max_outer=max_outer))
    assert result.iterations == max_outer
    u, v = result.diagnostics["final_pair"]
    log = result.diagnostics["outer_log"][-1]
    lam, mu = log["lam"], log["mu"]
    assert log["J_sub_after"] == pytest.approx(irls_objective(frame, u, v, lam, mu, y), rel=1e-12)
    assert log["J_sub_before"] == pytest.approx(irls_objective(frame, v, v, lam, mu, y), rel=1e-12)
    assert log["J_misfit"] == pytest.approx(irls_objective(frame, u, u, 0.0, 0.0, y), rel=1e-12)


@pytest.mark.parametrize("max_outer", [400, 64, 40])
def test_irls_every_logged_value_matches_objective(monkeypatch, max_outer):
    # the log is built after the step loop, one block of steps at a time;
    # each step's iterate u is the solution the CG check returns, and v is
    # the previous step's u (the spectral start at the first step)
    frame, x, y = _noisy_irls_problem()
    steps = []

    def recording_cg(*args, **kwargs):
        out = linalg.cg_solve(*args, **kwargs)
        steps.append(complexify(out[0]))
        return out

    monkeypatch.setattr(recon, "cg_solve", recording_cg)
    result = irls(frame, y, IRLSOptions(max_outer=max_outer))
    log = result.diagnostics["outer_log"]
    block = recon._IRLS_LOG_BLOCK
    assert len(log) == len(steps) == result.iterations
    if max_outer == 400:
        # crosses a block boundary and stops partway through the next block
        assert result.stop_reason == "stagnation" and block < result.iterations < 2 * block
    else:
        # ends on a block boundary, or partway through the first block
        assert result.stop_reason == "max_iter" and result.iterations == max_outer <= block
    starts = [spectral_init(frame, y, mode="irls").x0] + steps[:-1]
    for entry, u, v in zip(log, steps, starts):
        lam, mu = entry["lam"], entry["mu"]
        assert entry["J_sub_before"] == pytest.approx(irls_objective(frame, v, v, lam, mu, y), rel=1e-12)
        assert entry["J_sub_after"] == pytest.approx(irls_objective(frame, u, v, lam, mu, y), rel=1e-12)
        assert entry["J_misfit"] == pytest.approx(irls_objective(frame, u, u, 0.0, 0.0, y), rel=1e-12)


def test_irls_cg_only_checks_the_direct_solve(monkeypatch):
    frame, x, y = _noisy_irls_problem()
    noiseless = irls(frame, intensity_map(frame, x), x_true=x)
    noisy = irls(frame, y, x_true=x)
    for result in (noiseless, noisy):
        assert all(e["cg_iterations"] == 0 for e in result.diagnostics["outer_log"])
        assert "cg_tolerance_missed" not in result.flags
    # a tolerance below what the direct solve reaches sends CG refining
    monkeypatch.setattr(recon, "IRLS_CG_TOL", 1e-16)
    strict = irls(frame, y, x_true=x)
    assert sum(e["cg_iterations"] for e in strict.diagnostics["outer_log"]) > 0
    assert np.all(np.isfinite(strict.x_hat))
    assert strict.d2_error == pytest.approx(noisy.d2_error, rel=1e-8)


def _irls_reference(frame, y, opts):
    """IRLS as a per-step loop on complex iterates: Z from
    ``gradient_columns``, each u-step by ``np.linalg.solve`` and the logged
    criterion values from ``irls_objective``; returns (x_hat, iterations,
    stop_reason, best misfit, outer_log rows as (J_sub_before, J_sub_after,
    J_misfit))."""
    y = np.asarray(y, dtype=float)
    init = spectral_init(frame, y, mode="irls")
    x = init.x0 if opts.x0 is None else np.asarray(opts.x0, dtype=complex)
    lam = max(recon.IRLS_RHO * init.a1, opts.lambda_min)
    mu = max(recon.IRLS_RHO * init.a1, recon.IRLS_MU_MIN)
    eps = recon.IRLS_EPS * float(y @ y)
    eye = np.eye(2 * frame.n)
    best, best_x, best_log, log, stop = np.inf, x, [], [], "max_iter"
    for it in range(1, opts.max_outer + 1):
        xi = realify(x)
        Z = gradient_columns(frame, xi)
        u = complexify(np.linalg.solve(Z @ Z.T + (lam + mu) * eye, Z @ y + mu * xi))
        misfit = irls_objective(frame, u, u, 0.0, 0.0, y)
        log.append((irls_objective(frame, x, x, lam, mu, y),
                    irls_objective(frame, u, x, lam, mu, y), misfit))
        x = u
        if misfit < best:
            best, best_x = misfit, u
        best_log.append(best)
        lam = max(recon.IRLS_GAMMA * lam, opts.lambda_min)
        mu = max(recon.IRLS_GAMMA * mu, recon.IRLS_MU_MIN)
        if misfit < eps:
            stop = "tol"
            break
        if it > recon.IRLS_STALL_STEPS:
            before = best_log[-1 - recon.IRLS_STALL_STEPS]
            if before - best <= recon.IRLS_STALL_REL * before:
                stop = "stagnation"
                break
    return best_x, it, stop, best, log


def _irls_reference_case(n, sigma, start, lambda_frac, seed, max_outer):
    """(frame, x, y, opts) on a Gaussian frame with m = 8n: exact or awgn
    measurements; the spectral start or an explicit one; lambda_min zero or a
    fraction of a1."""
    frame = random_frame(n, 8 * n, "gaussian", seed=[210, n, seed])
    x = unit_signal(n, 210 + seed)
    y = intensity_map(frame, x)
    if sigma:
        y = y + sigma * rng_from_seed([211, n, seed]).normal(size=8 * n)
    x0 = None
    if start == "explicit":
        x0 = x + 0.3 * unit_signal(n, 212 + seed)
    lambda_min = lambda_frac * spectral_init(frame, y, mode="irls").a1
    return frame, x, y, IRLSOptions(lambda_min=lambda_min, max_outer=max_outer, x0=x0)


# these stop on "tol" (exact measurements), "stagnation" (awgn, or a
# lambda_min that keeps the misfit off IRLS_EPS) and, with max_outer 30,
# "max_iter"
_IRLS_REFERENCE_CASES = [
    pytest.param(n, *case, id=f"n{n}-" + "-".join(map(str, case)))
    for n in (4, 8)
    for case in [
        (0.0, "spectral", 0.0, 0, 150),
        (0.0, "explicit", 0.0, 1, 150),
        (0.0, "spectral", 3e-4, 2, 150),
        (0.01, "spectral", 0.0, 3, 150),
        (0.02, "explicit", 0.0, 4, 150),
        (0.01, "spectral", 3e-3, 5, 150),
        (0.01, "explicit", 0.0, 6, 30),
    ]
]


def _assert_irls_matches_reference(result, ref, y):
    """Same step count and stop reason; values within roundoff of the
    reference.  Both loops solve the same 2n x 2n SPD systems, Cholesky
    against LU, so each step differs by a few ulps of the iterate.  The
    criterion values are sums of squares of residuals of size ~||y||, each
    carrying an absolute rounding error of a few ulps of ||y||, so they are
    compared at 1e-12 relative plus 1e-12 ||y||^2 absolute; the absolute
    term covers the misfits that noiseless solves drive below 1e-10 ||y||^2,
    where the relative error of the tiny value is large.  Observed: at most
    ~3e-16 of the criterion plus ||y||^2, and ~3e-14 relative in the
    quotient distance of the estimates, which is compared at 1e-11."""
    x_ref, iterations, stop, best, log = ref
    assert (result.iterations, result.stop_reason) == (iterations, stop)
    scale = float(y @ y)
    assert result.diagnostics["best_misfit"] == pytest.approx(best, rel=1e-12, abs=1e-12 * scale)
    got = [(e["J_sub_before"], e["J_sub_after"], e["J_misfit"])
           for e in result.diagnostics["outer_log"]]
    np.testing.assert_allclose(got, log, rtol=1e-12, atol=1e-12 * scale)
    assert quotient_distance(result.x_hat, x_ref) <= 1e-11 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("n, sigma, start, lambda_frac, seed, max_outer", _IRLS_REFERENCE_CASES)
def test_irls_matches_per_step_reference(n, sigma, start, lambda_frac, seed, max_outer):
    frame, x, y, opts = _irls_reference_case(n, sigma, start, lambda_frac, seed, max_outer)
    result = irls(frame, y, opts, x_true=x)
    _assert_irls_matches_reference(result, _irls_reference(frame, y, opts), y)


def test_irls_cholesky_fallback_matches_reference(monkeypatch):
    # a Cholesky routine that reports a nonpositive pivot on every call (and
    # returns NaN) sends each u-step to the LU fallback
    frame, x, y, opts = _irls_reference_case(8, 0.01, "spectral", 0.0, 3, 150)
    calls = []

    def failing_routine(a, b):
        calls.append(1)
        return a, np.full_like(b, np.nan), 1

    monkeypatch.setattr(linalg, "_cholesky_routine", lambda: failing_routine)
    result = irls(frame, y, opts, x_true=x)
    assert len(calls) == result.iterations
    assert np.all(np.isfinite(result.x_hat)) and "cg_tolerance_missed" not in result.flags
    _assert_irls_matches_reference(result, _irls_reference(frame, y, opts), y)


def test_irls_objective_identity(rng):
    frame = random_frame(3, 9, "gaussian", seed=19)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    y = intensity_map(frame, unit_signal(3, 19))
    # J(x, x; lam, 0) = ||beta(x) - y||^2 + 2 lam ||x||^2
    lhs = irls_objective(frame, u, u, 0.7, 0.0, y)
    rhs = float(np.sum((intensity_map(frame, u) - y) ** 2)) + 1.4 * float(
        np.vdot(u, u).real
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert irls_objective(frame, u, v, 0.0, 0.0, y) >= 0.0


def test_irls_nonpositive_sentinel():
    frame = make_frame(np.eye(2).astype(complex), field="complex")
    y = -np.ones(2)
    result = irls(frame, y)
    np.testing.assert_array_equal(result.x_hat, np.zeros(2, dtype=complex))
    assert "nonpositive_top_eigenvalue" in result.flags
    assert result.stop_reason == "degenerate" and not result.converged


def test_irls_negative_control_non_retrievable():
    # orthonormal basis repeated: not retrievable, the residual is still
    # driven down but the class error can stay large
    V = np.vstack([np.eye(2)] * 4)
    frame = make_frame(V.astype(complex), field="complex")
    x = np.array([1.0 + 0.5j, -0.3 + 0.8j])
    x /= np.linalg.norm(x)
    y = intensity_map(frame, x)
    result = irls(frame, y, x_true=x)
    ysq = float(np.asarray(y) @ np.asarray(y))
    # the run returns a finite minimizer with the misfit driven well below the
    # measurement energy; the class error carries no guarantee here (the
    # conjugate class fits the same measurements)
    assert np.isfinite(result.residual)
    assert result.diagnostics["best_misfit"] <= 0.25 * ysq
    assert result.d2_error is not None


@pytest.mark.parametrize(
    "y, opts",
    [
        # an explicit start with a1 <= 0 once ran step 1 at lam = mu < 0
        (-np.ones(12), IRLSOptions(x0=np.array([1.0, 0.5j, -0.2]))),
        # a lambda_min above IRLS_RHO a1 once ran step 1 below that floor
        (None, IRLSOptions(lambda_min=1e3)),
    ],
)
def test_irls_weights_respect_their_floors_from_the_first_step(y, opts):
    frame = random_frame(3, 12, "gaussian", seed=0)
    if y is None:
        y = intensity_map(frame, unit_signal(3, 0))
    result = irls(frame, y, opts)
    log = result.diagnostics["outer_log"]
    assert log
    assert all(e["lam"] >= opts.lambda_min and e["mu"] >= recon.IRLS_MU_MIN for e in log)


def _irls_with_and_without_stall_rule(monkeypatch, sigma):
    """IRLS on n=8, m=64 Gaussian frames with unit signals (10 seeds), then
    the same solves with the stall rule out of reach; awgn of std sigma, or
    exact measurements when sigma is None."""
    problems = []
    for seed in range(10):
        frame = random_frame(8, 64, "gaussian", seed=[190, seed])
        x = unit_signal(8, 190 + seed)
        if sigma is None:
            y = intensity_map(frame, x)
        else:
            y = simulate_measurements(frame, x, NoiseModel("awgn", sigma=sigma, seed=[190, seed, 1]))
        problems.append((frame, x, y))
    stalled = [irls(frame, y, x_true=x) for frame, x, y in problems]
    monkeypatch.setattr(recon, "IRLS_STALL_STEPS", IRLSOptions().max_outer + 1)
    return list(zip(stalled, [irls(frame, y, x_true=x) for frame, x, y in problems]))


@pytest.mark.parametrize("sigma", [0.005, 0.01, 0.02])
def test_irls_stops_on_stagnation_under_noise(sigma, monkeypatch):
    for result, full in _irls_with_and_without_stall_rule(monkeypatch, sigma):
        assert full.iterations == IRLSOptions().max_outer and full.stop_reason == "max_iter"
        assert result.stop_reason == "stagnation" and not result.converged
        assert result.iterations < 150
        assert result.d2_error == pytest.approx(full.d2_error, rel=1e-6)


def test_irls_noiseless_solves_still_stop_on_tolerance(monkeypatch):
    pairs = _irls_with_and_without_stall_rule(monkeypatch, None)
    for result, full in pairs:
        if full.converged:
            # the stall rule never fires before the misfit test
            assert result.stop_reason == "tol" and result.converged
            assert result.iterations == full.iterations
            np.testing.assert_array_equal(result.x_hat, full.x_hat)
        else:
            # a solve that never reaches IRLS_EPS stalls on the same best iterate
            assert result.stop_reason == "stagnation" and result.iterations < full.iterations
            assert result.d2_error == pytest.approx(full.d2_error, rel=1e-6)
    assert sum(result.stop_reason == "tol" for result, _ in pairs) >= 9


# ---------------------------------------------------------------------------
# pinned outputs of the vector solvers
# ---------------------------------------------------------------------------

_PINS = pathlib.Path(__file__).parent / "data" / "vector_solver_pins.json"


def _sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def test_vector_solvers_match_pinned_outputs():
    # every GS, WF and IRLS solve of a noisy n = 8, m = 64 panel (awgn sigma
    # 0.005, 0.01 and 0.02, three unit signals, default options) against
    # recorded outputs: iterations, stop reason, residual, the trace and
    # IRLS's criterion log (by SHA-256 of their float64 bytes) and x_hat, all
    # bit for bit, so a rewrite of the steps that changes any floating-point
    # operation shows here
    pins = json.loads(_PINS.read_text())
    assert len(pins) == 27
    frame = random_frame(8, 64, "gaussian", seed=[8, 64])
    for pin in pins:
        s, sigma = pin["signal"], pin["sigma"]
        noise = rng_from_seed([301, s, int(sigma * 1000)]).normal(size=64)
        y = intensity_map(frame, unit_signal(8, 300 + s)) + sigma * noise
        result = getattr(recon, pin["solver"])(frame, y)
        case = (pin["solver"], s, sigma)
        assert (result.iterations, result.stop_reason) == (pin["iterations"], pin["stop_reason"]), case
        assert result.residual == pin["residual"], case
        assert _sha256(result.trace) == pin["trace_sha256"], case
        assert result.x_hat.tolist() == [complex(re, im) for re, im in pin["x_hat"]], case
        if "outer_log_sha256" in pin:
            log = [[e["J_sub_before"], e["J_sub_after"], e["J_misfit"]]
                   for e in result.diagnostics["outer_log"]]
            assert _sha256(log) == pin["outer_log_sha256"], case


# ---------------------------------------------------------------------------
# phase covariance across solvers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rotate", [1j, np.exp(0.77j)])
def test_phase_covariance(rotate):
    frame = random_frame(4, 24, "gaussian", seed=20)
    x = unit_signal(4, 20)
    y = intensity_map(frame, x)
    x0 = spectral_init(frame, y, mode="wf").x0

    r_gs = gerchberg_saxton(frame, y, GSOptions(x0=x0))
    r_gs_rot = gerchberg_saxton(frame, y, GSOptions(x0=rotate * x0))
    assert quotient_distance(r_gs.x_hat, r_gs_rot.x_hat) <= 1e-8

    r_wf = wirtinger_flow(frame, y, WirtingerOptions(x0=x0))
    r_wf_rot = wirtinger_flow(frame, y, WirtingerOptions(x0=rotate * x0))
    assert quotient_distance(r_wf.x_hat, r_wf_rot.x_hat) <= 1e-6

    r_ir = irls(frame, y, IRLSOptions(x0=x0))
    r_ir_rot = irls(frame, y, IRLSOptions(x0=rotate * x0))
    assert quotient_distance(r_ir.x_hat, r_ir_rot.x_hat) <= 1e-6


def test_lifted_solvers_are_scale_equivariant():
    # no tolerance or floor of lifted_linear, PhaseLift or Gerchberg-Saxton
    # has units, so scaling y by 4^k scales X_hat by 4^k and x_hat by 2^k
    # exactly, and leaves the steps and the stop reason unchanged, down to
    # 2^-120 and up to 2^120; PhaseLift runs below (m = 8) and above (m = 12)
    # n^2 = 9, and GS also at n = 4, m = 32
    def solves(frame, y):
        if frame.n == 3:
            yield "lifted_linear", lifted_linear(frame, y) if frame.m >= 9 else None
            for fit in ("l2", "l1_reweighted"):
                yield fit, phaselift(frame, y, PhaseLiftOptions(fit=fit))
        yield "gerchberg_saxton", gerchberg_saxton(frame, y)

    frames = [random_frame(3, m, "gaussian", seed=[160, m]) for m in (8, 12)]
    for frame in frames + [random_frame(4, 32, "gaussian", seed=3)]:
        n, m = frame.n, frame.m
        exact = intensity_map(frame, unit_signal(n, m))
        for y in (exact, exact + 0.01 * rng_from_seed([161, m]).normal(size=m)):
            base = dict(solves(frame, y))
            for k in (-60, -40, -20, -4, 4, 20, 40, 60):
                for name, result in solves(frame, 4.0**k * y):
                    ref = base[name]
                    if ref is None:
                        continue
                    if ref.X_hat is not None:
                        assert np.array_equal(result.X_hat, 4.0**k * ref.X_hat), (name, m, k)
                    assert np.array_equal(result.x_hat, 2.0**k * ref.x_hat), (name, m, k)
                    assert result.stop_reason == ref.stop_reason, (name, m, k)
                    assert result.iterations == ref.iterations, (name, m, k)
                    assert result.diagnostics.get("stage_iterations") == ref.diagnostics.get(
                        "stage_iterations"), (name, m, k)


# options that end each solver on its budget before any tolerance test holds
# on noisy measurements (on exact ones PhaseLift's least-squares start on an
# injective frame is already xx*, and its first step meets the tolerance)
_ONE_STEP = {
    "phaselift": {"max_outer": 1, "inner_max": 1},
    "gerchberg_saxton": {"max_iter": 1},
    "wirtinger_flow": {"max_iter": 1},
    "irls": {"max_outer": 1},
}


@pytest.mark.parametrize("name", sorted(recon.SOLVERS))
def test_stop_reason_of_each_solver(name):
    frame = random_frame(3, 12, "gaussian", seed=6)
    y = intensity_map(frame, unit_signal(3, 6))
    solver = getattr(recon, name)
    result = solver(frame, y)
    assert result.stop_reason == "tol" and result.converged
    cls = recon.SOLVERS[name]
    if cls is not None:
        noisy = y + 0.05 * rng_from_seed(3).normal(size=12)
        capped = solver(frame, noisy, cls(**_ONE_STEP[name]))
        assert capped.stop_reason == "max_iter" and not capped.converged


def _stop_cases():
    """(solver name, frame, y, options or None) covering every stop reason."""
    frame = random_frame(3, 12, "gaussian", seed=6)
    x = unit_signal(3, 6)
    exact = intensity_map(frame, x)
    noisy = exact + 0.05 * rng_from_seed(3).normal(size=12)
    cases = []
    for name, cls in sorted(recon.SOLVERS.items()):
        cases += [(name, frame, exact, None), (name, frame, noisy, None)]
        if cls is not None:
            cases.append((name, frame, noisy, cls(**_ONE_STEP[name])))
    tie_frame = random_frame(2, 6, "gaussian", seed=4)
    cases += [
        ("lifted_linear", tie_frame, lifted_map(tie_frame, np.eye(2)), None),
        ("wirtinger_flow", frame, exact, WirtingerOptions(x0=np.zeros(3))),
        ("irls", frame, -np.ones(12), None),
    ]
    return cases


def test_converged_means_stop_reason_tol_in_every_solver():
    reasons = set()
    for name, frame, y, opts in _stop_cases():
        args = () if opts is None else (opts,)
        result = getattr(recon, name)(frame, y, *args)
        assert result.converged == (result.stop_reason == "tol"), (name, result.stop_reason)
        with pytest.raises(AttributeError):
            result.converged = not result.converged
        reasons.add(result.stop_reason)
    assert reasons == {"tol", "max_iter", "stagnation", "degenerate"}


def test_gerchberg_saxton_stop_reasons():
    frame = random_frame(4, 24, "gaussian", seed=20)
    x = unit_signal(4, 20)
    noisy = intensity_map(frame, x) + 0.05 * rng_from_seed(3).normal(size=24)
    stalled = gerchberg_saxton(frame, noisy)
    assert stalled.stop_reason == "stagnation" and not stalled.converged
    assert stalled.iterations < GSOptions().max_iter
    exact = gerchberg_saxton(frame, np.zeros(24))
    assert exact.stop_reason == "tol" and exact.iterations == 1


@pytest.mark.parametrize("length", [1, 13])  # m = 12
@pytest.mark.parametrize("name", sorted(recon.SOLVERS))
def test_solvers_reject_wrong_measurement_count(name, length):
    # with an explicit start, GS and WF never build the spectral start, so
    # the solver itself must check y
    frame = random_frame(3, 12, "gaussian", seed=22)
    y = np.full(length, 0.5)
    cls = recon.SOLVERS[name]
    if name in ("gerchberg_saxton", "wirtinger_flow"):
        args = (cls(x0=np.ones(3, dtype=complex)),)
    else:
        args = () if cls is None else (cls(),)
    with pytest.raises(DimensionMismatch):
        getattr(recon, name)(frame, y, *args)


@pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
@pytest.mark.parametrize("cls", [recon.GSOptions, recon.WirtingerOptions, recon.IRLSOptions])
def test_solvers_reject_wrong_start_shape(cls, shape):
    # a length-2 IRLS start on an n=3 frame once escaped as numpy's ValueError
    frame = random_frame(3, 12, "gaussian", seed=22)
    name = next(key for key, value in recon.SOLVERS.items() if value is cls)
    with pytest.raises(DimensionMismatch, match="start"):
        getattr(recon, name)(frame, np.full(12, 0.5), cls(x0=np.ones(shape)))



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("start", [False, True])
@pytest.mark.parametrize("name", sorted(recon.SOLVERS))
def test_solvers_reject_non_finite_measurements(name, start, bad):
    # a NaN or inf once reached LAPACK as a misleading NoConvergence, or, with
    # an explicit start, ran GS and WF to max_iter on NaN iterates
    frame = random_frame(3, 12, "gaussian", seed=1)
    y = intensity_map(frame, unit_signal(3, 1))
    y[[4, 9]] = bad
    cls = recon.SOLVERS[name]
    if start and cls is not None and "x0" in cls.__dataclass_fields__:
        args = (cls(x0=unit_signal(3, 2)),)
    else:
        args = () if cls is None else (cls(),)
    with pytest.raises(NonFiniteMeasurement, match="measurement 4 is"):
        getattr(recon, name)(frame, y, *args)
    assert issubclass(NonFiniteMeasurement, FramePRError)
