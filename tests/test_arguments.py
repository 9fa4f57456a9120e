"""The two argument rules every entry point shares.

A count is an integer from a floor to an optional cap, and a level or
constant is a finite real above 0 (at least 0 for IRLS's lambda_min).
Neither takes a bool or numpy.bool_: bool is an int, so True used to pass
as 1.  A config that breaks either rule is a ConfigError naming the key.
"""

import numpy as np
import pytest

import framepr as fp
from framepr import ConfigError, injectivity, load_config, recon
from framepr.injectivity import _COUNTS

FRAME = fp.random_frame(2, 8, seed=0)  # certified on a 90,822-point net
X = np.array([1.0, 0.5j])
REAL = fp.make_frame(np.array([[1.0]]), field="real")  # a 1-vector frame of R^1

# argument name -> the entry point called with a value for it
ENTRY_POINTS = {
    "PhaseLiftOptions.max_outer": lambda v: recon.PhaseLiftOptions(max_outer=v),
    "PhaseLiftOptions.inner_max": lambda v: recon.PhaseLiftOptions(inner_max=v),
    "GSOptions.max_iter": lambda v: recon.GSOptions(max_iter=v),
    "GSOptions.x0": lambda v: recon.GSOptions(x0=v),
    "WirtingerOptions.max_iter": lambda v: recon.WirtingerOptions(max_iter=v),
    "WirtingerOptions.x0": lambda v: recon.WirtingerOptions(x0=v),
    "IRLSOptions.lambda_min": lambda v: recon.IRLSOptions(lambda_min=v),
    "IRLSOptions.max_outer": lambda v: recon.IRLSOptions(max_outer=v),
    "IRLSOptions.x0": lambda v: recon.IRLSOptions(x0=v),
    "bessel_ratio_weight.a": lambda v: fp.bessel_ratio_weight(v),
    "NoiseModel.sigma": lambda v: fp.NoiseModel(kind="awgn", sigma=v),
    "NoiseModel.rho": lambda v: fp.NoiseModel(kind="coefficient", rho=v),
    "fisher_awgn.sigma": lambda v: fp.fisher_awgn(FRAME, X, v),
    "fisher_coefficient_noise.rho": lambda v: fp.fisher_coefficient_noise(FRAME, X, v),
    "crlb_upper_bound.sigma": lambda v: fp.crlb_upper_bound(FRAME, X, X, v, 0.1),
    "crlb_upper_bound.a0": lambda v: fp.crlb_upper_bound(FRAME, X, X, 0.1, v),
    "certify_retrievable_complex.budget": lambda v: fp.certify_retrievable_complex(FRAME, budget=v),
    "fourth_moment_max.n_starts": lambda v: fp.fourth_moment_max(FRAME, n_starts=v),
    "stability_bounds_real.n_starts": lambda v: fp.stability_bounds_real(REAL, n_starts=v),
    "sampled_stability_bounds.samples": lambda v: fp.sampled_stability_bounds(FRAME, samples=v),
    "sphere_net.n_points": lambda v: fp.sphere_net(4, v),
    "bloch_fibonacci_net.n_points": lambda v: injectivity.bloch_fibonacci_net(v),
    "min_measurement_count.n": lambda v: fp.min_measurement_count(v),
    "random_frame.n": lambda v: fp.random_frame(v, 3),
    "random_frame.m": lambda v: fp.random_frame(1, v),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_refuses_booleans(entry):
    name = entry.split(".")[1]
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match=name):
            ENTRY_POINTS[entry](flag)


BASE = {
    "task": "reconstruct",
    "frame": {"ensemble": "gaussian", "n": 2, "m": 6, "seed": 3},
    "algorithms": [{"name": "lifted_linear"}],
}
SWEEP = {"task": "sweep", "sweep": {"parameter": "sigma", "values": [0.1]}}


def _solver(name: str, key: str) -> dict:
    return {"algorithms": [{"name": name, "options": {key: True}}]}


# the key a ConfigError names -> the config patch that sets it to true
CONFIG_KEYS = {
    "trials": {"trials": True},
    "seed": {"seed": True},
    "success_threshold": {"success_threshold": True},
    "signal.norm": {"signal": {"kind": "gaussian", "norm": True}},
    "sweep.values": {**SWEEP, "sweep": {"parameter": "sigma", "values": [0.1, True]}},
    "noise.sigma": {"noise": {"kind": "awgn", "sigma": True}},
    "noise.rho": {"noise": {"kind": "coefficient", "rho": True}},
    "options.budget": {"options": {"budget": True}},
    "options.n_starts": {"options": {"n_starts": True}},
    "options.samples": {"options": {"samples": True}},
    "frame.n": {"frame": {"ensemble": "gaussian", "n": True, "m": 6}},
    "frame.m": {"frame": {"ensemble": "gaussian", "n": 1, "m": True}},
    "frame.seed": {"frame": {"ensemble": "gaussian", "n": 2, "m": 6, "seed": True}},
    "max_outer": _solver("phaselift", "max_outer"),
    "inner_max": _solver("phaselift", "inner_max"),
    "max_iter": _solver("wirtinger_flow", "max_iter"),
    "lambda_min": _solver("irls", "lambda_min"),
    "x0": _solver("gerchberg_saxton", "x0"),
}


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_config_refuses_booleans(key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        load_config({**BASE, **CONFIG_KEYS[key]})


class _Reached(Exception):
    """The work behind an argument check began."""


def _reached(*args, **kwargs):
    raise _Reached


# argument -> its cap
LIBRARY_CAPS = {
    "PhaseLiftOptions.max_outer": recon._STAGE_CAP,
    "PhaseLiftOptions.inner_max": recon._STAGE_CAP,
    "GSOptions.max_iter": recon._STEP_CAP,
    "WirtingerOptions.max_iter": recon._STEP_CAP,
    "IRLSOptions.max_outer": recon._STAGE_CAP,
    "certify_retrievable_complex.budget": _COUNTS["budget"][1],
    "fourth_moment_max.n_starts": _COUNTS["n_starts"][1],
    "stability_bounds_real.n_starts": _COUNTS["n_starts"][1],
    "sampled_stability_bounds.samples": _COUNTS["samples"][1],
}
# work at these caps takes seconds or hundreds of MB, so it stops as it begins
_STOPPED = {"fourth_moment_max.n_starts", "stability_bounds_real.n_starts", "sampled_stability_bounds.samples"}


@pytest.mark.parametrize("entry", sorted(LIBRARY_CAPS))
def test_library_cap_is_inclusive(entry, monkeypatch):
    # the config side of every cap: test_harness.py's test_every_count_is_capped
    cap, call = LIBRARY_CAPS[entry], ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=str(cap)):
        call(cap + 1)
    if entry in _STOPPED:
        monkeypatch.setattr(injectivity, "_multistart_extremum", _reached)
        monkeypatch.setattr(injectivity, "rng_from_seed", _reached)
        with pytest.raises(_Reached):
            call(cap)
    else:
        call(cap)
