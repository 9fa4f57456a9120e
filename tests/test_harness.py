import hashlib
import pathlib
import json

import numpy as np
import pytest

from framepr import (
    ConfigError,
    compute_aggregates,
    load_config,
    run_experiment,
    save_frame,
    random_frame,
    write_csv,
)
from framepr import cli, harness, recon
from framepr.harness import COUNT_CAPS, build_frame, load_report, report_from_dict
from framepr.injectivity import _COUNTS

BASE = {
    "task": "reconstruct",
    "frame": {"ensemble": "gaussian", "n": 2, "m": 6, "seed": 3},
    "trials": 3,
    "seed": 11,
    "algorithms": [{"name": "lifted_linear"}],
}


def test_load_config_defaults():
    cfg = load_config(BASE)
    assert cfg["noise"] == {"kind": "none"}
    assert cfg["success_threshold"] == 1e-5
    assert cfg["schema_version"] == 1


@pytest.mark.parametrize(
    "patch",
    [
        {"task": "unknown"},
        {"trials": 0},
        {"frame": None},
        {"algorithms": [{"name": "magic"}]},
        {"noise": {"kind": "laplace"}},
        {"task": "sweep"},  # sweep without a sweep section
        {"task": "sweep", "sweep": {"parameter": "mu", "values": [0.1]}},
        {"algorithms": [{"name": "wirtinger_flow", "options": {"max_iter": 0}}]},
        {"algorithms": [{"name": "phaselift", "options": {"bogus": 1}}]},
        {"algorithms": [{"name": "lifted_linear", "options": {"rank_tol": 1e-8}}]},
        {"trials": "three"},
        {"options": {"budget": "lots"}},
        {"options": {"n_starts": None}},
        {"noise": {"kind": "awgn"}},  # reconstruct without sigma
        {"noise": {"kind": "coefficient", "rho": 0}},
        {"task": "sweep", "noise": {"kind": "awgn"}, "sweep": {"parameter": "rho", "values": [0.1]}},
        {"task": "crlb", "noise": {"kind": "coefficient"}, "sweep": {"parameter": "sigma", "values": [0.1]}},
        {"task": "sweep", "sweep": {"parameter": "sigma", "values": [0]}},
        {"task": "crlb", "sweep": {"parameter": "sigma", "values": []}},
        {"task": "sweep", "sweep": {"parameter": "rho", "values": ["0.1"]}},
        {"signal": {"kind": "gaussian", "norm": "big"}},
        {"signal": {"kind": "gaussian", "norm": 0}},
        {"success_threshold": "tight"},
        {"algorithms": ["lifted_linear"]},
        {"seed": "x"},
        {"algorithms": [{"name": "wirtinger_flow", "options": {"seed": 3}}]},
        # JSON true is a Python bool, which is an int subclass
        {"trials": True},
        {"seed": True},
        {"success_threshold": True},
        {"signal": {"kind": "gaussian", "norm": True}},
        {"options": {"budget": True}},
        {"task": "sweep", "sweep": {"parameter": "sigma", "values": [True]}},
        {"algorithms": [{"name": "phaselift", "options": {"max_outer": True, "inner_max": True}}]},
        # values json cannot write once escaped as a bare TypeError
        {"frame": {"ensemble": "gaussian", "n": np.int64(2), "m": 6}},
        {"seed": np.int64(3)},
        {"algorithms": [{"name": "wirtinger_flow", "options": {"max_iter": True}}]},
        {"algorithms": [{"name": "irls", "options": {"max_outer": True}}]},
        # iteration budgets are integers: range() would reject a float later
        {"algorithms": [{"name": "phaselift", "options": {"max_outer": 2.5}}]},
        {"algorithms": [{"name": "phaselift", "options": {"inner_max": 100.0}}]},
        {"algorithms": [{"name": "gerchberg_saxton", "options": {"max_iter": 50.5}}]},
        {"algorithms": [{"name": "wirtinger_flow", "options": {"max_iter": 1e3}}]},
        {"algorithms": [{"name": "irls", "options": {"max_outer": 40.0}}]},
        {"algorithms": [{"name": "irls", "options": [1]}]},
        # task options are samples/n_starts/budget only; the caps are constants
        {"options": {"n_start": 3}},
        {"options": {"eps0": 0.5}},
        {"options": {"n_cap": 3}},
        {"options": {"partition_cap": 24}},
        # each task option has a lower bound
        {"options": {"budget": 0}},
        {"options": {"budget": -5}},
        {"options": {"n_starts": -1}},
        {"options": {"samples": 1}},
        # solver parameters that are fixed constants, not options
        {"algorithms": [{"name": "phaselift", "options": {"l1_delta": 0.05}}]},
        {"algorithms": [{"name": "phaselift", "options": {"lambda0": 1.0}}]},
        {"algorithms": [{"name": "phaselift", "options": {"lambda_decay": 0.5}}]},
        {"algorithms": [{"name": "phaselift", "options": {"lambda_min": 0.0}}]},
        {"algorithms": [{"name": "gerchberg_saxton", "options": {"tol": 1e-10}}]},
        {"algorithms": [{"name": "wirtinger_flow", "options": {"tau0": 100.0}}]},
        {"algorithms": [{"name": "irls", "options": {"gamma": 0.9}}]},
        {"algorithms": [{"name": "irls", "options": {"cg_tol": 1e-12}}]},
        # regularization weights are finite, as JSON NaN would otherwise pass
        {"algorithms": [{"name": "irls", "options": {"lambda_min": float("nan")}}]},
        {"algorithms": [{"name": "irls", "options": {"lambda_min": float("inf")}}]},
        # top-level keys outside the schema are misspellings, not extensions
        {"trails": 5},
        {"sed": 4},
        # a repeated level would rerun the same seeded trials into one group
        {"task": "sweep", "sweep": {"parameter": "sigma", "values": [0.01, 0.01]}},
        # and a repeated algorithm name would merge two option sets into one group
        {"algorithms": [{"name": "wirtinger_flow", "options": {"max_iter": 5}},
                        {"name": "wirtinger_flow", "options": {"max_iter": 2000}}]},
        # every section refuses keys it does not read
        {"signal": {"kind": "gaussian", "nrom": 5}},
        {"frame": {"ensemble": "gaussian", "n": 2, "m": 6, "sede": 4}},
        {"task": "sweep", "noise": {"kind": "awgn", "sigam": 0.1}, "sweep": {"parameter": "sigma", "values": [0.1]}},
        {"task": "sweep", "sweep": {"parameter": "sigma", "values": [0.1], "valeus": [0.2]}},
        {"sweep": 5},
        {"signal": {"kind": "uniform"}},
        # a frame section names exactly one source
        {"frame": {"ensemble": "gaussian", "n": 2, "m": 6, "file": "frame.json"}},
        {"frame": {"n": 2, "m": 6}},
        # an ensemble's n, m and seed are integers with 1 <= n <= m and seed >= 0
        {"frame": {"ensemble": "gaussian", "n": 2.7, "m": 6}},
        {"frame": {"ensemble": "gaussian", "n": True, "m": 6}},
        {"frame": {"ensemble": "gaussian", "n": 3, "m": 2}},
        {"frame": {"ensemble": "gaussian", "n": 2, "m": 6, "seed": -1}},
        # and so are trials and the task options: int() would truncate 2.5 to 2
        {"trials": 2.5},
        {"options": {"samples": 100.0}},
        # a noise section holds only its kind's parameter, and none in a sweep
        {"noise": {"kind": "awgn", "sigma": 0.05, "rho": 0.3}},
        {"noise": {"kind": "none", "sigma": 0.1}},
        {"task": "sweep", "noise": {"kind": "awgn", "sigma": 0.5}, "sweep": {"parameter": "sigma", "values": [0.1]}},
        {"task": "crlb", "noise": {"kind": "awgn", "sigma": 0.5}, "sweep": {"parameter": "sigma", "values": [0.1]}},
        {"task": "crlb", "noise": {"kind": "coefficient", "rho": 0.5}, "sweep": {"parameter": "rho", "values": [0.1]}},
        # the ensemble name is checked at load, not when the frame is drawn
        {"frame": {"ensemble": "bogus", "n": 2, "m": 6}},
        # an explicit start is finite (JSON NaN parses to a float nan)
        {"algorithms": [{"name": "irls", "options": {"x0": json.loads("[NaN, 1.0]")}}]},
        # the echoed algorithm entries and inline frames hold no keys of their
        # own, so the wall-clock names appear only where a report writes them
        {"algorithms": [{"name": "lifted_linear", "timestamp": "2026-01-01T00:00:00"}]},
        {"frame": {"inline": {"n": 1, "m": 2, "vectors": [[[1, 0]], [[0, 1]]], "wall_time_s": 0.5}}},
        # budget and samples have an upper bound too: a budget of 10^9 would
        # ask for a 32 GB net
        {"options": {"budget": 10**9}},
        {"options": {"budget": _COUNTS["budget"][1] + 1}},
        {"options": {"samples": _COUNTS["samples"][1] + 1}},
        # and n_starts: each start runs up to 400 projected-gradient steps
        {"options": {"n_starts": 10**9}},
        {"options": {"n_starts": _COUNTS["n_starts"][1] + 1}},
    ],
)
def test_load_config_rejects(patch):
    cfg = dict(BASE)
    cfg.update(patch)
    with pytest.raises(ConfigError):
        load_config(cfg)


# every capped count a config sets: those only a config has (COUNT_CAPS), the
# solver budgets the options classes cap, and the task options the
# certificates and bounds cap
_CAPS = {**COUNT_CAPS, "max_iter": recon._STEP_CAP, "max_outer": recon._STAGE_CAP,
         "inner_max": recon._STAGE_CAP, **{key: high for key, (_, high) in _COUNTS.items()}}


def _with_count(key: str, value: int) -> dict:
    """BASE with the count ``key`` of ``_CAPS`` set to ``value``."""
    cfg = dict(BASE)
    if key in ("n", "m"):
        n, m = (value, COUNT_CAPS["m"]) if key == "n" else (2, value)
        cfg["frame"] = {"ensemble": "gaussian", "n": n, "m": m}
    elif key == "trials":
        cfg["trials"] = value
    elif key == "sweep.values":
        cfg.update(task="sweep", noise={"kind": "awgn"},
                   sweep={"parameter": "sigma", "values": [0.01 * (k + 1) for k in range(value)]})
    elif key in _COUNTS:
        cfg["options"] = {key: value}
    else:
        solver = {"max_iter": "gerchberg_saxton", "max_outer": "irls", "inner_max": "phaselift"}[key]
        cfg["algorithms"] = [{"name": solver, "options": {key: value}}]
    return cfg


@pytest.mark.parametrize("key", sorted(_CAPS))
def test_every_count_is_capped(key, tmp_path):
    cap = _CAPS[key]
    load_config(_with_count(key, cap))
    cfg = _with_count(key, cap + 1)
    with pytest.raises(ConfigError, match=str(cap)):
        load_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["sweep" if cfg["task"] == "sweep" else "recon", "--config", str(path)]) == 2


def test_load_config_accepts_option_lower_bounds():
    cfg = dict(BASE, options={"budget": 1, "n_starts": 0, "samples": 2})
    assert load_config(cfg)["options"] == cfg["options"]


@pytest.mark.parametrize(
    "task,frame,options",
    [
        ("certify", {"ensemble": "gaussian", "n": 2, "m": 8, "seed": 1}, {"budget": 1}),
        ("bounds", {"ensemble": "real_gaussian", "n": 3, "m": 7, "seed": 1}, {"n_starts": 0, "samples": 2}),
        ("bounds", {"ensemble": "gaussian", "n": 2, "m": 8, "seed": 1}, {"n_starts": 0, "samples": 2}),
    ],
    ids=["certify_budget", "bounds_real", "bounds_complex"],
)
def test_run_experiment_runs_option_lower_bounds(task, frame, options):
    # each documented lower bound runs a whole experiment, not only load_config
    result = run_experiment({"task": task, "frame": frame, "seed": 0, "options": options}).result
    if task == "certify":
        assert result["verdict"] == "undecided" and result["nets_tested"] == 0
        assert result["notes"] == "net budget exhausted"
        return
    assert result["empirical"]["details"]["samples"] == 2
    assert all(np.isfinite(result["empirical"][k]) for k in ("A0", "B0", "a0", "b0"))
    if frame["ensemble"] == "real_gaussian":
        assert result["certified"]["details"]["n_starts"] == 0
    else:
        assert np.isfinite(result["b0_multistart"])


def test_load_config_rejects_non_object_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([BASE]))
    with pytest.raises(ConfigError):
        load_config(str(path))


class _Count(int):
    pass


class _Name(str):
    pass


def _same_json(a, b) -> bool:
    """Equal values of the same types, dict keys in the same order, NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b or (a != a and b != b)


_INLINE_MIXED = {"n": 2, "m": 4, "field": "complex",
                "vectors": [([1.0, 0.0], (0.0, 0.5)), [[0.0, 1.0], [np.float64(2.0), -0.0]],
                            [[1, 0], [0, 1]], [[float("nan"), 0.0], [0.25, np.float64("inf")]]]}


@pytest.mark.parametrize(
    "config",
    [
        BASE,
        dict(BASE, trials=_Count(2), seed=_Count(4), algorithms=({"name": "lifted_linear"},)),
        dict(BASE, frame={"inline": _INLINE_MIXED}),
        dict(BASE, task="sweep", noise={"kind": "awgn"},
             sweep={"parameter": "sigma", "values": (np.float64(0.01), 0.1, 1)}),
        dict(BASE, success_threshold=np.float64(1e-3), signal={"kind": "gaussian", "norm": np.float64(2.0)},
             algorithms=[{"name": "irls", "options": {"max_outer": _Count(5), "x0": (1.0, np.float64(0.5))}}]),
        dict(BASE, task=_Name("reconstruct"), noise={"kind": _Name("awgn"), "sigma": 0.1},
             algorithms=[{"name": _Name("lifted_linear")}]),
    ],
    ids=["base", "int_subclass_and_tuple", "inline_tuples_numpy_floats_nan", "sweep_tuple", "numpy_floats",
         "str_subclasses"],
)
def test_load_config_copies_like_a_json_round_trip(config):
    cfg = load_config(config)
    raw = json.loads(json.dumps(config))
    assert _same_json({key: cfg[key] for key in raw}, raw)


@pytest.mark.parametrize(
    "patch",
    [
        {"seed": np.int64(3)},
        {"frame": {"inline": dict(_INLINE_MIXED, m=np.int64(4))}},
        {"algorithms": [{"name": "irls", "options": {"x0": [1.0, np.float32(0.5)]}}]},
        {"sweep": {"parameter": "sigma", "values": {0.1, 0.2}}},
        {"signal": {"kind": b"gaussian"}},
        {"signal": {"kind": "gaussian", (1, 2): 3}},
        {"algorithms": [{"name": "lifted_linear", "options": {"x": 1j}}]},
    ],
)
def test_load_config_refuses_what_json_cannot_write(patch):
    with pytest.raises(ConfigError, match="not JSON data"):
        load_config(dict(BASE, **patch))


def test_load_config_refuses_a_config_inside_itself():
    config = dict(BASE, algorithms=[{"name": "lifted_linear"}])
    config["algorithms"][0]["options"] = config
    with pytest.raises(ConfigError, match="not JSON data"):
        load_config(config)
    loop = [1.0]
    loop.append(loop)
    with pytest.raises(ConfigError, match="not JSON data"):
        load_config(dict(BASE, frame={"inline": dict(_INLINE_MIXED, vectors=loop)}))
    shared = {"name": "lifted_linear"}  # repeated, not nested: JSON writes it twice
    assert load_config(dict(BASE, algorithms=[shared]))["algorithms"] == [shared]


def test_report_config_shares_nothing_with_the_callers_config():
    inline = {"n": 2, "m": 4, "field": "complex",
              "vectors": [[[1.0, 0.0], [0.0, 0.5]], [[0.0, 1.0], [2.0, 0.0]], [[1, 0], [0, 1]], [[0.5, 0.0], [0.25, 1.0]]]}
    config = dict(BASE, frame={"inline": inline},
                  algorithms=[{"name": "irls", "options": {"max_outer": 5, "x0": [1.0, 0.5]}}])
    report = run_experiment(config)
    echo = report.to_json()

    def containers(value):
        if isinstance(value, (dict, list)):
            yield id(value)
            for item in value.values() if isinstance(value, dict) else value:
                yield from containers(item)

    assert not set(containers(config)) & set(containers(report.config))
    config["frame"]["inline"]["vectors"][0][0][0] = 7.0
    config["algorithms"][0]["options"]["x0"].append(2.0)
    config["algorithms"].append({"name": "lifted_linear"})
    config["seed"] = 12
    assert report.to_json() == echo


def test_build_frame_sources(tmp_path):
    frame = random_frame(2, 5, "gaussian", seed=9)
    path = tmp_path / "f.json"
    save_frame(frame, path)
    from_file = build_frame({"file": str(path)})
    np.testing.assert_array_equal(from_file.vectors, frame.vectors)
    from_ens = build_frame({"ensemble": "gaussian", "n": 2, "m": 5, "seed": 9})
    np.testing.assert_array_equal(from_ens.vectors, frame.vectors)
    with pytest.raises(ConfigError):
        build_frame({})


@pytest.mark.parametrize(
    "spec",
    [
        {"inline": {"n": 1, "m": 2, "vectors": [[[1, 0, 5]], [[0, 1, 5]]]}},  # [re, im, extra]
        {"inline": {"n": 1, "vectors": [[[1, 0]], [[0, 1]]]}},  # no "m"
        {"inline": {"n": 1, "m": 2, "vectors": None}},
        {"ensemble": "gaussian", "n": None, "m": 5},
    ],
)
def test_build_frame_malformed_is_config_error(spec, tmp_path):
    with pytest.raises(ConfigError):
        build_frame(spec)
    if "inline" in spec:  # the same description read from a frame file
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(spec["inline"]))
        with pytest.raises(ConfigError):
            build_frame({"file": str(path)})


def test_reconstruct_report_structure():
    report = run_experiment(BASE)
    assert report.task == "reconstruct"
    assert len(report.records) == 3
    rec = report.records[0]
    assert rec["algorithm"] == "lifted_linear"
    assert rec["converged"] is True
    assert "wall_time_s" in rec
    agg = report.aggregates["lifted_linear"]
    assert agg["count"] == 3
    assert agg["success_rate"] == 1.0


@pytest.mark.parametrize("name", sorted(recon.SOLVERS))
def test_default_reconstruct_report_serializes(name):
    # a default PhaseLift solve ends in its lambda = 0 stage, whose converged
    # flag must be a Python bool for the report to be written
    cfg = dict(BASE, frame={"ensemble": "gaussian", "n": 3, "m": 18, "seed": 1}, trials=1,
               algorithms=[{"name": name}])
    report = run_experiment(cfg)
    (rec,) = report.records
    assert "error" not in rec and isinstance(rec["converged"], bool)
    assert rec["stop_reason"] in ("tol", "max_iter", "stagnation", "degenerate")
    assert json.loads(report.to_json())["records"][0]["algorithm"] == name
    assert len(report.deterministic_digest()) == 64


def test_aggregate_quantiles_match_two_quantile_calls():
    # compute_aggregates takes q05 and q95 from one np.quantile call; each
    # must keep the bits of its own call
    rng = np.random.default_rng(25)
    records = []
    for g in range(300):
        size = int(rng.integers(1, 61))
        d2 = 10.0 ** rng.uniform(-16, 3, size=size) * rng.choice([1.0, 0.0], size=size, p=[0.95, 0.05])
        records += [{"algorithm": f"a{g}", "d2_rel": float(v), "residual": 0.0, "iterations": 1}
                    for v in d2]
    aggregates = compute_aggregates(records, 1e-5)
    for g in range(300):
        d2 = np.array([r["d2_rel"] for r in records if r["algorithm"] == f"a{g}"])
        entry = aggregates[f"a{g}"]
        assert entry["d2_rel_q05"] == float(np.quantile(d2, 0.05))
        assert entry["d2_rel_q95"] == float(np.quantile(d2, 0.95))


def _numpy_aggregates(records: list, threshold: float) -> dict:
    """compute_aggregates as it was written with numpy's order-statistic
    and mean functions: the reference the exact rewrite must reproduce."""
    groups: dict = {}
    for rec in records:
        key = rec["algorithm"]
        if rec.get("sweep_value") is not None:
            key = f"{rec['algorithm']}@{rec['sweep_value']}"
        group = groups.setdefault(key, {"errors": 0, "records": []})
        if "error" in rec:
            group["errors"] += 1
        else:
            group["records"].append(rec)
    out = {}
    for key, group in sorted(groups.items()):
        recs = group["records"]
        entry = {"count": len(recs), "errors": group["errors"]}
        if recs:
            d2 = np.array([r["d2_rel"] for r in recs], dtype=float)
            res = np.array([r["residual"] for r in recs], dtype=float)
            iters = np.array([r["iterations"] for r in recs], dtype=float)
            q05, q95 = np.quantile(d2, [0.05, 0.95])
            entry.update(
                d2_rel_mean=float(np.mean(d2)),
                d2_rel_median=float(np.median(d2)),
                d2_rel_q05=float(q05),
                d2_rel_q95=float(q95),
                success_rate=float(np.mean(d2 <= threshold)),
                residual_mean=float(np.mean(res)),
                iterations_mean=float(np.mean(iters)),
            )
        out[key] = entry
    return out


def _bits(aggregates: dict) -> dict:
    """Each value with its type and, for a float, its bit pattern (every NaN alike)."""
    def bits(value):
        if isinstance(value, float):
            return "nan" if value != value else value.hex() + repr(np.copysign(1.0, value))
        return type(value).__name__, value
    return {key: {name: bits(value) for name, value in entry.items()} for key, entry in aggregates.items()}


def _group_values(rng, size: int, kind: int) -> np.ndarray:
    """d2_rel values of one group: spread from 1e-16 to 1e3, then (by kind)
    ties, zeros, or NaN and infinities at random places."""
    values = 10.0 ** rng.uniform(-16, 3, size=size)
    if kind == 1:  # ties: a few distinct values, repeated
        values = rng.choice(values[: max(1, size // 5)], size=size)
    elif kind == 2:
        values[rng.random(size) < 0.3] = 0.0
    elif kind == 3:
        for _ in range(int(rng.integers(1, 4))):
            values[rng.integers(size)] = rng.choice([np.inf, -np.inf, 0.0])
    elif kind == 4:
        values[rng.integers(size)] = np.nan
    return values


def test_aggregates_match_the_numpy_reference_bit_for_bit():
    # group sizes 1-300 cross numpy's pairwise-sum blocks at 8 and 128
    rng = np.random.default_rng(31)
    for size in range(1, 301):
        records = []
        for kind in range(5):
            records += [{"algorithm": "a", "sweep_value": kind, "d2_rel": float(v),
                         "residual": float(r), "iterations": int(k)}
                        for v, r, k in zip(_group_values(rng, size, kind), 10.0 ** rng.uniform(-8, 2, size),
                                           rng.integers(0, 500, size))]
        records.append({"algorithm": "b", "error": "NoConvergence: x"})
        threshold = float(10.0 ** rng.uniform(-12, 2))
        with np.errstate(invalid="ignore"):  # inf - inf in a mean or interpolation
            assert _bits(compute_aggregates(records, threshold)) == _bits(_numpy_aggregates(records, threshold)), size


@pytest.mark.parametrize("values", [[-0.0], [-0.0, -0.0], [np.inf], [-np.inf], [np.inf, np.inf],
                                    [-np.inf, np.inf], [np.nan], [5e-324, -1e-323], [-5e-324, -5e-324, 0.0]])
def test_aggregates_match_the_numpy_reference_at_signed_zeros_and_infinities(values):
    records = [{"algorithm": "a", "d2_rel": v, "residual": 1.0, "iterations": 1} for v in values]
    with np.errstate(invalid="ignore"):
        assert _bits(compute_aggregates(records, 1.0)) == _bits(_numpy_aggregates(records, 1.0))


def test_aggregates_recomputable():
    report = run_experiment(BASE)
    recomputed = compute_aggregates(report.records, report.config["success_threshold"])
    assert recomputed == report.aggregates


def test_single_thread_bitwise_determinism():
    r1 = run_experiment(BASE)
    r2 = run_experiment(BASE)
    assert r1.deterministic_digest() == r2.deterministic_digest()
    # and the non-stripped dicts differ only in volatile fields
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("timestamp"), d2.pop("timestamp")
    for rec in d1["records"] + d2["records"]:
        rec.pop("wall_time_s")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def _digest_stripping_every_level(report):
    """The digest with "timestamp" and "wall_time_s" removed wherever they
    occur: the reference for the two-level strip of deterministic_digest."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in ("timestamp", "wall_time_s")}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    payload = json.dumps(strip(report.to_dict()), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


_REAL_TRIPLE = {"n": 2, "m": 3, "field": "real",
                "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [1, 0]]]}


@pytest.mark.parametrize(
    "patch",
    [
        {"algorithms": [{"name": "lifted_linear"}, {"name": "irls", "options": {"max_outer": 5}}]},
        {"task": "sweep", "noise": {"kind": "awgn"}, "sweep": {"parameter": "sigma", "values": [0.01, 0.1]}},
        {"task": "crlb", "noise": {"kind": "coefficient"}, "sweep": {"parameter": "rho", "values": [0.05]}},
        {"task": "certify", "frame": {"ensemble": "gaussian", "n": 2, "m": 8, "seed": 1}},
        {"task": "certify", "frame": {"inline": _REAL_TRIPLE}},
        {"task": "bounds", "frame": {"inline": _REAL_TRIPLE}, "options": {"samples": 50, "n_starts": 2}},
        {"task": "bounds", "options": {"samples": 50, "n_starts": 2}},
    ],
    ids=["reconstruct", "sweep", "crlb", "certify_complex", "certify_real", "bounds_real", "bounds_complex"],
)
def test_digest_matches_a_strip_of_every_level(patch):
    report = run_experiment(dict(BASE, **patch))
    assert report.deterministic_digest() == _digest_stripping_every_level(report)
    loaded = report_from_dict(json.loads(report.to_json()))
    assert loaded.deterministic_digest() == _digest_stripping_every_level(loaded)
    # and the digest ignores the wall-clock fields
    report.timestamp = "1970-01-01T00:00:00"
    for rec in report.records:
        rec["wall_time_s"] = -1.0
    assert report.deterministic_digest() == loaded.deterministic_digest()


def test_config_echo_roundtrip():
    report = run_experiment(BASE)
    again = run_experiment(report.config)
    assert again.deterministic_digest() == report.deterministic_digest()


def test_trial_errors_recorded_not_raised():
    cfg = dict(BASE)
    cfg["frame"] = {"ensemble": "gaussian", "n": 2, "m": 3, "seed": 1}  # m < n^2
    report = run_experiment(cfg)
    assert all("error" in rec for rec in report.records)
    assert report.aggregates["lifted_linear"]["errors"] == 3


def test_wrong_length_start_is_recorded_per_trial():
    cfg = dict(BASE, algorithms=[{"name": "irls", "options": {"x0": [1.0, 0.5, 0.25]}}])
    report = run_experiment(cfg)
    assert len(report.records) == 3
    assert all(rec["error"].startswith("DimensionMismatch") for rec in report.records)
    assert report.aggregates["irls"]["errors"] == 3


def test_certify_task_real_triple():
    cfg = {
        "task": "certify",
        "frame": {
            "inline": {
                "n": 2,
                "m": 3,
                "field": "real",
                "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [1, 0]]],
            }
        },
        "seed": 0,
    }
    report = run_experiment(cfg)
    assert report.result["verdict"] == "retrievable"
    assert report.result["a0_lower"] == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-12)


def test_bounds_task_real():
    cfg = {
        "task": "bounds",
        "frame": {
            "inline": {
                "n": 2,
                "m": 3,
                "field": "real",
                "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [1, 0]]],
            }
        },
        "seed": 0,
        "options": {"samples": 500, "n_starts": 8},
    }
    report = run_experiment(cfg)
    certified = report.result["certified"]
    assert certified["B0"] == pytest.approx(3.0, abs=1e-9)
    empirical = report.result["empirical"]
    assert empirical["A0"] >= certified["A0"] - 1e-9
    assert empirical["B0"] <= certified["B0"] + 1e-9


def test_sweep_task_monotone_noise():
    cfg = dict(BASE)
    cfg.update(
        task="sweep",
        noise={"kind": "awgn"},
        sweep={"parameter": "sigma", "values": [0.01, 0.3]},
        trials=4,
    )
    report = run_experiment(cfg)
    rows = {row["noise_level"]: row for row in report.tables}
    assert rows[0.01]["d2_rel_mean"] < rows[0.3]["d2_rel_mean"]
    assert all(row["count"] == 4 for row in report.tables)


def test_crlb_task_sigma_scaling():
    cfg = dict(BASE)
    cfg.update(
        task="crlb",
        noise={"kind": "awgn"},
        sweep={"parameter": "sigma", "values": [0.05, 0.1]},
        trials=20,
    )
    report = run_experiment(cfg)
    t1, t2 = (row["trace_crlb"] for row in report.tables)
    assert t2 / t1 == pytest.approx(4.0, abs=1e-9)  # sigma doubled
    for row in report.tables:
        assert row["mse_lifted_linear"] is not None
        assert row["mse_lifted_linear"] > 0


def test_report_without_stop_reasons_still_loads():
    # reports written before records carried a stop_reason
    data = run_experiment(BASE).to_dict()
    for rec in data["records"]:
        del rec["stop_reason"]
    loaded = report_from_dict(data)
    assert loaded.aggregates_match()


def test_report_json_roundtrip(tmp_path):
    report = run_experiment(BASE)
    path = tmp_path / "report.json"
    report.save(path)
    # one compact line, holding the data of the indented encoding reports had
    indented = json.dumps(report.to_dict(), indent=1, sort_keys=True)
    text = path.read_text()
    assert text == report.to_json() + "\n" and text.count("\n") == 1
    assert json.loads(text) == json.loads(indented)
    loaded = load_report(path)
    assert loaded.deterministic_digest() == report.deterministic_digest()
    assert report_from_dict(report.to_dict()).aggregates == report.aggregates
    # an indented report file loads to the same digest
    path.write_text(indented)
    assert load_report(path).deterministic_digest() == report.deterministic_digest()


def test_write_csv_quoting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv([{"a": 1, "b": 'x, "quoted"'}, {"a": 2, "b": None}], path)
    text = path.read_text()
    assert '"x, ""quoted"""' in text  # RFC-4180 quoting
    assert text.splitlines()[0] == "a,b"


def test_threads_other_than_one_rejected():
    assert "threads" not in load_config(dict(BASE, threads=1))
    for workers in (0, 2):
        with pytest.raises(ConfigError, match="threads"):
            load_config(dict(BASE, threads=workers))


def test_sweep_errors_keep_noise_level():
    cfg = dict(BASE)
    cfg.update(
        task="sweep",
        frame={"ensemble": "gaussian", "n": 2, "m": 3, "seed": 1},  # m < n^2
        noise={"kind": "awgn"},
        sweep={"parameter": "sigma", "values": [0.01, 0.1]},
        trials=2,
    )
    report = run_experiment(cfg)
    assert report.aggregates == {
        "lifted_linear@0.01": {"count": 0, "errors": 2},
        "lifted_linear@0.1": {"count": 0, "errors": 2},
    }
    assert [(row["noise_level"], row["count"], row["errors"]) for row in report.tables] == [
        (0.01, 0, 2),
        (0.1, 0, 2),
    ]
    assert all(row["d2_rel_mean"] is None for row in report.tables)


def test_crlb_rows_count_failures():
    cfg = dict(BASE)
    cfg.update(
        task="crlb",
        frame={"ensemble": "gaussian", "n": 2, "m": 3, "seed": 1},  # m < n^2
        sweep={"parameter": "sigma", "values": [0.05]},
        trials=3,
    )
    (row,) = run_experiment(cfg).tables
    assert row["mse_lifted_linear"] is None
    assert row["failed_lifted_linear"] == 3
    (row,) = run_experiment(dict(cfg, frame=BASE["frame"])).tables
    assert row["failed_lifted_linear"] == 0


def test_real_frame_reconstruction_run():
    # a real frame draws a real signal; its lifted map reaches only the
    # 6-dimensional real symmetric matrices, so lifted_linear fails every trial
    cfg = {
        "task": "reconstruct",
        "frame": {"ensemble": "real_gaussian", "n": 3, "m": 12, "seed": 1},
        "trials": 3,
        "seed": 1,
        "algorithms": [{"name": "lifted_linear"}, {"name": "gerchberg_saxton"}, {"name": "wirtinger_flow"}],
    }
    frame = build_frame(cfg["frame"])
    assert frame.is_real
    assert not np.any(harness._draw_signal(frame, {}, [1, 0, 0]).imag)
    report = run_experiment(cfg)
    lifted = [rec for rec in report.records if rec["algorithm"] == "lifted_linear"]
    assert len(lifted) == 3
    assert all(rec["error"].startswith("InsufficientRedundancy: rank-one forms span 6 < n^2 = 9") for rec in lifted)
    assert report.aggregates["lifted_linear"] == {"count": 0, "errors": 3}
    vector = [rec for rec in report.records if rec["algorithm"] != "lifted_linear"]
    assert len(vector) == 6
    assert all(np.isfinite([rec["d2_rel"], rec["residual"]]).all() for rec in vector)
    assert run_experiment(cfg).deterministic_digest() == report.deterministic_digest()


_DIGEST_PINS = json.loads((pathlib.Path(__file__).parent / "data" / "report_digests.json").read_text())


@pytest.mark.parametrize("pin", _DIGEST_PINS, ids=[pin["task"] for pin in _DIGEST_PINS])
def test_report_matches_pinned_digest(pin):
    # one fixed config per task and noise path against the digest it gave
    # when recorded, so a rewrite of the harness that changes any
    # deterministic byte of a report shows here
    assert run_experiment(pin["config"]).deterministic_digest() == pin["digest"]


_SECTIONS = {
    "config": lambda key: {**BASE, key: 1},
    "frame_ensemble": lambda key: dict(BASE, frame={**BASE["frame"], key: 1}),
    "frame_inline": lambda key: dict(BASE, frame={"inline": _REAL_TRIPLE, key: 1}),
    "inline_frame": lambda key: dict(BASE, frame={"inline": {**_REAL_TRIPLE, key: 1}}),
    "frame_file": lambda key: dict(BASE, frame={"file": "frame.json", key: 1}),
    "noise": lambda key: dict(BASE, noise={"kind": "awgn", "sigma": 0.1, key: 1}),
    "signal": lambda key: dict(BASE, signal={"kind": "gaussian", key: 1}),
    "sweep": lambda key: dict(BASE, task="sweep", sweep={"parameter": "sigma", "values": [0.1], key: 1}),
    "options": lambda key: dict(BASE, options={key: 1}),
    "algorithm": lambda key: dict(BASE, algorithms=[{"name": "lifted_linear", key: 1}]),
    "solver_options": lambda key: dict(BASE, algorithms=[{"name": "irls", "options": {key: 1}}]),
    "no_options": lambda key: dict(BASE, algorithms=[{"name": "lifted_linear", "options": {key: 1}}]),
}


@pytest.mark.parametrize("key", [7, 2.5, True, None, _Count(3)], ids=["int", "float", "bool", "None", "int_subclass"])
@pytest.mark.parametrize("section", sorted(_SECTIONS))
def test_every_non_string_config_key_is_refused(section, key):
    # no config section reads a key that is not a string
    with pytest.raises(ConfigError):
        load_config(_SECTIONS[section](key))


def test_load_config_refuses_what_is_not_a_config(tmp_path):
    with pytest.raises(ConfigError, match="must be a dict or a path"):
        load_config([1])
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "missing.json"))
    with pytest.raises(ConfigError, match="unsupported schema_version 2"):
        load_config(dict(BASE, schema_version=2))


def test_report_from_dict_refuses_aggregates_that_are_not_objects():
    data = run_experiment(BASE).to_dict()
    for aggregates in ([], {"lifted_linear": 1.0}):
        with pytest.raises(ConfigError, match="aggregates are not an object of objects"):
            report_from_dict(dict(data, aggregates=aggregates))
