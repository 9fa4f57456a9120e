import hashlib
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
from framepr import recon
from framepr.harness import TASK_OPTIONS, build_frame, load_report, report_from_dict

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
        {"options": {"budget": TASK_OPTIONS["budget"][2] + 1}},
        {"options": {"samples": TASK_OPTIONS["samples"][2] + 1}},
        # and n_starts: each start runs up to 400 projected-gradient steps
        {"options": {"n_starts": 10**9}},
        {"options": {"n_starts": TASK_OPTIONS["n_starts"][2] + 1}},
    ],
)
def test_load_config_rejects(patch):
    cfg = dict(BASE)
    cfg.update(patch)
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_load_config_accepts_option_lower_bounds():
    cfg = dict(BASE, options={"budget": 1, "n_starts": 0, "samples": 2})
    assert load_config(cfg)["options"] == cfg["options"]


def test_load_config_rejects_non_object_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([BASE]))
    with pytest.raises(ConfigError):
        load_config(str(path))


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
