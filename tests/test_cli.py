import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from framepr import cli, load_frame, run_experiment
from framepr.harness import load_report, report_from_dict
from framepr.cli import main


def run_cli(*argv):
    return main(list(argv))


_REAL_FRAME = {
    "n": 2,
    "m": 3,
    "field": "real",
    "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [1, 0]]],
}


def test_frame_gen_and_check(tmp_path):
    path = tmp_path / "frame.json"
    assert run_cli("frame", "gen", "--n", "2", "--m", "6", "--seed", "5", "--out", str(path)) == 0
    frame = load_frame(path)
    assert (frame.n, frame.m) == (2, 6)
    out = tmp_path / "check.json"
    assert run_cli("frame", "check", str(path), "--full-spark", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["valid"] and data["full_spark"]


def test_frame_check_certify_real(tmp_path):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(_REAL_FRAME))
    out = tmp_path / "cert.json"
    assert run_cli("frame", "check", str(path), "--certify", "--out", str(out)) == 0
    cert = json.loads(out.read_text())["certificate"]
    assert cert["verdict"] == "retrievable"
    assert cert["a0_lower"] == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-12)


def test_frame_check_certify_unverified_pair(tmp_path):
    # the scan finds a failing partition whose pair does not verify
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({"n": 2, "m": 3, "field": "real",
                                "vectors": [[[1, 0], [0, 0]], [[1, 0], [1e-5, 0]], [[1e6, 0], [1e6, 0]]]}))
    out = tmp_path / "cert.json"
    assert run_cli("frame", "check", str(path), "--certify", "--out", str(out)) == 0
    assert json.loads(out.read_text())["certificate"]["verdict"] == "undecided"


@pytest.mark.parametrize("ensemble", ["real_gaussian", "gaussian"])
def test_frame_check_certify_matches_certify_task(tmp_path, ensemble):
    path = tmp_path / "frame.json"
    assert run_cli("frame", "gen", "--n", "2", "--m", "8", "--ensemble", ensemble, "--seed", "7",
                   "--out", str(path)) == 0
    out = tmp_path / "cert.json"
    assert run_cli("frame", "check", str(path), "--certify", "--seed", "3", "--out", str(out)) == 0
    report = run_experiment({"task": "certify", "frame": {"file": str(path)}, "seed": 3})
    assert json.loads(out.read_text())["certificate"] == report.result


@pytest.mark.parametrize("ensemble", ["real_gaussian", "gaussian"])
def test_bounds_prints_the_report_of_the_bounds_task(tmp_path, capsys, ensemble):
    path = tmp_path / "frame.json"
    assert run_cli("frame", "gen", "--n", "2", "--m", "6", "--ensemble", ensemble, "--seed", "4",
                   "--out", str(path)) == 0
    capsys.readouterr()
    assert run_cli("bounds", str(path), "--samples", "50", "--starts", "2", "--seed", "3") == 0
    printed = report_from_dict(json.loads(capsys.readouterr().out))
    report = run_experiment({"task": "bounds", "frame": {"file": str(path)}, "seed": 3,
                             "options": {"samples": 50, "n_starts": 2}})
    assert printed.deterministic_digest() == report.deterministic_digest()


def test_recon_and_report(tmp_path):
    frame_path = tmp_path / "frame.json"
    run_cli("frame", "gen", "--n", "2", "--m", "6", "--seed", "3", "--out", str(frame_path))
    cfg = {
        "task": "reconstruct",
        "frame": {"file": str(frame_path)},
        "trials": 2,
        "seed": 4,
        "algorithms": [{"name": "lifted_linear"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rep_path = tmp_path / "rep.json"
    assert run_cli("recon", "--config", str(cfg_path), "--out", str(rep_path)) == 0
    report = json.loads(rep_path.read_text())
    assert len(report["records"]) == 2
    csv_path = tmp_path / "agg.csv"
    assert run_cli("report", str(rep_path), "--csv", str(csv_path), "--digest") == 0
    assert csv_path.read_text().startswith("group,")


def test_recon_trials_and_seed_flags_override_the_config(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"frame": {"ensemble": "gaussian", "n": 2, "m": 6, "seed": 3},
                                    "trials": 4, "seed": 1, "algorithms": [{"name": "lifted_linear"}]}))
    rep_path = tmp_path / "r.json"
    assert run_cli("recon", "--config", str(cfg_path), "--trials", "2", "--seed", "5", "--out", str(rep_path)) == 0
    report = load_report(rep_path)
    assert (report.config["trials"], report.config["seed"]) == (2, 5)
    assert [rec["trial"] for rec in report.records] == [0, 1]


def test_recon_default_phaselift_and_report_digest(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"frame": {"ensemble": "gaussian", "n": 3, "m": 18, "seed": 1},
                                    "algorithms": [{"name": "phaselift"}]}))
    rep_path = tmp_path / "rep.json"
    assert run_cli("recon", "--config", str(cfg_path), "--out", str(rep_path)) == 0
    assert run_cli("report", str(rep_path), "--digest") == 0


def test_report_detects_tampered_aggregates(tmp_path):
    frame_path = tmp_path / "frame.json"
    run_cli("frame", "gen", "--n", "2", "--m", "6", "--seed", "3", "--out", str(frame_path))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "task": "reconstruct",
                "frame": {"file": str(frame_path)},
                "trials": 2,
                "seed": 4,
                "algorithms": [{"name": "lifted_linear"}],
            }
        )
    )
    rep_path = tmp_path / "rep.json"
    run_cli("recon", "--config", str(cfg_path), "--out", str(rep_path))
    data = json.loads(rep_path.read_text())
    data["aggregates"]["lifted_linear"]["success_rate"] = 0.0
    rep_path.write_text(json.dumps(data))
    assert run_cli("report", str(rep_path)) == 3  # component failure


def test_report_written_by_an_earlier_version_still_verifies(capsys):
    # an indented sweep report of demo 07, written before reports were compact
    # and before the aggregates stopped calling np.quantile and np.median
    path = pathlib.Path(__file__).resolve().parent / "data" / "demo_report.json"
    assert run_cli("report", str(path), "--digest") == 0
    assert capsys.readouterr().out.splitlines() == [
        "aggregates verified over 60 records",
        "526a4801550f9003800880242406bd5ca9fd6260046ebaec2291459a94833496",
    ]


def test_sweep_csv(tmp_path):
    frame_path = tmp_path / "frame.json"
    run_cli("frame", "gen", "--n", "2", "--m", "6", "--seed", "3", "--out", str(frame_path))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "task": "sweep",
                "frame": {"file": str(frame_path)},
                "trials": 2,
                "seed": 4,
                "noise": {"kind": "awgn"},
                "sweep": {"parameter": "sigma", "values": [0.05, 0.2]},
                "algorithms": [{"name": "lifted_linear"}],
            }
        )
    )
    rep_path = tmp_path / "rep.json"
    csv_path = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(rep_path), "--csv", str(csv_path)) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("algorithm,")
    assert len(lines) == 3
    # the report is one line of compact JSON holding the in-process report's data
    text = rep_path.read_text()
    assert text.count("\n") == 1 and text.endswith("}\n")
    loaded = load_report(rep_path)
    assert json.loads(text) == loaded.to_dict()
    config = dict(json.loads(cfg_path.read_text()), task="sweep")
    assert loaded.deterministic_digest() == run_experiment(config).deterministic_digest()


def test_exit_code_config_error(tmp_path):
    assert run_cli("recon", "--config", str(tmp_path / "missing.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("recon", "--config", str(bad)) == 2


@pytest.mark.parametrize(
    "alg",
    [
        {"name": "wirtinger_flow", "options": {"max_iter": 0}},
        {"name": "phaselift", "options": {"bogus": 1}},
        # fixed constants
        {"name": "wirtinger_flow", "options": {"mu_max": 0.1}},
        {"name": "phaselift", "options": {"lambda0": 1.0}},
        {"name": "phaselift", "options": {"lambda_decay": 0.5}},
        {"name": "phaselift", "options": {"lambda_min": 0.0}},
    ],
)
def test_exit_code_bad_solver_options(tmp_path, alg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "task": "reconstruct",
                "frame": {"ensemble": "gaussian", "n": 2, "m": 6, "seed": 3},
                "algorithms": [alg],
            }
        )
    )
    assert run_cli("recon", "--config", str(cfg_path)) == 2


@pytest.mark.parametrize(
    "verb, patch",
    [
        ("recon", {"frame": {"inline": {"n": 1, "m": 2, "vectors": [[[1, 0, 5]], [[0, 1, 5]]]}}}),
        ("recon", {"frame": {"inline": {"n": 1, "vectors": [[[1, 0]], [[0, 1]]]}}}),
        ("recon", {"trials": "three"}),
        ("recon", {"noise": {"kind": "awgn"}}),
        ("recon", {"options": {"budget": "lots"}}),
        ("sweep", {"noise": {"kind": "awgn"}, "sweep": {"parameter": "rho", "values": [0.1]}}),
        ("crlb", {"noise": {"kind": "awgn"}, "sweep": {"parameter": "rho", "values": [0.1]}}),
        ("sweep", {"sweep": {"parameter": "sigma", "values": [0]}}),
        ("recon", {"signal": {"kind": "gaussian", "norm": "big"}}),
        ("recon", {"signal": {"kind": "gaussian", "norm": 0}}),
        ("recon", {"success_threshold": "tight"}),
        ("recon", {"algorithms": ["lifted_linear"]}),
        ("recon", {"seed": "x"}),
        ("recon", {"algorithms": [{"name": "wirtinger_flow", "options": {"seed": 3}}]}),
        ("recon", {"trials": True}),
        ("recon", {"seed": True}),
        ("recon", {"success_threshold": True}),
        ("recon", {"options": {"n_starts": True}}),
        ("sweep", {"sweep": {"parameter": "sigma", "values": [True]}}),
        ("recon", {"algorithms": [{"name": "phaselift", "options": {"max_outer": True, "inner_max": True}}]}),
        ("recon", {"algorithms": [{"name": "wirtinger_flow", "options": {"max_iter": True}}]}),
        ("recon", {"algorithms": [{"name": "irls", "options": {"max_outer": True}}]}),
        ("recon", {"algorithms": [{"name": "phaselift", "options": {"max_outer": 2.5}}]}),
        ("recon", {"algorithms": [{"name": "gerchberg_saxton", "options": {"max_iter": 50.5}}]}),
        ("recon", {"algorithms": [{"name": "wirtinger_flow", "options": {"max_iter": 1e3}}]}),
        ("recon", {"algorithms": [{"name": "irls", "options": {"max_outer": 40.0}}]}),
        ("recon", {"options": {"n_start": 3}}),
        ("recon", {"options": {"eps0": 0.5}}),
        # the certificate caps and the IRLS CG tolerance are constants
        ("recon", {"options": {"n_cap": 3}}),
        ("recon", {"options": {"partition_cap": 24}}),
        ("recon", {"algorithms": [{"name": "irls", "options": {"cg_tol": 1e-12}}]}),
        # Python's json reads NaN, so a config file can carry one
        ("recon", {"algorithms": [{"name": "irls", "options": {"lambda_min": float("nan")}}]}),
        ("recon", {"trails": 5}),
        ("recon", None),  # the whole file is a JSON list
        ("recon", {"frame": {"ensemble": "gaussian", "n": 2, "m": 6, "sede": 4}}),
        ("recon", {"frame": {"ensemble": "gaussian", "n": 2.7, "m": 6}}),
        ("recon", {"frame": {"ensemble": "gaussian", "n": 3, "m": 2}}),
        ("sweep", {"noise": {"kind": "awgn", "sigam": 0.1}, "sweep": {"parameter": "sigma", "values": [0.1]}}),
        ("recon", {"algorithms": [{"name": "lifted_linear"}, {"name": "lifted_linear"}]}),
        # a frame header that disagrees with its vector table
        ("recon", {"frame": {"inline": {"n": 2, "m": 3, "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}}),
        # JSON integers beyond every float compare below infinity
        ("recon", {"success_threshold": 10**400}),
        ("recon", {"signal": {"kind": "gaussian", "norm": 10**400}}),
        ("sweep", {"sweep": {"parameter": "sigma", "values": [0.1, 10**400]}}),
        ("recon", {"noise": {"kind": "awgn", "sigma": 10**400}}),
        ("recon", {"noise": {"kind": "coefficient", "rho": 10**400}}),
    ],
)
def test_exit_code_bad_config_values(tmp_path, verb, patch):
    cfg = {
        "frame": {"ensemble": "gaussian", "n": 2, "m": 6, "seed": 3},
        "algorithms": [{"name": "lifted_linear"}],
        **(patch or {}),
    }
    if patch is None:
        cfg = [cfg]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(verb, "--config", str(cfg_path)) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("frame", "check", "{path}", "--certify", "--budget", "0"),
        ("frame", "check", "{path}", "--certify", "--budget", "-5"),
        ("frame", "check", "{path}", "--certify", "--seed", "-1"),
        ("frame", "gen", "--n", "2", "--m", "6", "--seed", "-1", "--out", "{path}"),
        ("frame", "gen", "--n", "0", "--m", "3", "--out", "{path}"),
        ("frame", "gen", "--n", "-1", "--m", "3", "--out", "{path}"),
        ("frame", "gen", "--n", "1", "--m", "0", "--out", "{path}"),
        ("bounds", "{path}", "--samples", "0"),
        ("bounds", "{path}", "--starts", "-1"),
        ("frame", "gen", "--n", "3", "--m", "2", "--out", "{path}"),
        # refused before the 728 TiB frame is allocated
        ("frame", "gen", "--n", "10000000", "--m", "10000000", "--out", "{path}"),
    ],
)
def test_exit_code_out_of_range_options(tmp_path, argv):
    path = tmp_path / "frame.json"
    assert run_cli("frame", "gen", "--n", "2", "--m", "6", "--out", str(path)) == 0
    assert run_cli(*(arg.format(path=path) for arg in argv)) == 2


def test_frame_check_certify_at_the_least_budget(tmp_path):
    # budget 1 builds no net: an "undecided" certificate and exit 0
    from framepr import random_frame, save_frame

    path = tmp_path / "frame.json"
    save_frame(random_frame(2, 8, seed=1), path)
    out = tmp_path / "cert.json"
    assert run_cli("frame", "check", str(path), "--certify", "--budget", "1", "--out", str(out)) == 0
    cert = json.loads(out.read_text())["certificate"]
    assert cert["verdict"] == "undecided" and cert["nets_tested"] == 0


def test_exit_code_budget(tmp_path):
    # real frame above the partition cap: budget exceeded -> 4
    from framepr import random_frame, save_frame

    frame = random_frame(3, 30, "real_gaussian", seed=0)
    path = tmp_path / "big.json"
    save_frame(frame, path)
    assert run_cli("frame", "check", str(path), "--certify") == 4


def test_exit_code_component_failure(tmp_path):
    # rank-deficient frame file fails to load as a valid frame
    path = tmp_path / "bad_frame.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "m": 2,
                "field": "real",
                "vectors": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]],
            }
        )
    )
    assert run_cli("frame", "check", str(path)) == 3


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 0, "m": 3, "vectors": [[], [], []]}',  # ValueError: not [re, im] pairs
        '{"n": 2, "m": 2, "vectors": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}',  # not finite
        '{"n": 2, "m": 2}',  # KeyError
        "[1, 2]",  # TypeError
        '{"n": 2, "m": 3, "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',  # header disagrees
    ],
)
def test_frame_check_malformed_file_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "frame.json"
    path.write_text(text)
    assert run_cli("frame", "check", str(path)) == 2
    assert capsys.readouterr().err.startswith("config error: bad frame file")


_RECORD = {"algorithm": "x", "d2_rel": 0.1, "residual": 0.2, "iterations": 3}


@pytest.mark.parametrize("data", [[1, 2], {}, {"config": {}}, {"task": "reconstruct"},
                                  {"config": [], "task": "reconstruct"},
                                  {"config": {}, "task": "reconstruct", "records": [1]},
                                  {"config": {}, "task": "reconstruct", "records": [{"algorithm": "x"}]},
                                  {"config": {"success_threshold": "tight"}, "task": "reconstruct",
                                   "records": [_RECORD]},
                                  {"config": {}, "task": "sweep", "tables": 5}])
def test_report_on_non_report_is_config_error(tmp_path, capsys, data):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    assert run_cli("report", str(path), "--csv", str(tmp_path / "t.csv")) == 2
    assert capsys.readouterr().err.startswith("config error: not a report")


def test_verbose_prints_debug_records_without_stacking(tmp_path, capsys):
    import logging

    path = tmp_path / "frame.json"
    path.write_text(json.dumps(_REAL_FRAME))
    logger = logging.getLogger("framepr")
    handlers, level = list(logger.handlers), logger.level
    argv = ("frame", "check", str(path), "--certify")
    assert run_cli(*argv) == 0
    assert "bipartition scan" not in capsys.readouterr().err
    for _ in range(2):
        assert run_cli("-v", *argv) == 0
        assert capsys.readouterr().err.count("bipartition scan") == 1
        assert logger.handlers == handlers and logger.level == level
    assert run_cli(*argv) == 0
    assert "bipartition scan" not in capsys.readouterr().err


def test_cached_parser_parses_each_call_independently(monkeypatch):
    # the parser is built once per process; options one call sets must not
    # leak into the next call's namespace
    seen = []

    def record(args, *task):
        seen.append((vars(args), *task))
        return 0

    for name in ("_cmd_frame", "_cmd_bounds", "_cmd_task", "_cmd_report"):
        monkeypatch.setattr(cli, name, record)
    # an option not given is None, so the library's default applies
    check = {"verbose": False, "verb": "frame", "frame_verb": "check", "path": "f.json",
             "full_spark": False, "certify": False, "seed": 0, "budget": None, "out": None}
    task = {"verbose": False, "config": "c.json", "trials": None, "seed": None,
            "out": None, "csv": None}
    calls = [
        (["frame", "check", "f.json", "--certify", "--seed", "3", "--out", "o.json"],
         ({**check, "certify": True, "seed": 3, "out": "o.json"},)),
        (["frame", "check", "f.json"], (check,)),
        (["-v", "bounds", "f.json", "--samples", "7"],
         ({"verbose": True, "verb": "bounds", "path": "f.json", "samples": 7,
           "starts": None, "seed": 0, "out": None},)),
        (["sweep", "--config", "c.json", "--trials", "2", "--seed", "5"],
         ({**task, "verb": "sweep", "trials": 2, "seed": 5}, "sweep")),
        (["recon", "--config", "c.json"], ({**task, "verb": "recon"}, "reconstruct")),
        (["report", "r.json"],
         ({"verbose": False, "verb": "report", "path": "r.json", "csv": None, "digest": False},)),
    ]
    for argv, expected in calls:
        assert main(argv) == 0
        assert seen.pop() == expected
    assert cli._parser() is cli._parser()


def test_import_leaves_slow_scipy_modules_unloaded():
    # loading scipy takes most of a cold import; only PhaseLift's loop, IRLS's
    # u-step and the coefficient-noise Fisher weights load it, so the
    # certificates, bounds, nets and the other solvers run on numpy alone
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, numpy as np, framepr, framepr.cli; "
        "[framepr.certify_retrievable_complex(framepr.random_frame(n, 4 * n, seed=0), budget=4096) "
        "for n in (1, 2, 3)]; framepr.sphere_net(4, 64); "
        "real = framepr.random_frame(4, 8, 'real_gaussian', seed=0); "
        "framepr.check_retrievable_real(real); framepr.stability_bounds_real(real); "
        "frame = framepr.random_frame(4, 24, seed=1); "
        "y = framepr.intensity_map(frame, np.array([1.0, 1j, -0.5, 0.5 - 1j])); "
        "framepr.frame_bounds(frame); framepr.lifted_linear(frame, y); "
        "framepr.gerchberg_saxton(frame, y); framepr.wirtinger_flow(frame, y); "
        "framepr.sampled_stability_bounds(frame); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
