"""Smoke test of the benchmark itself (about a minute).

    python3 bench/smoke.py

Runs every workload at a tiny size with tracing off and on, and asserts
that the last output line has exactly the declared metrics of
BENCHMARK.json, each with its declared unit.  Then feeds deliberately
corrupted outputs to the correctness gates (an inflated a0_lower, a real
verdict without a positive margin, failed PhaseLift records, a changed
sweep digest) and asserts that each gate fires.  Finally it runs the
benchmark in a directory that holds only BENCHMARK.json and bench/, where
it must fail without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run
import workloads as wls


class PhaseLiftTiny(wls.PhaseLiftN4):
    trials = 1
    window = 1


class NoisySweepTiny(wls.NoisySweepN8):
    sigmas = [0.01]
    trials = 1
    rhos = [0.05]
    crlb_trials = 1
    window = 1


class CertifyTiny(wls.CertifyN2):
    cycle = (("c", 4), ("r", 5))
    window = stride = 2


TINY = {"phaselift_n4": PhaseLiftTiny, "noisy_sweep_n8": NoisySweepTiny,
        "certify_n2": CertifyTiny}


def run_main(argv: list) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def check_metrics(declared: list, printed: dict, label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in printed["metrics"].items()}
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}, label
    assert got == want, f"{label}: metric names or units differ: {set(got) ^ set(want)}"
    assert all(isinstance(v["value"], (int, float)) for v in printed["metrics"].values()), label
    assert printed["correct"] is True and printed["attempted"] >= 1, f"{label}: {printed}"


def gates_fire(fp) -> None:
    # complex certificate with an inflated margin
    wl = CertifyTiny(fp, 1, "")
    unit = wl.run(0)
    frame, cert = unit.outputs["frame"], unit.outputs["cert"]
    assert cert.verdict == "retrievable"
    assert not wls.check_certificate(frame, cert, wls.rng(0), 2000, 64)
    bad = dataclasses.replace(cert, a0_lower=100.0 * cert.a0_lower)
    assert wls.check_certificate(frame, bad, wls.rng(0), 2000, 64), "inflated a0_lower passed"
    # real certificate: verdict without a positive margin, and an inflated A0
    unit = wl.run(1)
    frame, cert = unit.outputs["frame"], unit.outputs["cert"]
    assert not wls.check_certificate(frame, cert, wls.rng(0), 2000, 64)
    for a0 in (0.0, 100.0 * cert.a0_lower):
        bad = dataclasses.replace(cert, a0_lower=a0)
        assert wls.check_certificate(frame, bad, wls.rng(0), 2000, 64), f"real A0 {a0} passed"
    # PhaseLift records that missed the success threshold
    wl = PhaseLiftTiny(fp, 1, "")
    unit = wl.run(0)
    assert not wl.check([unit])
    for rec in unit.outputs["records"]:
        if rec["algorithm"] == "phaselift":
            rec["d2_rel"] = 1.0
    unit.outputs["aggregates"] = fp.compute_aggregates(unit.outputs["records"], wl.threshold)
    assert wl.check([unit]), "failed PhaseLift records passed"
    # sweep digest that does not reproduce
    workdir = str(run.OUT / "smoke-work")
    wl = NoisySweepTiny(fp, 1, workdir)
    try:
        unit = wl.run(0)
        assert not wl.check([unit]) and not wl.finish([unit])
        unit.outputs["digest"] = "0" * 64
        assert wl.finish([unit]), "changed digest passed"
        unit.outputs["codes"]["report"] = 3
        assert wl.check([unit]), "nonzero CLI exit passed"
    finally:
        wl.close()


def bare_directory_fails() -> None:
    """Without the library source, the benchmark exits nonzero and prints
    no result."""
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "phaselift_n4", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "benchmark succeeded without the library source"
    assert not done.stdout.strip(), f"printed output without the library: {done.stdout!r}"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(TINY)
    fp = run.import_framepr()
    for name, tiny in TINY.items():
        wls.WORKLOADS[name] = tiny
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, printed = run_main(["--workload", name, "--seed", "1",
                                      "--seconds", "0", "--trace", str(trace)])
            assert code == 0, f"{name} trace {trace} exited {code}"
            check_metrics(declared, printed, f"{name} trace {trace}")
            print(f"ok  {name} trace {trace}: {len(printed['metrics'])} metrics")
    gates_fire(fp)
    print("ok  gates fire on corrupted outputs")
    bare_directory_fails()
    print("ok  fails without the library source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
