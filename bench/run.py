"""Benchmark for framepr: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload phaselift_n4 --seed 1 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics with no instrumentation.
`--trace 1` alternates plain and traced passes over the workload's first
units (its window) and prints per-layer metrics from the first traced pass,
plus the tracing overhead measured on identical inputs.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the line before it holds the details (environment, raw times,
tail percentile, failure ratio, exact work counts).  A failed correctness
gate prints "correct": false and exits with status 1.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy can be imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
# Time metrics are reported at a reference machine speed.  On a shared
# 2-vCPU Xeon VM at 2.1 GHz, one fixed computation takes anywhere from
# 190 ms to 340 ms, in spells lasting seconds, so a run's
# medians depend on how much of it fell in slow spells.  Each unit is
# therefore bracketed by a short calibration kernel, and its times are
# scaled to the speed at which that kernel takes CALIB_REF_MS.
CALIB_REF_MS = 4.0


def import_framepr():
    """Import the library from this checkout's source tree, never from an
    installed copy; exit with status 2 when the source is missing."""
    src = ROOT / "src"
    if not (src / "framepr" / "__init__.py").is_file():
        sys.stderr.write(f"framepr source not found under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import framepr
    import framepr.cli  # noqa: F401  (imported by the sweep workload and traced)

    if Path(framepr.__file__).resolve().parent != (src / "framepr").resolve():
        sys.stderr.write(f"framepr imported from {framepr.__file__}, not {src}\n")
        sys.exit(2)
    return framepr


def environment(seed: int) -> dict:
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha():
    """Commit of the checkout, read from .git without running git (None when
    the checkout is not a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

_CAL_GEN = np.random.Generator(np.random.Philox(0))
_CAL_V = _CAL_GEN.normal(size=(24, 4)) + 1j * _CAL_GEN.normal(size=(24, 4))
_CAL_X = _CAL_V.conj().T @ _CAL_V


def calibration_ms() -> float:
    """Wall time of a fixed pure-numpy kernel that runs no framepr code:
    small Hermitian eigensolves and contractions, like the workloads' inner
    loops.  A change to framepr cannot move it; a change of machine speed
    moves it as it moves the workloads."""
    t0 = time.perf_counter()
    for _ in range(200):
        np.linalg.eigh(_CAL_X)
        np.einsum("ki,ij,kj->k", _CAL_V.conj(), _CAL_X, _CAL_V)
    return 1e3 * (time.perf_counter() - t0)


def reference_s(seconds: float, calib_ms: float) -> float:
    """A time measured while the calibration kernel took ``calib_ms``, at
    reference speed."""
    return seconds * CALIB_REF_MS / calib_ms


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def probe(workload: str, seed: int) -> None:
    """Child side of a set-up measurement: import, build unit 0's inputs,
    print the monotonic clock (shared by all processes on the machine)."""
    fp = import_framepr()
    WORKLOADS[workload](fp, seed, str(OUT / f"probe-{os.getpid()}")).inputs(0)
    print(repr(time.monotonic()))


def setup_seconds(workload: str, seed: int) -> list:
    """Time from process start to the first unit's inputs, over fresh
    interpreter processes.  Import time is file and loader work, which the
    calibration kernel does not track, so these stay raw."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


# ---------------------------------------------------------------------------
# timed sections
# ---------------------------------------------------------------------------

def run_units(wl, count: int, tracer=None):
    """Run units 0 .. count-1.  Each unit records its wall time and the mean
    calibration time just before and after it.  Also returns the elapsed
    time and the peak resident memory once the window's units are done
    (None if there are fewer units than the window)."""
    units = []
    t0 = time.perf_counter()
    window_rss_mb = None
    before = calibration_ms()
    for i in range(count):
        if tracer is not None:
            tracer.item = i
        t_unit = time.perf_counter()
        unit = wl.run(i)
        unit.wall_s = time.perf_counter() - t_unit
        after = calibration_ms()
        unit.calib_ms = 0.5 * (before + after)
        before = after
        units.append(unit)
        if i + 1 == wl.window:
            window_rss_mb = peak_rss_mb()
    return units, time.perf_counter() - t0, window_rss_mb


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_stats(latencies: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    v = sorted(latencies)
    k = max(len(v) - 11, 0) if len(v) > 10 else len(v) - 1
    return {
        "p50_s": statistics.median(v),
        "tail_s": v[k],
        "tail_percentile": 100.0 * (k + 1) / len(v),
        "tail_samples_beyond": len(v) - 1 - k,
        "samples": len(v),
    }


def throughput(units, stride: int, scaled: bool = True) -> float:
    """Median over the run's strides of items completed per second."""
    rates = []
    for k in range(0, len(units), stride):
        group = units[k:k + stride]
        busy = sum(reference_s(u.wall_s, u.calib_ms) if scaled else u.wall_s for u in group)
        rates.append(sum(len(u.items) for u in group) / busy)
    return statistics.median(rates)


def sum_counts(units) -> dict:
    out: dict = {}
    for u in units:
        for k, v in u.counts.items():
            out[k] = out.get(k, 0) + v
    return out


def end_to_end(wl, seconds: float):
    """Set-up probes, then the timed section with tracing off.  Time metrics
    are at reference speed; the details keep the raw values."""
    setup = setup_seconds(wl.name, wl.seed)
    # a fixed number of whole strides, sized from the run length at the
    # reference speed: machine speed must not change which items a run
    # measures, nor, through their count, the percentile of the tail
    units, elapsed, window_mb = run_units(
        wl, count=wl.stride * max(1, round(seconds / wl.stride_s)))
    run_mb = peak_rss_mb()
    errors = wl.check(units)  # before the metrics: certify successes need the spot check
    items = [it for u in units for it in u.items]
    raw_lat = latency_stats([it.latency_s for it in items])
    lat = latency_stats([reference_s(it.latency_s, u.calib_ms) for u in units for it in u.items])
    quality = [it.quality for it in items if it.quality is not None]
    solves = sum(u.solves for u in units)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (throughput(units, wl.stride), "1/s"),
        "item_ms_p50": (1e3 * lat["p50_s"], "ms"),
        "item_ms_tail": (1e3 * lat["tail_s"], "ms"),
        "success_ratio": (sum(u.successes for u in units) / max(solves, 1), "ratio"),
        "quality_p50": (statistics.median(quality or [0.0]), "1"),
        # over the window's fixed inputs: later units add allocator
        # fragmentation that depends on their order (run_peak_rss_mb)
        "peak_rss_mb": (window_mb or run_mb, "MB"),
    }
    details = {
        "raw": {"items_per_s": throughput(units, wl.stride, scaled=False),
                "item_ms_p50": 1e3 * raw_lat["p50_s"], "item_ms_tail": 1e3 * raw_lat["tail_s"]},
        "setup_samples_s": setup,
        "items": len(items),
        "units": len(units),
        "elapsed_s": elapsed,
        "unit_wall_s": [round(u.wall_s, 4) for u in units],
        "unit_calibration_ms": [round(u.calib_ms, 3) for u in units],
        "latency": lat,
        "solves": solves,
        "window_counts": sum_counts(units[: wl.window]),
        "window_complete": len(units) >= wl.window,
        "run_peak_rss_mb": run_mb,
    }
    return units, items, metrics, details, errors


def traced(wl, fp, seconds: float):
    """Alternate plain and traced passes over the window until the time is
    spent (at least one pair).  Per-layer metrics come from the first traced
    pass; the overhead compares the medians of both kinds of pass, each
    summed over its units at reference speed."""
    from spans import Tracer

    plain_s, traced_s, units_all, first = [], [], [], None
    t_start = time.perf_counter()
    while True:
        plain, dt_plain, _ = run_units(wl, count=wl.window)
        with Tracer(fp) as tr:
            units, dt_traced, _ = run_units(wl, count=wl.window, tracer=tr)
        plain_s.append(sum(reference_s(u.wall_s, u.calib_ms) for u in plain))
        traced_s.append(sum(reference_s(u.wall_s, u.calib_ms) for u in units))
        units_all += plain + units
        first = first or (tr, units)
        if time.perf_counter() - t_start + dt_plain + dt_traced > seconds:
            break
    tr, window_units = first
    counts = sum_counts(window_units)
    tr.counters["harness.report_bytes"] = counts.get("report_bytes", 0)
    tr.counters["harness.hidden_failures"] = (
        tr.counters["harness.run_reconstruction.failed"] - counts.get("error_records", 0))
    errors = wl.check(units_all)
    if tr.unpatched:
        errors.append(f"unpatched aliases: {tr.unpatched}")
    if tr.calls[wl.dominant] == 0:
        errors.append(f"no calls recorded for dominant function {wl.dominant}")
    details = {
        "pairs": len(plain_s),
        "plain_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "tracing_overhead": statistics.median(traced_s) / statistics.median(plain_s) - 1.0,
        "window_items": sum(len(u.items) for u in window_units),
        "window_counts": counts,
        "spans": len(tr.buf) // 6,
    }
    tr.save(OUT / f"spans-{wl.name}.npz")
    items = [it for u in units_all for it in u.items]
    return units_all, items, tr.metrics(), details, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.probe:
        probe(args.workload, args.seed)
        return 0
    fp = import_framepr()
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](fp, args.seed, str(OUT / f"work-{os.getpid()}"))
    try:
        if args.trace:
            units, items, metrics, details, errors = traced(wl, fp, args.seconds)
        else:
            units, items, metrics, details, errors = end_to_end(wl, args.seconds)
        errors += wl.finish(units)
    finally:
        wl.close()
    failed = sum(it.failed for it in items)
    details.update(
        workload=wl.name, trace=args.trace, environment=environment(args.seed),
        failed_ratio=failed / max(len(items), 1), gate_errors=errors,
    )
    result = {
        "correct": not errors,
        "attempted": len(items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
