"""Seeded, reproducible experiment runner and report assembly.

A run is fully described by a JSON config (schema_version 1): frame source,
task, noise model, algorithm list, trial count, and explicit seeds.  Reports
echo the normalized config, carry one record per trial, and store aggregates
that are exactly recomputable from the records.  Wall-clock fields live in
dedicated keys and are excluded from the determinism contract; everything
else is bitwise reproducible.  Trials run serially in one process.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import recon
from .errors import ConfigError, DimensionMismatch, FramePRError
from .estimation import NoiseModel, crlb, fisher_awgn, fisher_coefficient_noise, simulate_measurements
from .frames import (
    ENSEMBLES,
    Frame,
    frame_bounds,
    frame_from_dict,
    intensity_map,
    load_frame,
    random_frame,
    rng_from_seed,
)
from .injectivity import (
    certify_retrievable_complex,
    check_retrievable_real,
    fourth_moment_max,
    sampled_stability_bounds,
    stability_bounds_real,
)
ARTIFACT_VERSION = "0.1.0"
SCHEMA_VERSION = 1

_TASKS = ("certify", "bounds", "crlb", "reconstruct", "sweep")
_NOISE_PARAMETER = {"awgn": "sigma", "coefficient": "rho"}  # noise kind -> parameter of its level
_SUCCESS_THRESHOLD = 1e-5  # default largest d2_rel that counts as a success
# the options of the certify and bounds tasks, all integers: (default, smallest
# and largest accepted value); a budget of net points costs 32 bytes each,
# a multistart start up to 400 projected-gradient steps, and sampled bounds
# hold several (samples, m) complex arrays
TASK_OPTIONS = {
    "budget": (4_000_000, 1, 32_000_000),
    "n_starts": (64, 0, 10_000),
    "samples": (2000, 2, 1_000_000),
}
# the keys each config section may hold; a frame section names exactly one
# source, and only an ensemble takes further keys; a noise section holds only
# the parameter of its kind
_SECTION_KEYS = {
    "frame": {"inline": ("inline",), "file": ("file",), "ensemble": ("ensemble", "n", "m", "seed")},
    "inline": ("n", "m", "field", "vectors"),  # the keys frames.frame_to_dict writes
    "algorithm": ("name", "options"),
    "noise": {"none": ("kind",), **{kind: ("kind", level) for kind, level in _NOISE_PARAMETER.items()}},
    "signal": ("kind", "norm"),
    "sweep": ("parameter", "values"),
    "options": tuple(TASK_OPTIONS),
}


def _number(value) -> bool:
    # bool is an int subclass, so JSON true would pass as 1
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _whole(value) -> bool:
    return _number(value) and isinstance(value, int)


def _positive(value) -> bool:
    return _number(value) and 0 < value < math.inf


def _check_section(name: str, section, allowed) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object, got {type(section).__name__}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {name} keys {unknown}; allowed: {', '.join(allowed)}")


def _frame_source(spec) -> str:
    """The one source a config 'frame' section names, after checking its keys,
    that an ensemble is one of ``ENSEMBLES`` and that its n, m and seed are
    integers, 1 <= n <= m, seed >= 0."""
    sources = [key for key in _SECTION_KEYS["frame"] if key in spec] if isinstance(spec, dict) else []
    if len(sources) != 1:
        raise ConfigError(f"a frame section is an object naming exactly one of {'/'.join(_SECTION_KEYS['frame'])}")
    source = sources[0]
    _check_section(f"frame {source}", spec, _SECTION_KEYS["frame"][source])
    if source == "inline":
        _check_section("inline frame", spec["inline"], _SECTION_KEYS["inline"])
    if source == "ensemble":
        if spec["ensemble"] not in ENSEMBLES:
            raise ConfigError(f"unknown ensemble {spec['ensemble']!r}; known: {', '.join(ENSEMBLES)}")
        n, m, seed = spec.get("n"), spec.get("m"), spec.get("seed", 0)
        if not all(map(_whole, (n, m, seed))) or not 1 <= n <= m or seed < 0:
            raise ConfigError(f"an ensemble needs integers 1 <= n <= m and seed >= 0, "
                              f"got n={n!r} m={m!r} seed={seed!r}")
    return source


def _not_json(value):
    raise ConfigError(f"config value {value!r} of type {type(value).__name__} is not JSON data")


def load_config(source) -> dict:
    """Normalize and validate a config (dict or path to a JSON file)."""
    if isinstance(source, (str, bytes)):
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    elif isinstance(source, dict):
        try:
            raw = json.loads(json.dumps(source, default=_not_json))  # deep copy, JSON-normalized
        except (TypeError, ValueError) as exc:  # a key json cannot write, or a cycle
            raise ConfigError(f"config is not JSON data: {exc}") from exc
    else:
        raise ConfigError(f"config must be a dict or a path, got {type(source)!r}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")

    cfg = {
        "schema_version": raw.get("schema_version", SCHEMA_VERSION),
        "task": raw.get("task"),
        "frame": raw.get("frame"),
        "noise": raw.get("noise", {"kind": "none"}),
        "signal": raw.get("signal", {"kind": "gaussian", "norm": 1.0}),
        "algorithms": raw.get("algorithms", []),
        "trials": raw.get("trials", 1),
        "seed": raw.get("seed", 0),
        "success_threshold": raw.get("success_threshold", _SUCCESS_THRESHOLD),
        "sweep": raw.get("sweep"),
        "options": raw.get("options", {}),
    }
    _check_section("config", raw, [*cfg, "threads"])
    if raw.get("threads", 1) != 1:
        raise ConfigError("threads must be 1: trials run serially in one process")
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg['schema_version']}")
    if cfg["task"] not in _TASKS:
        raise ConfigError(f"task must be one of {_TASKS}, got {cfg['task']!r}")
    _frame_source(cfg["frame"])
    for name in ("signal", "options", "sweep"):
        if name != "sweep" or cfg["sweep"] is not None:  # only sweep and crlb need a sweep
            _check_section(name, cfg[name], _SECTION_KEYS[name])
    noise = cfg["noise"]
    kind = noise.get("kind", "none") if isinstance(noise, dict) else "none"
    if not isinstance(kind, str) or kind not in _SECTION_KEYS["noise"]:
        raise ConfigError(f"unknown noise kind {kind!r}")
    _check_section("noise", noise, _SECTION_KEYS["noise"][kind])
    if not _whole(cfg["trials"]) or cfg["trials"] < 1:
        raise ConfigError(f"trials must be an integer >= 1, got {cfg['trials']!r}")
    for key, (default, low, high) in TASK_OPTIONS.items():
        value = cfg["options"].get(key, default)
        if not _whole(value) or not low <= value <= high:
            raise ConfigError(f"options.{key} must be an integer from {low} to {high}, got {value!r}")
    seed = cfg["seed"]
    if not _whole(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    if not _positive(cfg["success_threshold"]):
        raise ConfigError(f"success_threshold must be a positive number, got {cfg['success_threshold']!r}")
    norm = cfg["signal"].get("norm")
    if norm is not None and not _positive(norm):
        raise ConfigError(f"signal.norm must be a positive number, got {norm!r}")
    if cfg["signal"].get("kind", "gaussian") != "gaussian":
        raise ConfigError(f"unknown signal kind {cfg['signal']['kind']!r}")
    if not isinstance(cfg["algorithms"], list) or not all(isinstance(a, dict) for a in cfg["algorithms"]):
        raise ConfigError("algorithms must be a list of objects with a 'name'")
    for alg in cfg["algorithms"]:
        _check_section("algorithm", alg, _SECTION_KEYS["algorithm"])
        name = alg.get("name")
        if not isinstance(name, str) or name not in recon.SOLVERS:
            raise ConfigError(f"unknown algorithm {name!r}")
        try:
            _solver_options(name, alg.get("options"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad options for {name}: {exc}") from exc
    names = [alg["name"] for alg in cfg["algorithms"]]
    if len(set(names)) < len(names):
        raise ConfigError(f"algorithms repeats a name, so its records would merge into one group: {names}")
    level = _NOISE_PARAMETER.get(kind)
    if cfg["task"] in ("crlb", "sweep"):
        sweep = cfg["sweep"]
        if not sweep:
            raise ConfigError(f"task {cfg['task']!r} requires a 'sweep' section")
        if sweep.get("parameter") not in ("sigma", "rho"):
            raise ConfigError("sweep.parameter must be 'sigma' or 'rho'")
        if level not in (None, sweep["parameter"]):
            raise ConfigError(f"{kind} noise is swept over {level!r}, not {sweep['parameter']!r}")
        if sweep["parameter"] in noise:
            raise ConfigError(f"noise.{sweep['parameter']} is the swept parameter; the sweep values replace it")
        values = sweep.get("values")
        if not isinstance(values, list) or not values or not all(map(_positive, values)):
            raise ConfigError(f"sweep.values must be a non-empty list of positive numbers, got {values!r}")
        if len(set(values)) < len(values):
            raise ConfigError(f"sweep.values repeats a value, so its seeded trials would rerun: {values!r}")
    elif cfg["task"] == "reconstruct" and level and not _positive(cfg["noise"].get(level)):
        raise ConfigError(f"{kind} noise requires a positive {level!r}")
    return cfg


def build_frame(spec: dict) -> Frame:
    """Materialize the frame a config 'frame' section names; a section that
    ``_frame_source`` refuses, an unreadable file or a malformed frame
    description is a ConfigError."""
    source = _frame_source(spec)
    try:
        if source == "inline":
            return frame_from_dict(spec["inline"])
        if source == "file":
            return load_frame(spec["file"])
        return random_frame(spec["n"], spec["m"], spec["ensemble"], spec.get("seed", 0))
    except (OSError, KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise ConfigError(f"bad frame {source}: {type(exc).__name__}: {exc}") from exc


def dump_json(obj) -> str:
    """Compact JSON with sorted keys, the one encoding of reports and CLI
    payloads.  Without ``indent``, json uses its C encoder, which writes the
    same data as the pure-Python one ``indent`` selects, 3.1-3.6x faster: a
    49 kB sweep report took 1.0-1.2 ms against 3.5-3.8 ms indented (2-vCPU
    Xeon, Python 3.11)."""
    return json.dumps(obj, sort_keys=True)


@dataclass
class Report:
    """Run output: config echo, per-trial records, recomputable aggregates."""

    config: dict
    task: str
    records: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    tables: list = field(default_factory=list)
    result: dict = field(default_factory=dict)
    artifact_version: str = ARTIFACT_VERSION
    timestamp: str = ""

    def to_dict(self) -> dict:
        return {
            "artifact_version": self.artifact_version,
            "config": self.config,
            "task": self.task,
            "records": self.records,
            "aggregates": self.aggregates,
            "tables": self.tables,
            "result": self.result,
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return dump_json(self.to_dict())

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def aggregates_match(self) -> bool:
        """Whether recomputing the aggregates from the records reproduces them exactly."""
        threshold = self.config.get("success_threshold", _SUCCESS_THRESHOLD)
        return compute_aggregates(self.records, threshold) == self.aggregates

    def deterministic_digest(self) -> str:
        """SHA-256 of the canonical JSON without the wall-clock fields: the
        top-level timestamp and each record's wall_time_s.  No other key of
        a report framepr writes is either name, since ``load_config``
        refuses unknown keys in every config section the report echoes."""
        payload = self.to_dict()
        del payload["timestamp"]
        payload["records"] = [{k: v for k, v in rec.items() if k != "wall_time_s"}
                              for rec in self.records]
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()


def _is_record(rec) -> bool:
    """An algorithm name plus an error or the numbers compute_aggregates reads."""
    return isinstance(rec, dict) and isinstance(rec.get("algorithm"), str) and (
        "error" in rec or all(_number(rec.get(key)) for key in ("d2_rel", "residual", "iterations")))


def report_from_dict(data: dict) -> Report:
    """Rebuild a Report from its JSON form.  It is a ConfigError unless data
    is an object with a 'config' object and a 'task', the success threshold
    is a positive number, every record passes ``_is_record``, the aggregates
    are an object of objects and the tables a list of objects."""
    if not isinstance(data, dict) or not isinstance(data.get("config"), dict) or "task" not in data:
        raise ConfigError("not a report: expected an object with a 'config' object and a 'task'")
    report = Report(
        config=data["config"],
        task=data["task"],
        records=data.get("records", []),
        aggregates=data.get("aggregates", {}),
        tables=data.get("tables", []),
        result=data.get("result", {}),
        artifact_version=data.get("artifact_version", ARTIFACT_VERSION),
        timestamp=data.get("timestamp", ""),
    )
    if not _positive(report.config.get("success_threshold", _SUCCESS_THRESHOLD)):
        raise ConfigError("not a report: config.success_threshold is not a positive number")
    if not isinstance(report.records, list) or not all(map(_is_record, report.records)):
        raise ConfigError("not a report: a record lacks an algorithm and an error or numeric results")
    if not isinstance(report.aggregates, dict) or not all(isinstance(a, dict) for a in report.aggregates.values()):
        raise ConfigError("not a report: aggregates are not an object of objects")
    if not isinstance(report.tables, list) or not all(isinstance(row, dict) for row in report.tables):
        raise ConfigError("not a report: tables are not a list of objects")
    return report


def load_report(path) -> Report:
    with open(path) as fh:
        return report_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# trial machinery
# ---------------------------------------------------------------------------

def _draw_signal(frame: Frame, signal: dict, seed) -> np.ndarray:
    rng = rng_from_seed(seed)
    if frame.is_real:
        x = rng.normal(size=frame.n).astype(complex)
    else:
        x = rng.normal(size=frame.n) + 1j * rng.normal(size=frame.n)
    norm = signal.get("norm")
    if norm is not None:
        x *= float(norm) / np.linalg.norm(x)
    return x


def _measure(frame: Frame, x, noise: dict, seed):
    kind = noise.get("kind", "none")
    if kind == "none":
        return intensity_map(frame, x)
    model = NoiseModel(
        kind=kind,
        sigma=noise.get("sigma"),
        rho=noise.get("rho"),
        seed=seed,
    )
    return simulate_measurements(frame, x, model)


def _sweep_noise(cfg: dict, value) -> dict:
    """The config's noise with a sweep value overlaid; kind none follows the parameter."""
    param = cfg["sweep"]["parameter"]
    noise = dict(cfg["noise"], **{param: value})
    if noise.get("kind", "none") == "none":
        noise["kind"] = "awgn" if param == "sigma" else "coefficient"
    return noise


def _solver_options(name: str, options: dict):
    """Options object for solver ``name`` (None when it takes no options)."""
    options = options or {}
    if not isinstance(options, dict):
        raise TypeError(f"options of {name} must be an object, got {type(options).__name__}")
    cls = recon.SOLVERS[name]
    if cls is None:
        if options:
            raise TypeError(f"{name} takes no options, got {sorted(options)}")
        return None
    flags = sorted(key for key, value in options.items() if isinstance(value, bool))
    if flags:
        # no solver option is boolean, and the dataclasses would read true as 1
        raise TypeError(f"options {flags} of {name} must be numbers or strings, not booleans")
    return cls(**options)


def run_reconstruction(frame: Frame, y, name: str, options, x_true=None):
    """Run the recon solver called ``name`` once; solver errors propagate."""
    solver = getattr(recon, name)
    if options is None:
        return solver(frame, y, x_true=x_true)
    return solver(frame, y, options, x_true=x_true)


def _reconstruct_trial(cfg: dict, frame: Frame, x, noise: dict, stem: list, trial: int) -> list:
    """Measure x once and run every configured algorithm on it, one record
    each.  The noise seed is ``stem`` extended by 1."""
    y = _measure(frame, x, noise, [*stem, 1])
    records = []
    for alg in cfg["algorithms"]:
        name = alg["name"]
        t0 = time.perf_counter()
        rec = {
            "trial": trial,
            "algorithm": name,
            "noise": noise,
        }
        try:
            options = _solver_options(name, alg.get("options"))
            result = run_reconstruction(frame, y, name, options, x_true=x)
            xnorm = float(np.linalg.norm(x))
            rec.update(
                d2_error=result.d2_error,
                d2_rel=result.d2_error / xnorm if xnorm > 0 else result.d2_error,
                d1_error=result.d1_error,
                residual=result.residual,
                iterations=result.iterations,
                converged=result.converged,
                stop_reason=result.stop_reason,
                flags=result.flags,
            )
        except FramePRError as exc:
            rec.update(error=f"{type(exc).__name__}: {exc}")
        rec["wall_time_s"] = time.perf_counter() - t0
        records.append(rec)
    return records


def compute_aggregates(records: list, threshold: float) -> dict:
    """Pure aggregation over reconstruction records; exact recomputation of a
    report's aggregates must reproduce this output bit for bit."""
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


def _run_trials(cfg: dict, frame: Frame, noise: dict, sweep_value=None) -> list:
    master = cfg["seed"]
    records = []
    for t in range(cfg["trials"]):
        x = _draw_signal(frame, cfg["signal"], [master, t, 0])
        for rec in _reconstruct_trial(cfg, frame, x, noise, [master, t], t):
            if sweep_value is not None:
                rec["sweep_value"] = sweep_value
            records.append(rec)
    return records


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def run_experiment(config) -> Report:
    """Execute one config end to end and return the report.

    Deterministic given the config (the timestamp and wall-time fields are
    excluded from that contract); per-trial seeds are derived from the master
    seed and the trial index.
    """
    cfg = load_config(config)
    frame = build_frame(cfg["frame"])
    report = Report(config=cfg, task=cfg["task"])
    report.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())

    opts = {key: cfg["options"].get(key, default) for key, (default, *_) in TASK_OPTIONS.items()}
    if cfg["task"] == "certify":
        if frame.is_real:
            cert = check_retrievable_real(frame)
        else:
            cert = certify_retrievable_complex(frame, budget=opts["budget"], seed=cfg["seed"])
        report.result = cert.to_dict()
        return report

    if cfg["task"] == "bounds":
        A, B = frame_bounds(frame)
        out = {"frame_lower_bound": A, "frame_upper_bound": B}
        if frame.is_real:
            certified = stability_bounds_real(frame, n_starts=opts["n_starts"], seed=cfg["seed"])
            out["certified"] = certified.to_dict()
        else:
            out["B0"] = B
            out["b0_multistart"] = fourth_moment_max(frame, n_starts=opts["n_starts"], seed=cfg["seed"])
        sampled = sampled_stability_bounds(frame, samples=opts["samples"], seed=cfg["seed"])
        out["empirical"] = sampled.to_dict()
        report.result = out
        return report

    if cfg["task"] == "reconstruct":
        report.records = _run_trials(cfg, frame, cfg["noise"])
        report.aggregates = compute_aggregates(report.records, cfg["success_threshold"])
        return report

    if cfg["task"] == "sweep":
        for value in cfg["sweep"]["values"]:
            report.records.extend(_run_trials(cfg, frame, _sweep_noise(cfg, value), sweep_value=value))
        report.aggregates = compute_aggregates(report.records, cfg["success_threshold"])
        report.tables = _sweep_table(report.aggregates)
        return report

    if cfg["task"] == "crlb":
        report.tables = crlb_reference_curve(cfg, frame)
        return report

    raise ConfigError(f"unhandled task {cfg['task']!r}")  # pragma: no cover


def _sweep_table(aggregates: dict) -> list:
    """One row per algorithm and noise level; a level whose trials all failed
    keeps its row (no error statistics) so its error count shows."""
    rows = []
    for key, entry in sorted(aggregates.items()):
        if "@" not in key:
            continue
        alg, value = key.rsplit("@", 1)
        rows.append(
            {
                "algorithm": alg,
                "noise_level": float(value),
                "d2_rel_mean": entry.get("d2_rel_mean"),
                "success_rate": entry.get("success_rate"),
                "count": entry["count"],
                "errors": entry["errors"],
            }
        )
    return rows


def crlb_reference_curve(cfg: dict, frame: Frame) -> list:
    """Table of trace-CRLB against Monte-Carlo estimator MSE over a noise grid.

    The phase is anchored at the true signal (the estimate is phase-aligned to
    x before the squared error is taken), matching the anchored bound.  Each
    row counts the trials an algorithm failed in ``failed_<name>``; its MSE
    averages the remaining trials (None when all failed).  ``cfg`` is a
    config as ``load_config`` returns it.
    """
    fisher = fisher_awgn if cfg["sweep"]["parameter"] == "sigma" else fisher_coefficient_noise
    master = cfg["seed"]
    x = _draw_signal(frame, cfg["signal"], [master, 917, 0])
    rows = []
    for iv, value in enumerate(cfg["sweep"]["values"]):
        bound = crlb(fisher(frame, x, float(value)), x)
        row = {
            "noise_level": float(value),
            "trace_crlb": float(np.trace(bound).real),
            "trials": cfg["trials"],
        }
        noise = _sweep_noise(cfg, value)
        trials = [_reconstruct_trial(cfg, frame, x, noise, [master, iv, t], t)
                  for t in range(cfg["trials"])]
        for alg, recs in zip(cfg["algorithms"], zip(*trials)):
            sq_errors = [rec["d2_error"] ** 2 for rec in recs if "error" not in rec]
            row[f"mse_{alg['name']}"] = float(np.mean(sq_errors)) if sq_errors else None
            row[f"failed_{alg['name']}"] = len(recs) - len(sq_errors)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def write_csv(rows: list, path) -> None:
    """RFC-4180 CSV for a list of flat dicts; the header is the union of their
    keys in first-seen order."""
    import csv

    keys: list[str] = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
