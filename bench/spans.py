"""Outside-in tracing of framepr's public functions.

Entering a `Tracer` replaces each listed function with a timing wrapper in
every framepr module namespace that binds it: the library imports helpers by
name (`from .linalg import hermitian_eig`), so patching only the defining
module would miss most calls.  Each call records a span (name, start, end,
parent span, item id) in memory; self time is the span's duration minus the
durations of its direct child spans.  Extra work counts are read from return
values, so nothing inside the library changes.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped in traced runs; every one is public API.
TARGETS = (
    ("linalg", "hermitian_eig"),
    ("linalg", "pseudo_inverse"),
    ("linalg", "cg_solve"),
    ("linalg", "power_method"),
    ("lifting", "lifted_map"),
    ("lifting", "lifted_map_adjoint"),
    ("lifting", "gradient_columns"),
    ("lifting", "gradient_gram"),
    ("frames", "analysis"),
    ("frames", "synthesis"),
    ("frames", "canonical_dual"),
    ("frames", "intensity_map"),
    ("metrics", "quotient_distance"),
    ("metrics", "outer_distance"),
    ("injectivity", "certify_retrievable_complex"),
    ("injectivity", "check_retrievable_real"),
    ("injectivity", "quotient_covering_radius"),
    ("injectivity", "bloch_fibonacci_net"),
    ("injectivity", "sphere_net"),
    ("estimation", "simulate_measurements"),
    ("estimation", "fisher_awgn"),
    ("estimation", "fisher_coefficient_noise"),
    ("estimation", "crlb"),
    ("recon", "lifted_linear"),
    ("recon", "phaselift"),
    ("recon", "gerchberg_saxton"),
    ("recon", "wirtinger_flow"),
    ("recon", "irls"),
    ("recon", "irls_objective"),
    ("recon", "spectral_init"),
    ("harness", "run_experiment"),
    ("harness", "run_reconstruction"),
    ("harness", "compute_aggregates"),
    ("harness", "crlb_reference_curve"),
    ("harness", "load_report"),
    ("harness", "write_csv"),
    ("cli", "main"),
)

MODULES = ("frames", "lifting", "linalg", "metrics", "injectivity",
           "estimation", "recon", "harness", "cli")

# points per row block in the covering-radius probe loop of injectivity
_PROBE_CHUNK = 32768

# extra counters, all exact for a fixed set of inputs
COUNTERS = (
    "linalg.cg_solve.iterations",
    "linalg.cg_solve.failed",
    "linalg.power_method.failed",
    "harness.run_reconstruction.failed",
    "harness.hidden_failures",
    "harness.report_bytes",
    "recon.phaselift.iterations",
    "recon.irls.iterations",
    "recon.lifted_linear.iterations",
    "recon.lifted_linear.converged",
    "recon.gerchberg_saxton.iterations",
    "recon.gerchberg_saxton.converged",
    "recon.wirtinger_flow.iterations",
    "recon.wirtinger_flow.converged",
    "injectivity.net_points_built",
    "injectivity.rounds",
    "injectivity.partitions",
    "injectivity.probe_block_bytes_max",
    "injectivity.verdicts.retrievable",
    "injectivity.verdicts.not_retrievable",
    "injectivity.verdicts.undecided",
)


def counter_unit(name: str) -> str:
    return "B" if name.endswith("bytes") or name.endswith("bytes_max") else "count"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    out = []
    for mod, fn in TARGETS:
        out.append((f"{mod}.{fn}.calls", "count"))
        out.append((f"{mod}.{fn}.self_s", "s"))
    out.extend((f"{mod}.self_s", "s") for mod in MODULES)
    out.extend((name, counter_unit(name)) for name in COUNTERS)
    return out


def _count_result(counters: dict, key: str, out) -> None:
    """Fold the work counts carried by one return value into ``counters``."""
    if key == "linalg.cg_solve":
        counters["linalg.cg_solve.iterations"] += int(out[2])
        counters["linalg.cg_solve.failed"] += int(not out[1])
    elif key == "linalg.power_method":
        counters["linalg.power_method.failed"] += int(not out[2])
    elif key in ("recon.phaselift", "recon.irls", "recon.lifted_linear",
                 "recon.gerchberg_saxton", "recon.wirtinger_flow"):
        counters[f"{key}.iterations"] += int(out.iterations)
        conv = f"{key}.converged"
        if conv in counters:
            counters[conv] += int(bool(out.converged))
    elif key in ("injectivity.bloch_fibonacci_net", "injectivity.sphere_net"):
        counters["injectivity.net_points_built"] += int(out.shape[0])
    elif key in ("injectivity.certify_retrievable_complex", "injectivity.check_retrievable_real"):
        counters["injectivity.rounds"] += int(out.nets_tested)
        verdict = f"injectivity.verdicts.{out.verdict}"
        counters[verdict] = counters.get(verdict, 0) + 1


def _count_args(counters: dict, key: str, args, kwargs) -> None:
    """Work counts that follow from the arguments alone (labelled computed)."""
    if key == "injectivity.check_retrievable_real":
        counters["injectivity.partitions"] += 1 << (args[0].m - 1)
    elif key == "injectivity.quotient_covering_radius":
        net = args[0]
        n_probes = kwargs.get("n_probes", args[1] if len(args) > 1 else 512)
        # two float64 blocks (real and imaginary parts) of rows x probes
        block = 2 * min(net.shape[0], _PROBE_CHUNK) * int(n_probes) * 8
        key_max = "injectivity.probe_block_bytes_max"
        counters[key_max] = max(counters[key_max], block)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as ``with Tracer(framepr) as tr:``; the original functions are back
    in place when the block exits, even on error.
    """

    def __init__(self, package):
        self.package = package
        self.names = [f"{m}.{f}" for m, f in TARGETS]
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.item = -1
        self.buf = array("d")  # flat (span id, name index, start, end, parent id, item) rows
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}
        self.unpatched: list[str] = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == prefix or name.startswith(prefix + "."))]

    def __enter__(self):
        modules = self._modules()
        for idx, (mod_name, fn_name) in enumerate(TARGETS):
            defining = sys.modules[f"{self.package.__name__}.{mod_name}"]
            original = getattr(defining, fn_name)
            self._originals[id(original)] = original
            wrapper = self._wrap(original, idx, f"{mod_name}.{fn_name}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        # any binding still pointing at an original escaped the patching
        for mod in modules:
            for attr, value in vars(mod).items():
                if id(value) in self._originals and value is self._originals[id(value)]:
                    self.unpatched.append(f"{mod.__name__}.{attr}")
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, fn, idx: int, key: str):
        stack = self._stack
        buf = self.buf
        calls, self_s, counters = self.calls, self.self_s, self.counters
        perf = time.perf_counter
        count_failures = key == "harness.run_reconstruction"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span_id = self._next_id
            self._next_id += 1
            entry = [span_id, 0.0]
            stack.append(entry)
            _count_args(counters, key, args, kwargs)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if count_failures:
                    counters["harness.run_reconstruction.failed"] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[key] += 1
                self_s[key] += dur - entry[1]
                buf.extend((span_id, idx, t0, t1, parent, self.item))
            _count_result(counters, key, out)
            return out

        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self time per function and module,
        then the extra counters."""
        out = {}
        for key in self.names:
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_s"] = (self.self_s[key], "s")
        for mod in MODULES:
            total = sum(v for k, v in self.self_s.items() if k.startswith(mod + "."))
            out[f"{mod}.self_s"] = (total, "s")
        for name in COUNTERS:
            out[name] = (self.counters.get(name, 0), counter_unit(name))
        return out

    def save(self, path) -> None:
        """Write every span as an (N, 6) float array plus the name table."""
        spans = np.frombuffer(self.buf, dtype=float).reshape(-1, 6)
        np.savez_compressed(path, spans=spans, names=np.array(self.names),
                            columns=np.array(["id", "name", "start", "end", "parent", "item"]))
