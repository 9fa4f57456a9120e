#!/usr/bin/env python3
"""Config-driven, bit-reproducible experiment runs.

A JSON config fully determines a run: frame source, noise model, algorithms,
trial count, master seed.  Per-trial seeds are derived from the master seed
and trial index, aggregates are exactly recomputable from the per-trial
records, and a run is bitwise reproducible (timestamps and wall times live
in excluded fields).  The same machinery backs the ``framepr`` command-line
tool.
"""
from framepr import compute_aggregates, run_experiment, write_csv

config = {
    "task": "sweep",
    "frame": {"ensemble": "gaussian", "n": 4, "m": 24, "seed": 21},
    "noise": {"kind": "awgn"},
    "sweep": {"parameter": "sigma", "values": [0.01, 0.05, 0.2]},
    "trials": 10,
    "seed": 42,
    "success_threshold": 1e-2,
    "algorithms": [
        {"name": "lifted_linear"},
        {"name": "wirtinger_flow", "options": {"max_iter": 1500}},
    ],
}

report = run_experiment(config)
print("sweep table:")
print(f"{'algorithm':<18} {'sigma':<8} {'mean rel D2':<14} success")
for row in report.tables:
    print(f"{row['algorithm']:<18} {row['noise_level']:<8} "
          f"{row['d2_rel_mean']:<14.4e} {row['success_rate']:.2f}")

# aggregates always recompute exactly from the records
assert compute_aggregates(report.records, config["success_threshold"]) == report.aggregates
print("\naggregates recomputed from records: exact match")

# determinism: the digest strips timestamps and wall-clock fields
again = run_experiment(config)
print("determinism:",
      report.deterministic_digest() == again.deterministic_digest())
print("digest:", report.deterministic_digest()[:16], "...")

report.save("demo_report.json")
write_csv(report.tables, "demo_sweep.csv")
print("\nwrote demo_report.json and demo_sweep.csv in the working directory")
print("equivalent CLI:  framepr sweep --config cfg.json --out report.json --csv sweep.csv")
