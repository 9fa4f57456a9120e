#!/usr/bin/env python3
"""Fisher information and the Cramer-Rao floor.

Two noise models: additive Gaussian noise on the intensities, and complex
Gaussian noise hitting the coefficient before the magnitude is taken.  The
Fisher matrix lives in realified coordinates, is always rank-deficient (the
global phase direction carries no information), and its anchored
pseudo-inverse floors the covariance of any unbiased estimator.
"""
import numpy as np

from framepr import (
    NoiseModel,
    crlb,
    crlb_upper_bound,
    certify_retrievable_complex,
    fisher_awgn,
    fisher_coefficient_noise,
    hermitian_eig,
    random_frame,
    run_experiment,
    simulate_measurements,
)

frame = random_frame(2, 8, "gaussian", seed=6)
rng = np.random.Generator(np.random.Philox(6))
x = rng.normal(size=2) + 1j * rng.normal(size=2)
x /= np.linalg.norm(x)

# --- simulated measurements ---------------------------------------------------
y_awgn = simulate_measurements(frame, x, NoiseModel(kind="awgn", sigma=0.1, seed=1))
y_coef = simulate_measurements(frame, x, NoiseModel(kind="coefficient", rho=0.1, seed=1))
print("noisy intensities (awgn):        ", np.round(y_awgn[:4], 3))
print("noisy intensities (coefficient): ", np.round(y_coef[:4], 3))

# --- Fisher matrices ------------------------------------------------------------
fi_a = fisher_awgn(frame, x, sigma=0.1)
fi_c = fisher_coefficient_noise(frame, x, rho=0.1)
lam_a = hermitian_eig(fi_a.matrix).eigenvalues
print("\nawgn Fisher eigenvalues:", np.round(lam_a, 2), "(last one ~0: phase direction)")

# --- CRLB and its ceiling --------------------------------------------------------
bound = crlb(fi_a, x)
print("trace CRLB (awgn, anchored at x):", float(np.trace(bound)))
cert = certify_retrievable_complex(frame, seed=6)
ceiling = crlb_upper_bound(frame, x, x, 0.1, cert.a0_lower)
print("trace of the efficiency ceiling: ", float(np.trace(ceiling)))

# --- reference curve: bound vs realized estimator error ---------------------------
config = {
    "task": "crlb",
    "frame": {"ensemble": "gaussian", "n": 2, "m": 8, "seed": 6},
    "noise": {"kind": "awgn"},
    "sweep": {"parameter": "sigma", "values": [0.02, 0.05, 0.1, 0.2]},
    "trials": 200,
    "seed": 3,
    "algorithms": [{"name": "lifted_linear"}],
}
report = run_experiment(config)
print("\nsigma    trace-CRLB   MSE(lifted linear)")
for row in report.tables:
    print(f"{row['noise_level']:<8} {row['trace_crlb']:<12.6f} {row['mse_lifted_linear']:.6f}")
