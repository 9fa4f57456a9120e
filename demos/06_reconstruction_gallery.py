#!/usr/bin/env python3
"""All five reconstruction algorithms on one instance.

Lifted linear inversion needs m >= n^2 and is exact without noise; the
trace-regularized PSD relaxation works from m ~ a few n; Gerchberg-Saxton is
cheap but guarantee-free; Wirtinger flow and the regularized least-squares
iteration both start from the spectral initializer and polish to machine
precision on well-posed instances.
"""
import numpy as np

from framepr import (
    GSOptions,
    gerchberg_saxton,
    intensity_map,
    irls,
    lifted_linear,
    phaselift,
    quotient_distance,
    random_frame,
    wirtinger_flow,
)

n, m = 4, 24
frame = random_frame(n, m, "gaussian", seed=11)
rng = np.random.Generator(np.random.Philox(11))
x = rng.normal(size=n) + 1j * rng.normal(size=n)
x /= np.linalg.norm(x)
y = intensity_map(frame, x)

print(f"instance: n={n}, m={m}, noiseless\n")
print(f"{'algorithm':<20} {'D2 error':<12} {'residual':<12} iterations")

results = {
    "lifted_linear": lifted_linear(frame, y, x_true=x),
    "phaselift": phaselift(frame, y, x_true=x),
    "gerchberg_saxton": gerchberg_saxton(frame, y, GSOptions(max_iter=2000), x_true=x),
    "wirtinger_flow": wirtinger_flow(frame, y, x_true=x),
    "irls": irls(frame, y, x_true=x),
}
for name, res in results.items():
    print(f"{name:<20} {res.d2_error:<12.2e} {res.residual:<12.2e} {res.iterations}")

# --- the estimates agree up to a global phase ---------------------------------
ref = results["wirtinger_flow"].x_hat
print("\npairwise class distances to the Wirtinger estimate:")
for name, res in results.items():
    if name != "wirtinger_flow":
        print(f"  {name:<18} {quotient_distance(res.x_hat, ref):.2e}")

# --- behaviour under noise ------------------------------------------------------
print("\nwith additive noise (sigma = 0.05):")
y_noisy = np.asarray(y) + np.random.Generator(np.random.Philox(12)).normal(0, 0.05, m)
for name, solver in (
    ("lifted_linear", lambda: lifted_linear(frame, y_noisy, x_true=x)),
    ("phaselift", lambda: phaselift(frame, y_noisy, x_true=x)),
    ("wirtinger_flow", lambda: wirtinger_flow(frame, y_noisy, x_true=x)),
    ("irls", lambda: irls(frame, y_noisy, x_true=x)),
):
    res = solver()
    print(f"  {name:<18} D2 error {res.d2_error:.3e}")
