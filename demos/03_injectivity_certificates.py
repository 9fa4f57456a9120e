#!/usr/bin/env python3
"""Deciding phase retrievability.

Real frames admit an exact combinatorial decision: the magnitudes determine x
up to sign iff every bipartition of the frame has a side spanning R^n.  When
that fails, the two null directions produce an explicit ambiguous pair.
Complex frames are certified numerically: a net over the (phase-quotient of
the) unit sphere lower-bounds the second-smallest eigenvalue of the gradient
Gram, and a perturbation argument extends the bound between net points.
"""
import numpy as np

from framepr import (
    certify_retrievable_complex,
    check_retrievable_real,
    magnitude_map,
    make_frame,
    min_measurement_count,
    quotient_distance,
    random_frame,
)

# --- real case ---------------------------------------------------------------
good = make_frame([[1, 0], [0, 1], [1, 1]])
print("three generic vectors in R^2:", check_retrievable_real(good).verdict)

bad = make_frame([[1, 0], [0, 1], [1, 0]])
cert = check_retrievable_real(bad)
x, y = cert.witness
print("\nrepeated direction:", cert.verdict)
print("  witness x =", x.real, " y =", y.real)
print("  magnitudes agree:", np.allclose(magnitude_map(bad, x), magnitude_map(bad, y)))
print("  classes differ:  D2(x, y) =", round(quotient_distance(x, y), 3))

# --- how many vectors are needed in C^n --------------------------------------
print("\nminimum vector counts for complex retrievability:")
for n in range(2, 9):
    print(f"  n={n}: m >= {min_measurement_count(n)} (4n-4 = {4*n-4})")

# --- complex certification ----------------------------------------------------
frame = random_frame(2, 8, "gaussian", seed=3)
cert = certify_retrievable_complex(frame, seed=3)
print(f"\nrandom complex frame (n=2, m=8): {cert.verdict}")
print(f"  certified margin a0 = {cert.a0_lower:.4f}")
print(f"  net: {cert.net_points} points, covering radius {cert.epsilon_final:.2e}, "
      f"{cert.nets_tested} rounds")

# a real frame read as a complex one always fails: x and conj(x) collide
real_in_c = make_frame(np.array([[1, 0], [0, 1], [1, 1]], dtype=complex), field="complex")
cert2 = certify_retrievable_complex(real_in_c, seed=4)
print(f"\nreal vectors in C^2: {cert2.verdict}")
wx, wy = cert2.witness
print("  extracted witness magnitude gap:",
      np.max(np.abs(magnitude_map(real_in_c, wx) - magnitude_map(real_in_c, wy))))
