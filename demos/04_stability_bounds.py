#!/usr/bin/env python3
"""Stability constants: how well-conditioned is the inverse problem.

Four constants control reconstruction robustness: A0/B0 sandwich the
magnitude map against the phase-quotient distance, a0/b0 sandwich the
intensity map against the lifted nuclear-norm distance.  Real frames get A0
from a pruned search over all bipartitions, which returns the exhaustive
minimum; sphere extrema (a0, b0) come from projected-gradient multistarts;
Monte-Carlo difference quotients bracket everything from the empirical side.
"""
import numpy as np

from framepr import (
    certify_retrievable_complex,
    fourth_moment_max,
    frame_bounds,
    local_stability_bounds,
    make_frame,
    random_frame,
    sampled_stability_bounds,
    stability_bounds_real,
)

# --- certified bounds for a real frame ---------------------------------------
frame = make_frame([[1, 0], [0, 1], [1, 1]])
report = stability_bounds_real(frame, n_starts=32, seed=0)
print("real frame {e1, e2, e1+e2}:")
print(f"  A0 = {report.A0:.6f}  (exact value (3 - sqrt 5)/2 = {(3 - np.sqrt(5))/2:.6f})")
print(f"  B0 = {report.B0:.6f}  (upper frame bound)")
print(f"  a0 = {report.a0:.6f}  b0 = {report.b0:.6f}  (sphere extrema, multistart)")

sampled = sampled_stability_bounds(frame, samples=4000, seed=0)
print("  sampled brackets:"
      f" A0 in [{report.A0:.4f}, {sampled.A0:.4f}],"
      f" B0 up to {sampled.B0:.4f} <= {report.B0:.4f}")

# --- a complex frame: certified margin vs samples ------------------------------
cframe = random_frame(2, 8, "gaussian", seed=5)
cert = certify_retrievable_complex(cframe, seed=5)
csampled = sampled_stability_bounds(cframe, samples=4000, seed=5)
A, B = frame_bounds(cframe)
print(f"\ncomplex frame (n=2, m=8):")
print(f"  certified a0 = {cert.a0_lower:.4f} <= sampled a0 = {csampled.a0:.4f}")
print(f"  sampled B0 = {csampled.B0:.4f} <= B = {B:.4f}")
print(f"  b0 multistart = {fourth_moment_max(cframe, seed=5):.4f} >= sampled {csampled.b0:.4f}")

# --- local bounds at a point ----------------------------------------------------
z = np.array([1.0, 0.3 + 0.4j])
rec = local_stability_bounds(cframe, z)
print(f"\nlocal bounds at z: A(z)={rec['A']:.4f} B(z)={rec['B']:.4f} "
      f"a(z)={rec['a']:.4f} b(z)={rec['b']:.4f}")
rec0 = local_stability_bounds(cframe, np.zeros(2))
print(f"at z=0 they collapse to the frame bounds: "
      f"A_tilde(0)={rec0['A_tilde']:.4f}=A, B(0)={rec0['B']:.4f}=B")
