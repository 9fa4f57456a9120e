#!/usr/bin/env python3
"""Frames and phaseless measurements.

A frame is a redundant spanning set {f_1, ..., f_m} in C^n. The package
measures a signal x through the magnitudes |<x, f_k>| (or their squares);
everything downstream is about when and how x can be recovered from those
numbers up to a global phase.
"""
import numpy as np

from framepr import (
    analysis,
    canonical_dual,
    frame_bounds,
    intensity_map,
    magnitude_map,
    make_frame,
    random_frame,
    save_frame,
    load_frame,
    synthesis,
)

# --- a tiny hand-made frame ------------------------------------------------
frame = make_frame([[1, 0], [0, 1], [1, 1]])
print(f"frame: m={frame.m} vectors in R^{frame.n} (field tag: {frame.field})")

x = np.array([0.8, -0.6])
coeffs = analysis(frame, x)
print("coefficients <x, f_k>:", np.round(coeffs.real, 4))
print("magnitudes:", np.round(magnitude_map(frame, x), 4))
print("intensities:", np.round(intensity_map(frame, x), 4))

# the global phase of x is invisible to the measurements
x_rot = np.exp(0.7j) * x
assert np.allclose(magnitude_map(frame, x_rot), magnitude_map(frame, x))
print("a rotated copy of x gives identical magnitudes\n")

# --- frame bounds and the canonical dual -----------------------------------
A, B = frame_bounds(frame)
print(f"frame bounds: A={A:.4f}, B={B:.4f} (energy sandwich A||x||^2 <= ||Tx||^2 <= B||x||^2)")

dual = canonical_dual(frame)
recovered = synthesis(dual, analysis(frame, x))
print("dual-frame reconstruction error:", np.linalg.norm(recovered - x))

# --- random ensembles and frame files ---------------------------------------
gauss = random_frame(4, 16, "gaussian", seed=7)
sphere = random_frame(4, 16, "uniform_sphere", seed=7)
print(f"\ngaussian ensemble bounds: {np.round(frame_bounds(gauss), 2)}")
print(f"sphere ensemble row norms^2: {np.round(np.linalg.norm(sphere.vectors, axis=1)**2, 12)[:4]} ...")

save_frame(gauss, "/tmp/demo_frame.json")
reloaded = load_frame("/tmp/demo_frame.json")
assert np.array_equal(reloaded.vectors, gauss.vectors)
print("frame JSON round trip: exact")
