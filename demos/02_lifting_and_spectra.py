#!/usr/bin/env python3
"""Realification and rank-one lifting.

Two changes of coordinates make phaseless measurements linear-algebra
friendly: (i) realify C^n as R^{2n}, where each frame vector induces a rank-2
PSD form whose quadratic form evaluates the intensity; (ii) lift x to the
rank-one matrix x x*, where the intensity map becomes linear.  The low-rank
matrices that appear (differences of two rank-one PSD matrices) have fully
closed-form spectra, which the package uses instead of eigensolvers wherever
it can.
"""
import numpy as np

from framepr import (
    apply_complex_structure,
    gradient_columns,
    gradient_gram,
    hermitian_eig,
    intensity_map,
    lift_outer,
    lifted_map,
    measurement_form,
    random_frame,
    rank_one_diff_spectrum,
    realify,
    sym_outer,
    sym_outer_spectrum,
)

rng = np.random.Generator(np.random.Philox(2))
frame = random_frame(3, 8, "gaussian", seed=1)
x = rng.normal(size=3) + 1j * rng.normal(size=3)
xi = realify(x)

# --- the measurement form --------------------------------------------------
Phi0 = measurement_form(frame.vectors[0])
print("rank of one measurement form:", np.linalg.matrix_rank(Phi0))
print(
    "quadratic form vs direct intensity:",
    float(xi @ Phi0 @ xi),
    "=",
    intensity_map(frame, x)[0],
)

# J xi always sits in the kernel of the gradient Gram: the phase direction is
# invisible to first order
R = gradient_gram(frame, xi)
print("||R(xi) J xi|| =", np.linalg.norm(R @ apply_complex_structure(xi)))
Z = gradient_columns(frame, xi)
print("R = Z Z^T check:", np.linalg.norm(R - Z @ Z.T))

# --- lifting ----------------------------------------------------------------
X = lift_outer(x)
print("\nlifted measurements == intensities:",
      np.allclose(lifted_map(frame, X), intensity_map(frame, x)))

# --- closed-form spectra ----------------------------------------------------
u = rng.normal(size=3) + 1j * rng.normal(size=3)
v = rng.normal(size=3) + 1j * rng.normal(size=3)
spec = sym_outer_spectrum(u, v)
lam = hermitian_eig(sym_outer(u, v)).eigenvalues
print("\nsymmetric outer product spectrum (closed form vs eigensolver):")
print(f"  a_plus  {spec.a_plus:.6f} vs {lam[0]:.6f}")
print(f"  a_minus {spec.a_minus:.6f} vs {lam[-1]:.6f}")

diff = rank_one_diff_spectrum(x, u)
lam2 = hermitian_eig(lift_outer(x) - lift_outer(u)).eigenvalues
print("difference of rank-ones, nuclear norm:", diff.norm1, "vs", np.abs(lam2).sum())

# --- the two metric families are NOT Lipschitz equivalent --------------------
# scaling both points by t scales the vector-quotient distance by t but the
# lifted-matrix distance by t^2: the ratio is unbounded (numeric
# demonstration only; no fixed constant exists in either direction)
from framepr import outer_distance, quotient_distance

a = rng.normal(size=3) + 1j * rng.normal(size=3)
b = rng.normal(size=3) + 1j * rng.normal(size=3)
print("\nscale t, ratio outer_distance / quotient_distance:")
for t in (0.1, 1.0, 10.0, 100.0):
    ratio = outer_distance(t * a, t * b, 2) / quotient_distance(t * a, t * b)
    print(f"  t={t:<6} ratio={ratio:.3f}")
