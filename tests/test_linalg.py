from types import SimpleNamespace

import numpy as np
import pytest

import framepr.linalg as linalg_mod
from framepr import (
    IndefiniteOperator,
    NoConvergence,
    NotHermitian,
    cg_solve,
    hermitian_eig,
    power_method,
    pseudo_inverse,
)
from framepr.linalg import DEFAULT_TOL, hermitian_basis, rank_one_coordinates, spd_solve
from conftest import random_complex, random_hermitian, random_unitary


def test_eig_identity():
    dec = hermitian_eig(np.eye(3))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_eig_diagonal():
    dec = hermitian_eig(np.diag([2.0, -1.0]))
    np.testing.assert_allclose(dec.eigenvalues, [2.0, -1.0])
    # eigenvectors are the canonical directions up to sign
    assert abs(abs(dec.eigenvectors[0, 0]) - 1.0) < 1e-14
    assert abs(abs(dec.eigenvectors[1, 1]) - 1.0) < 1e-14


def test_eig_rank_one(rng):
    # rank-one construction is its own oracle
    x = random_complex(rng, 4)
    x /= np.linalg.norm(x)
    dec = hermitian_eig(np.outer(x, x.conj()))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    e1 = dec.eigenvectors[:, 0]
    assert abs(abs(np.vdot(e1, x)) - 1.0) < 1e-12  # matches x up to phase


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale, raises", [(1.01, True), (0.99, False)])
def test_eig_tolerance_edge(scale, raises):
    # ||M - M*|| = sqrt(2) eps against tol * ||M|| = tol * sqrt(2 + eps^2)
    eps = scale * DEFAULT_TOL
    M = np.array([[1.0, eps], [0.0, 1.0]])
    if raises:
        with pytest.raises(NotHermitian):
            hermitian_eig(M)
    else:
        np.testing.assert_allclose(hermitian_eig(M).eigenvalues, [1.0 + eps / 2, 1.0 - eps / 2])


def _argsort_eig(M):
    """Reference ordering: symmetrize, eigh, argsort descending."""
    w, v = np.linalg.eigh(0.5 * (M + M.conj().T))
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


@pytest.mark.parametrize("n", range(1, 9))
def test_eig_matches_argsort_reference(rng, n):
    U = random_unitary(rng, n)
    repeated = np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n]
    inputs = [
        random_hermitian(rng, n),
        random_hermitian(rng, n).real,
        np.eye(n),
        # exactly self-adjoint, with each eigenvalue (up to roundoff) doubled
        0.5 * ((U * repeated) @ U.conj().T + ((U * repeated) @ U.conj().T).conj().T),
    ]
    for M in inputs:
        dec = hermitian_eig(M)
        w, v = _argsort_eig(M)
        np.testing.assert_array_equal(dec.eigenvalues, w)
        np.testing.assert_array_equal(dec.eigenvectors, v)


@pytest.mark.parametrize(
    "dtype", [np.float64, np.complex128, np.float32, np.complex64, np.int64]
)
@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_eig_dtypes_match_numpy_eigh(rng, dtype, n):
    # B + B* is exactly self-adjoint, so the symmetrization is the identity
    # and hermitian_eig's factorization sees what a plain np.linalg.eigh sees
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if not np.issubdtype(dtype, np.complexfloating):
        B = B.real * (10 if dtype is np.int64 else 1)
    B = B.astype(dtype)
    M = B + B.conj().T
    dec = hermitian_eig(M)
    w, v = np.linalg.eigh(M)
    assert dec.eigenvalues.dtype == w.dtype and dec.eigenvectors.dtype == v.dtype
    np.testing.assert_array_equal(dec.eigenvalues, w[::-1])
    np.testing.assert_array_equal(dec.eigenvectors, v[:, ::-1])


def test_eig_rejects_half_precision_as_numpy_eigh_does():
    for eig in (np.linalg.eigh, hermitian_eig):
        with pytest.raises(TypeError, match="unsupported in linalg"):
            eig(np.eye(2, dtype=np.float16))


def test_eig_lapack_failure_raises_no_convergence(monkeypatch):
    # np.linalg.eigh's gufunc reports a LAPACK failure as a NaN result with
    # the invalid flag raised, which eigh's errstate callback turns into a
    # LinAlgError; hermitian_eig raises NoConvergence from it
    def failing_eigh_lo(a, signature):
        return np.sqrt(np.full(a.shape[-1], -1.0)), np.full(a.shape, np.nan)

    numpy_linalg = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(numpy_linalg, "_umath_linalg", SimpleNamespace(eigh_lo=failing_eigh_lo))
    with pytest.raises(NoConvergence, match="did not converge"):
        hermitian_eig(np.eye(2))


@pytest.mark.parametrize("n", range(1, 9))
def test_eig_equals_the_direct_lapack_call_bit_for_bit(n):
    # hermitian_eig once called scipy's dsyevd/zheevd on the lower triangle
    # of the symmetrized input and reversed the result; np.linalg.eigh runs
    # the same routines, so nothing moves.  Where numpy's and scipy's LAPACK
    # builds round differently, this test fails and names the cause.
    from scipy.linalg import lapack

    for seed in range(6):
        rng = np.random.default_rng([n, seed])
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        noise = 1e-14 * rng.normal(size=(n, n))  # the symmetrization removes it
        for dtype, routine in (
            (np.float64, lapack.dsyevd), (np.float32, lapack.dsyevd),
            (np.int64, lapack.dsyevd), (np.complex128, lapack.zheevd),
            (np.complex64, lapack.zheevd),
        ):
            if np.issubdtype(dtype, np.complexfloating):
                M = (B + B.conj().T + noise).astype(dtype)
            elif dtype is np.int64:
                M = np.round(10 * (B.real + B.real.T)).astype(dtype)
            else:
                M = (B.real + B.real.T + noise).astype(dtype)
            S = M - 0.5 * (M - M.conj().T)
            w, v, info = routine(S, lower=1)
            assert info == 0
            w, v = w.astype(np.finfo(S.dtype).dtype)[::-1], v.astype(S.dtype)[:, ::-1]
            dec = hermitian_eig(M)
            assert dec.eigenvalues.dtype == w.dtype and dec.eigenvectors.dtype == v.dtype
            np.testing.assert_array_equal(dec.eigenvalues, w)
            np.testing.assert_array_equal(dec.eigenvectors, v)


def test_eig_residual_and_orthonormality(rng):
    M = random_hermitian(rng, 8)
    dec = hermitian_eig(M)
    scale = max(1.0, np.linalg.norm(M, 2))
    E = dec.eigenvectors
    assert np.linalg.norm((E * dec.eigenvalues) @ E.conj().T - M, 2) <= 1e-12 * scale
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)


def test_eig_unitary_invariance(rng):
    M = random_hermitian(rng, 6)
    U = random_unitary(rng, 6)
    e1 = hermitian_eig(M).eigenvalues
    e2 = hermitian_eig(U.conj().T @ M @ U).eigenvalues
    np.testing.assert_allclose(e1, e2, atol=1e-10 * max(1, np.abs(e1).max()))


def test_eig_trace_consistency(rng):
    M = random_hermitian(rng, 7)
    lam = hermitian_eig(M).eigenvalues
    assert abs(np.trace(M).real - lam.sum()) < 1e-10 * max(1, abs(np.trace(M)))


def test_pinv_diagonal():
    np.testing.assert_allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    np.testing.assert_allclose(pseudo_inverse(np.eye(3)), np.eye(3))


def test_pinv_rank_two_psd(rng):
    # random rank-2 PSD 4x4, checked through the Penrose identity
    B = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    P = B @ B.conj().T
    Pd = pseudo_inverse(P)
    assert np.linalg.norm(P @ Pd @ P - P) <= 1e-10 * np.linalg.norm(P)


def test_pinv_idempotent_on_full_rank(rng):
    M = random_hermitian(rng, 5) + 6.0 * np.eye(5)
    np.testing.assert_allclose(pseudo_inverse(pseudo_inverse(M)), M, atol=1e-8)


def test_cg_identity(rng):
    b = rng.normal(size=6)
    x, ok, iters = cg_solve(lambda v: v, b)
    assert ok and iters == 1
    np.testing.assert_allclose(x, b)


def test_cg_diagonal():
    A = np.diag([1.0, 2.0, 4.0])
    x, ok, _ = cg_solve(lambda v: A @ v, np.array([1.0, 2.0, 4.0]))
    assert ok
    np.testing.assert_allclose(x, np.ones(3), atol=1e-10)


def test_cg_matches_dense_solve(rng):
    B = rng.normal(size=(8, 8))
    A = B @ B.T + 8 * np.eye(8)
    b = rng.normal(size=8)
    x, ok, _ = cg_solve(lambda v: A @ v, b, tol=1e-12)
    assert ok
    np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-8)


@pytest.mark.parametrize("dtype", [float, complex])
def test_cg_early_exit_returns_a_fresh_copy_of_the_start(rng, dtype):
    B = rng.normal(size=(6, 6))
    A = B @ B.T + np.eye(6)
    b = rng.normal(size=6).astype(dtype)
    x0 = np.linalg.solve(A, b)
    x, ok, iters = cg_solve(lambda v: A @ v, b, tol=1e-8, x0=x0)
    assert (ok, iters) == (True, 0)
    assert x is not x0 and not np.shares_memory(x, x0)
    np.testing.assert_array_equal(x, x0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_cg_accepts_the_start_exactly_when_the_norm_reference_does(rng, dtype):
    # the residual test on the start, written with np.linalg.norm and a
    # per-call np.finfo; the tolerances sit one ulp around the residual ratio,
    # so any change in the bits of either side flips some decision
    decided = set()
    for trial in range(200):
        n = int(rng.integers(1, 20))
        B = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if dtype is complex else 0)
        A = B @ B.conj().T + np.eye(n)
        b = (10.0 ** rng.uniform(-150, 150)) * rng.normal(size=n).astype(dtype)
        if dtype is complex:
            b = b + 1j * b[::-1]
        x0 = np.linalg.solve(A, b) * (1 + 10.0 ** rng.uniform(-16, -2))
        ratio = np.linalg.norm(b - A @ x0) / np.linalg.norm(b)
        for tol in (np.nextafter(ratio, 0), ratio, np.nextafter(ratio, np.inf)):
            accept = np.linalg.norm(b - A @ x0) <= tol * max(np.linalg.norm(b), np.finfo(float).tiny)
            _, _, iters = cg_solve(lambda v: A @ v, b, tol=tol, max_iter=1, x0=x0)
            assert (iters == 0) == accept, (trial, tol)
            decided.add(bool(accept))
    assert decided == {True, False}


def test_spd_solve_matches_dense_solve(rng):
    for n in (1, 4, 16):
        B = rng.normal(size=(n, 3 * n))
        A = B @ B.T + 0.1 * np.eye(n)
        b = rng.normal(size=n)
        x = spd_solve(A, b)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-10, atol=1e-12)
        # the inputs stay untouched
        np.testing.assert_array_equal(A, B @ B.T + 0.1 * np.eye(n))


def test_spd_solve_falls_back_to_lu_without_positive_definiteness():
    # symmetric but indefinite: Cholesky meets a nonpositive pivot (info > 0)
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    b = np.array([1.0, -1.0])
    np.testing.assert_array_equal(spd_solve(A, b), np.linalg.solve(A, b))


def test_cg_flags_indefinite():
    A = np.diag([1.0, -1.0])
    with pytest.raises(IndefiniteOperator):
        cg_solve(lambda v: A @ v, np.array([0.0, 1.0]))


def test_power_method_diagonal():
    lam, e1, ok = power_method(np.diag([3.0, 1.0]), seed=1)
    assert ok
    assert abs(lam - 3.0) < 1e-10
    assert abs(abs(e1[0]) - 1.0) < 1e-8


def test_power_method_rank_one(rng):
    x = random_complex(rng, 5)
    lam, e1, ok = power_method(np.outer(x, x.conj()), seed=2)
    assert ok
    assert abs(lam - np.vdot(x, x).real) < 1e-8
    assert abs(abs(np.vdot(e1, x / np.linalg.norm(x))) - 1.0) < 1e-8


def test_power_method_matches_eigh(rng):
    B = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    M = B @ B.conj().T
    lam, e1, ok = power_method(M, seed=3, tol=1e-13)
    dec = hermitian_eig(M)
    assert ok
    assert abs(lam - dec.eigenvalues[0]) < 1e-8 * dec.eigenvalues[0]
    assert abs(abs(np.vdot(e1, dec.eigenvectors[:, 0])) - 1.0) < 1e-8


def test_power_method_deterministic():
    M = np.diag([2.0, 1.0, 0.5])
    r1 = power_method(M, seed=11)
    r2 = power_method(M, seed=11)
    assert r1[0] == r2[0]
    np.testing.assert_array_equal(r1[1], r2[1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
@pytest.mark.parametrize("where", [(0, 1), (1, 0), (1, 1)])
def test_eig_rejects_non_finite_entries(bad, where):
    # a NaN defect once failed the comparison defect > tol^2 and passed; the
    # symmetric pair [[1, inf], [inf, 1]] gave eigenvalues [nan, nan].  The
    # refusal raises NotHermitian and no RuntimeWarning.
    M = np.eye(2, dtype=complex)
    M[where] = bad
    with pytest.raises(NotHermitian):
        hermitian_eig(M)
    M[where[::-1]] = np.conj(bad)
    with pytest.raises(NotHermitian):
        hermitian_eig(M)
    with pytest.raises(NotHermitian):
        power_method(M)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hermitian_basis_coordinates_are_an_isometry(rng, n):
    U = hermitian_basis(n)
    assert U.shape == (n * n, n * n) and not U.flags.writeable
    assert hermitian_basis(n) is U
    np.testing.assert_allclose(U @ U.conj().T, np.eye(n * n), rtol=0, atol=1e-15)
    # the coordinates of a Hermitian X keep its norm and give X back
    X = random_hermitian(rng, n)
    z = (U.conj() @ X.ravel()).real
    assert np.linalg.norm(z) == pytest.approx(np.linalg.norm(X), rel=1e-14)
    np.testing.assert_allclose((U.T @ z).reshape(n, n), X, rtol=0, atol=1e-14 * np.linalg.norm(X))
    # any real coordinates give an exactly Hermitian matrix
    Z = (U.T @ rng.normal(size=n * n)).reshape(n, n)
    np.testing.assert_array_equal(Z, Z.conj().T)
    # rank_one_coordinates(u) are the coordinates of u u*, so their inner
    # products are |<u, v>|^2
    u = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    C = rank_one_coordinates(u)
    outer = np.einsum("ka,kb->kab", u, u.conj()).reshape(4, n * n)
    np.testing.assert_allclose(C, (outer @ U.conj().T).real, rtol=0, atol=1e-14 * np.abs(C).max())
    np.testing.assert_allclose(C @ C.T, np.abs(u.conj() @ u.T) ** 2, rtol=1e-13)
