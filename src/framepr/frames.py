"""Frames, analysis/synthesis maps, and the magnitude measurement maps.

A frame is a spanning set of m >= n vectors in C^n, stored as the rows of an
(m, n) complex array.  Real-tagged frames have exactly zero imaginary parts
and model measurement systems restricted to R^n.  The inner product convention
throughout the package is linear in the first argument and conjugate-linear in
the second: <x, f> = sum_i x_i conj(f_i).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from .errors import CombinatorialBudgetExceeded, DimensionMismatch, RankDeficient
from .linalg import hermitian_eig, hermitian_part, rank_one_coordinates

SPARK_TOL = 1e-10  # relative determinant below which is_full_spark sees dependence
SPARK_MAX_SUBSETS = 10**6  # most n-subsets is_full_spark enumerates
ENSEMBLES = ("gaussian", "uniform_sphere", "real_gaussian")  # random_frame's ensembles


def rng_from_seed(seed) -> np.random.Generator:
    """Philox counter-based generator; the package-wide reproducibility
    contract: every random frame, signal, noise draw, start, probe and net
    point is drawn from one."""
    return np.random.Generator(np.random.Philox(seed))


def _is_number(value) -> bool:
    """Whether ``value`` is an int, float or numpy number; a bool is an int,
    but JSON true is no count or level."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_count(name: str, value, low: int, high: int | None = None) -> None:
    """The package's one rule for a count (a dimension, budget, start or
    sample count): an integer from ``low`` to ``high`` (None: no cap)."""
    if not (_is_number(value) and isinstance(value, (int, np.integer))
            and low <= value and (high is None or value <= high)):
        limits = f"{name} >= {low}" if high is None else f"{low} <= {name} <= {high}"
        raise ValueError(f"need an integer {limits}, got {value!r}")


def _check_real(name: str, value, zero: bool = False) -> None:
    """The package's one rule for a level or constant (sigma, rho, a0, a
    threshold): a finite real above 0, or at least 0 when ``zero``.  NaN
    fails every comparison, and an int beyond every float the last."""
    if not (_is_number(value) and (0 <= value if zero else 0 < value) and value <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite {'non-negative' if zero else 'positive'} number, got {value!r}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Frame:
    """m vectors spanning C^n (rows of ``vectors``).

    The per-frame operators every solver and certificate runs on are cached
    properties, built on first use and read-only; the cache is sound because
    ``make_frame`` stores ``vectors`` read-only.
    """

    vectors: np.ndarray
    field: str  # "real" | "complex"

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def is_real(self) -> bool:
        return self.field == "real"

    @cached_property
    def conj_vectors(self) -> np.ndarray:
        """conj(vectors), shape (m, n): ``conj_vectors @ x`` is the vector of
        frame coefficients <x, f_k> (``analysis``)."""
        return _read_only(self.vectors.conj())

    @cached_property
    def realified_rows(self) -> np.ndarray:
        """[phi; J phi], shape (2m, 2n): rows phi_k = [Re f_k, Im f_k], then
        rows J phi_k = [-Im f_k, Re f_k].  ``realified_rows @ realify(x)`` is
        [Re c; Im c] for the frame coefficients c = analysis(frame, x)."""
        V = self.vectors
        return _read_only(np.block([[V.real, V.imag], [-V.imag, V.real]]))

    @cached_property
    def phi(self) -> np.ndarray:
        """Realified rows phi_k = [Re f_k, Im f_k], shape (m, 2n)."""
        return self.realified_rows[: self.m]

    @cached_property
    def jphi(self) -> np.ndarray:
        """Rows J phi_k = [-Im f_k, Re f_k], shape (m, 2n)."""
        return self.realified_rows[self.m :]

    @cached_property
    def hermitian_lift(self) -> np.ndarray:
        """M, real (m, n^2): row k holds the coordinates of f_k f_k* in
        ``linalg.hermitian_basis(n)``, so the lifted map X -> (trace(f_k f_k* X))_k
        is M z for the coordinates z of X's Hermitian part."""
        return _read_only(rank_one_coordinates(self.vectors))

    @cached_property
    def hermitian_lift_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, s, vh) = np.linalg.svd(hermitian_lift), with full matrices only
        when m < n^2: vh always has n^2 rows, so it spans the kernel also
        below n^2, and u is (m, min(m, n^2))."""
        m, n_sq = self.hermitian_lift.shape
        svd = np.linalg.svd(self.hermitian_lift, full_matrices=m < n_sq)
        return tuple(_read_only(a) for a in svd)

    @cached_property
    def dual(self) -> "Frame":
        """The canonical dual frame (see ``canonical_dual``)."""
        return canonical_dual(self)


def make_frame(vectors, field: str | None = None) -> Frame:
    """Validate and build a Frame from an (m, n) array of row vectors."""
    V = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if not (np.all(np.isfinite(V.real)) and np.all(np.isfinite(V.imag))):
        raise ValueError("frame vectors must be finite")
    m, n = V.shape
    if n < 1:
        raise ValueError(f"frame vectors need dimension n >= 1, got n={n}")
    if m < n:
        raise RankDeficient(f"need m >= n vectors, got m={m}, n={n}")
    if field is None:
        field = "real" if np.all(V.imag == 0.0) else "complex"
    if field == "real":
        if np.any(V.imag != 0.0):
            raise ValueError("real-tagged frame has nonzero imaginary parts")
    elif field != "complex":
        raise ValueError(f"unknown field tag {field!r}")
    if np.linalg.matrix_rank(V) < n:
        raise RankDeficient("frame vectors do not span the ambient space")
    V = V.copy()
    V.setflags(write=False)
    return Frame(vectors=V, field=field)


def analysis(frame: Frame, x) -> np.ndarray:
    """Frame coefficients c_k = <x, f_k>."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (frame.n,):
        raise DimensionMismatch(f"expected vector of length {frame.n}, got {x.shape}")
    return frame.conj_vectors @ x


def synthesis(frame: Frame, c) -> np.ndarray:
    """Adjoint of analysis: sum_k c_k f_k."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (frame.m,):
        raise DimensionMismatch(f"expected vector of length {frame.m}, got {c.shape}")
    return frame.vectors.T @ c


def magnitude_map(frame: Frame, x) -> np.ndarray:
    """|<x, f_k>| for each frame vector; invariant to a global phase on x."""
    return np.abs(analysis(frame, x))


def intensity_map(frame: Frame, x) -> np.ndarray:
    """|<x, f_k>|^2 for each frame vector."""
    c = analysis(frame, x)
    return (c * c.conj()).real


def frame_operator(frame: Frame) -> np.ndarray:
    """S = sum_k f_k f_k*."""
    V = frame.vectors
    return hermitian_part(V.T @ V.conj())


def frame_bounds(frame: Frame) -> tuple[float, float]:
    """Optimal frame bounds (A, B): extreme eigenvalues of the frame operator."""
    lam = hermitian_eig(frame_operator(frame)).eigenvalues
    return float(lam[-1]), float(lam[0])


def canonical_dual(frame: Frame) -> Frame:
    """Dual vectors S^{-1} f_k; satisfies sum_k <x, f_k> dual_k = x."""
    S = frame_operator(frame)
    duals = np.linalg.solve(S, frame.vectors.T).T
    if frame.is_real:
        duals = duals.real.astype(complex)
    return make_frame(duals, field=frame.field)


def is_full_spark(frame: Frame) -> bool:
    """True when every n-subset of the frame is linearly independent.

    Determinants are compared against SPARK_TOL times the product of the
    column norms (Hadamard scale), so the test is invariant to rescaling.
    More than SPARK_MAX_SUBSETS subsets raise CombinatorialBudgetExceeded.
    """
    m, n = frame.m, frame.n
    if comb(m, n) > SPARK_MAX_SUBSETS:
        raise CombinatorialBudgetExceeded(
            f"C({m},{n}) = {comb(m, n)} subsets exceeds cap {SPARK_MAX_SUBSETS}"
        )
    V = frame.vectors
    norms = np.linalg.norm(V, axis=1)
    for idx in combinations(range(m), n):
        sub = V[list(idx), :]
        scale = float(np.prod(norms[list(idx)]))
        if scale == 0.0:
            return False
        if abs(np.linalg.det(sub)) <= SPARK_TOL * scale:
            return False
    return True


def random_frame(n: int, m: int, ensemble: str = "gaussian", seed=0) -> Frame:
    """Seeded random frame from one of the three ``ENSEMBLES``.

    "gaussian": entries N(0, 1/2) + i N(0, 1/2) (unit variance per entry).
    "uniform_sphere": gaussian rows rescaled to norm sqrt(n) exactly.
    "real_gaussian": real N(0, 1) entries, real-tagged.
    """
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    _check_count("n", n, 1)
    _check_count("m", m, 1)
    if m < n:
        raise RankDeficient(f"need m >= n, got m={m}, n={n}")
    rng = rng_from_seed(seed)
    if ensemble == "real_gaussian":
        return make_frame(rng.normal(0.0, 1.0, (m, n)).astype(complex), field="real")
    V = rng.normal(0.0, np.sqrt(0.5), (m, n)) + 1j * rng.normal(0.0, np.sqrt(0.5), (m, n))
    if ensemble == "uniform_sphere":
        V *= np.sqrt(n) / np.linalg.norm(V, axis=1, keepdims=True)
    return make_frame(V, field="complex")


def encode_complex(a) -> list:
    """JSON-ready nested lists of [re, im] pairs for a complex array of any rank."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def decode_complex(data) -> np.ndarray:
    """Inverse of ``encode_complex``."""
    pairs = np.asarray(data, dtype=float)
    if pairs.ndim < 1 or pairs.shape[-1] != 2:
        raise ValueError(f"expected [re, im] pairs, got shape {pairs.shape}")
    return np.ascontiguousarray(pairs).view(complex)[..., 0]  # each pair as one complex128


def frame_to_dict(frame: Frame) -> dict:
    """JSON-ready dict: {"n", "m", "field", "vectors": [[[re, im], ...], ...]}."""
    return {
        "n": frame.n,
        "m": frame.m,
        "field": frame.field,
        "vectors": encode_complex(frame.vectors),
    }


def frame_from_dict(data: dict) -> Frame:
    vecs = decode_complex(data["vectors"])
    if vecs.shape != (data["m"], data["n"]):
        raise DimensionMismatch(
            f"vector table shape {vecs.shape} disagrees with header "
            f"(m={data['m']}, n={data['n']})"
        )
    return make_frame(vecs, field=data.get("field"))


def save_frame(frame: Frame, path) -> None:
    with open(path, "w") as fh:
        json.dump(frame_to_dict(frame), fh, indent=1)
        fh.write("\n")


def load_frame(path) -> Frame:
    with open(path) as fh:
        return frame_from_dict(json.load(fh))
