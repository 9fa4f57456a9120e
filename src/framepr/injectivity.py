"""Phase-retrievability certificates and stability (Lipschitz) bounds.

Real frames are decided exactly by a branch-and-bound search over the
bipartitions of the frame, which also yields an ambiguous-pair witness when
the frame fails.  A complex frame fails iff the kernel of its lifted map
holds a rank-2 matrix x x* - y y*, sought first by linear algebra at every
n.  Otherwise, for n <= N_CAP (2), the margin is certified by
lower-bounding the second-smallest eigenvalue of the gradient Gram operator
over two nets of the unit sphere, with a Weyl perturbation argument
extending the bound to the whole sphere; larger n is "undecided", because
the covering law asks for nets of 10^9 points and more there.

The eigenvalue map xi -> lambda_{2n-1}(gradient_gram(xi)) is exactly invariant
under the phase orbit xi -> cos(t) xi + sin(t) J xi, so the net only needs to
cover the (2n-2)-dimensional phase quotient of the sphere; covering radii are
measured in the quotient metric sqrt(2 - 2 |<u, v>|).

J xi always lies in the kernel of R(xi) = gradient_gram(xi): the k-th
gradient w_k = p_k phi_k + q_k J phi_k has w_k . J xi = -p_k q_k + q_k p_k = 0.
So lambda_{2n-1}(R) is the smallest eigenvalue of R on (J xi)^perp.  For
n = 2 that restriction is a 3x3 Gram whose eigenvalues have a closed form;
the net scan screens every point with it and re-evaluates exactly only the
points near a chunk extremum (see ``_scan_net``), so its results equal
those of an exact eigensolve at every point.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from itertools import chain
from math import ceil, log2

import numpy as np
from scipy.spatial import KDTree
from scipy.special import ndtri

from .errors import BudgetExceeded, InvalidPartition, NotPhaseRetrievable
from .frames import Frame, encode_complex, frame_bounds, magnitude_map, rng_from_seed
from .lifting import (
    _gradient_terms,
    gradient_gram,
    measurement_forms,
    normalized_gradient_gram,
    realify,
)
from .linalg import hermitian_basis, rank_one_coordinates
from .metrics import quotient_distance
from .recon import _check_counts

SPAN_TOL = 1e-10  # relative singular-value threshold for span tests
_SCAN_CHUNK = 1 << 13  # rows per chunk of the net scan
_PARTITION_BLOCK = 1 << 17  # nodes per block of the bipartition search
_INCUMBENT_NODES = 16  # lowest-bound nodes per block completed into leaves
_NET_BLOCK = 1 << 14  # rows per block while a Bloch net is built
_N_PROBES = 768  # random probes per covering-radius estimate
N_CAP = 2  # largest ambient dimension certify_retrievable_complex scans nets at
PARTITION_CAP = 24  # largest frame size the bipartition search accepts
# realified (-conj z_2, conj z_1) = xi @ _PERP for xi = realify(z_1, z_2)
_PERP = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]])

logger = logging.getLogger("framepr")


@dataclass(frozen=True)
class PRCertificate:
    """Outcome of a phase-retrievability decision procedure.

    verdict "retrievable" carries a strictly positive certified margin
    ``a0_lower`` (partition margin for real frames, net-certified eigenvalue
    bound for complex frames).  verdict "not_retrievable" carries a verified
    ambiguous pair ``witness = (x, y)`` with equal magnitude measurements and
    distinct phase classes, from a failing bipartition (real frames) or the
    lifted kernel (complex frames).  verdict "undecided" carries neither.
    """

    verdict: str
    a0_lower: float | None = None
    witness: tuple[np.ndarray, np.ndarray] | None = None
    epsilon_final: float | None = None
    nets_tested: int = 0
    b0_bound: float | None = None
    net_points: int | None = None
    seed: int | None = None
    notes: str = ""

    def to_dict(self) -> dict:
        witness = None if self.witness is None else encode_complex(self.witness)
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "witness": witness}


@dataclass(frozen=True)
class BoundsReport:
    """Global stability constants.

    A0/B0 bound the magnitude map against the phase-quotient 2-distance,
    a0/b0 bound the intensity map against the lifted 1-distance.  When
    ``empirical`` is True the values are Monte-Carlo brackets, not certified;
    otherwise ``details["numerical"]``, when present, names the values that
    are numerical estimates rather than certified bounds.
    """

    A0: float | None = None
    B0: float | None = None
    a0: float | None = None
    b0: float | None = None
    empirical: bool = False
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "A0": self.A0,
            "B0": self.B0,
            "a0": self.a0,
            "b0": self.b0,
            "empirical": self.empirical,
            "details": self.details,
        }


def min_measurement_count(n: int) -> int:
    """Lower bound on the number of vectors any complex phase-retrievable
    frame must have, in terms of the binary expansion of n - 1."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    b = bin(n - 1).count("1")
    extra = 0
    if n % 2 == 1:
        if b % 4 == 3:
            extra = 2
        elif b % 4 == 2:
            extra = 1
    return 4 * n - 2 - 2 * b + extra


# ---------------------------------------------------------------------------
# real case: bipartition search
# ---------------------------------------------------------------------------

def _bipartition_scan(frame: Frame):
    """Branch and bound over the 2^(m-1) unordered bipartitions of the frame.

    Returns (A0, fail_subset) where A0 is the minimum over partitions of the
    sum of the two lower frame bounds, and fail_subset is an index list for
    the first partition (in mask order) where neither side spans (None when
    every partition has a spanning side).

    Search.  Vector 0 always sits on the complement side; bit k-1 of a mask
    puts vector k in I.  Vectors are assigned in a fixed search order:
    vector 0, then the others by decreasing norm, so the bounds rise early.
    A node at depth p fixes the sides of the first p vectors of that order
    and carries LB = lambda_min(S_{I,p}) + lambda_min(S_{I^c,p}) over them.
    The search starts with every node at depth p0 = min(m, 2n); a child is
    its parent's two matrices with the next outer product O_p added to one
    side, so only that side needs a new eigensolve.  The frontier is
    processed depth-first in blocks of at most ``_PARTITION_BLOCK`` nodes.
    Pending nodes keep only their mask and two eigenvalues, and a block's
    matrices are rebuilt from its masks when it is expanded.  The incumbent
    ``best`` is the smallest exact leaf sum evaluated so far; each block
    first evaluates the two completions (every unassigned vector in I, or
    every one in I^c) of its lowest-bound nodes.  A block at depth m - 1 that
    pruned nothing has its children evaluated as leaves at once, without
    their bounds, which would rarely prune there.  Leaves that survive are
    evaluated with the expressions of an exhaustive scan: the full incidence
    row, then S_total - S_I.

    Soundness.  Adding the PSD terms of the unassigned vectors never lowers
    lambda_min (Weyl), so the exact LB of a node is at most the exact sum of
    every leaf below it.  Each computed quantity is a floating-point sum of
    at most m rank-one terms (a leaf adds one subtraction) followed by an
    eigensolve.  The sums err by a small multiple of m eps ||V||_F^2 and
    the eigensolver by a small multiple of n eps ||V||_2^2 per side.
    Nothing is pruned unless m > 2n, and there margin = 64 m eps ||V||_F^2
    exceeds both errors together.  So a computed LB never exceeds a computed
    leaf sum below it by more than margin.  A node is pruned only when
    LB > max(best, 2 screen_tol) + margin.  Every leaf below it then has a
    computed sum above best, so it is not the minimiser and A0 equals the
    exhaustive minimum bit for bit.  Its sum is also above 2 screen_tol, so
    its sides do not both pass the screen and it is no failure candidate.
    Every candidate is therefore evaluated.  Candidates are confirmed by
    ``_null_direction`` in increasing mask order, and the smallest confirmed
    mask is kept: the partition an exhaustive scan reports first.
    """
    m, n = frame.m, frame.n
    if m > PARTITION_CAP:
        raise BudgetExceeded(f"m={m} exceeds partition cap {PARTITION_CAP}")
    V = frame.vectors.real
    O = np.einsum("ki,kj->kij", V, V)
    S_total = O.sum(axis=0)
    smax = np.linalg.norm(V, 2)
    cutoff = _span_cutoff(V)
    eps = np.finfo(float).eps
    # Gram eigenvalues only resolve zeros to ~eps * ||S||, far above the
    # squared singular-value threshold; screen loosely here and confirm
    # candidate failures with an SVD of the actual subsets below
    screen_tol = max(cutoff**2, 64 * m * eps * smax**2)
    margin = 64 * m * eps * float(np.sum(V * V))
    shifts = np.arange(m - 1, dtype=np.uint64)

    def _lam_min(S):
        return np.linalg.eigvalsh(S)[:, 0]

    A0 = np.inf  # also the incumbent: the smallest leaf sum evaluated so far
    fail_mask = None  # smallest confirmed failing mask so far
    leaves = 0
    pruned = 0

    def evaluate(masks):
        nonlocal A0, fail_mask, leaves
        leaves += masks.size
        bits = ((masks[:, None] >> shifts) & 1).astype(float)  # indices 1..m-1
        inc = np.concatenate([np.zeros((bits.shape[0], 1)), bits], axis=1)
        S_I = np.einsum("ck,kij->cij", inc, O)
        lam_I = _lam_min(S_I)
        lam_Ic = _lam_min(S_total[None] - S_I)
        A0 = min(A0, float((lam_I + lam_Ic).min()))
        cands = masks[(lam_I <= screen_tol) & (lam_Ic <= screen_tol)]
        if fail_mask is not None:
            cands = cands[cands < fail_mask]
        for mask in np.sort(cands).tolist():
            subset = [k + 1 for k in range(m - 1) if (mask >> k) & 1]
            comp = [k for k in range(m) if k not in subset]
            if (_null_direction(V[subset], n, cutoff) is not None
                    and _null_direction(V[comp], n, cutoff) is not None):
                fail_mask = mask
                break

    # search order; masks keep the original bit of every vector
    order = np.concatenate([[0], 1 + np.argsort(-np.sum(V[1:] ** 2, axis=1), kind="stable")])
    O_order = O.reshape(m, n * n)[order]
    bit_shift = (order[1:] - 1).astype(np.uint64)  # mask bit of the j-th assigned vector

    def sides(masks, p):
        """S_{I,p} and S_{I^c,p} over the first p assigned vectors, per mask."""
        bits = ((masks[:, None] >> bit_shift[: p - 1]) & 1).astype(float)
        S_I = (bits @ O_order[1:p]).reshape(-1, n, n)
        S_c = ((1.0 - bits) @ O_order[1:p]).reshape(-1, n, n) + O[0]
        return S_I, S_c

    half = _PARTITION_BLOCK // 2  # parents per expansion, so children fit a block
    p0 = min(m, 2 * n)
    n_top = 1 << (p0 - 1)
    positions = np.arange(p0 - 1, dtype=np.uint64)
    for start in range(0, n_top, half):
        t = np.arange(start, min(start + half, n_top), dtype=np.uint64)
        bits = ((t[:, None] >> positions) & 1) << bit_shift[: p0 - 1]
        masks = bits.sum(axis=1, dtype=np.uint64)
        if p0 == m:
            evaluate(masks)
            continue
        S_I, S_c = sides(masks, p0)
        stack = [(p0, masks, _lam_min(S_I), _lam_min(S_c))]
        while stack:
            p, masks, lam_I, lam_c = stack.pop()
            lb = lam_I + lam_c
            if p < m:
                low = masks[np.argsort(lb, kind="stable")[:_INCUMBENT_NODES]]
                rest = np.bitwise_or.reduce(np.uint64(1) << bit_shift[p - 1 :])
                evaluate(np.concatenate([low, low | rest]))
            keep = lb <= max(A0, 2.0 * screen_tol) + margin
            n_pruned = masks.size - int(keep.sum())
            pruned += n_pruned
            masks, lam_I, lam_c = masks[keep], lam_I[keep], lam_c[keep]
            if masks.size == 0:
                continue
            if p == m:
                evaluate(masks)
                continue
            child_masks = np.concatenate([masks, masks | (np.uint64(1) << bit_shift[p - 1])])
            if p == m - 1 and n_pruned == 0:
                # the children are leaves, and below a block that pruned
                # nothing their bounds rarely prune either: evaluate them
                # directly instead of paying one more eigensolve per child
                for s in range(0, child_masks.size, half):
                    evaluate(child_masks[s : s + half])
                continue
            S_I, S_c = sides(masks, p)
            S_I += O[order[p]]
            S_c += O[order[p]]
            child_I = np.concatenate([lam_I, _lam_min(S_I)])
            child_c = np.concatenate([_lam_min(S_c), lam_c])
            for s in range(0, child_masks.size, half):
                stack.append((p + 1, child_masks[s : s + half],
                              child_I[s : s + half], child_c[s : s + half]))
    logger.debug(
        "bipartition scan m=%d n=%d: %d leaves evaluated, %d nodes pruned, %d partitions",
        m, n, leaves, pruned, 1 << (m - 1),
    )
    if fail_mask is None:
        return A0, None
    return A0, [k + 1 for k in range(m - 1) if (fail_mask >> k) & 1]


def _span_cutoff(V: np.ndarray) -> float:
    """Largest singular value that counts as zero in a span test on frame V."""
    return SPAN_TOL * max(np.linalg.norm(V, 2), np.finfo(float).tiny)


def _null_direction(rows: np.ndarray, n: int, cutoff: float):
    """Unit vector orthogonal to the rows' singular directions above
    ``cutoff``, or None when the rows span R^n at that cutoff."""
    if rows.shape[0] == 0:
        return np.eye(n)[0]
    _, s, vh = np.linalg.svd(rows, full_matrices=True)
    if s.size >= n and s[-1] > cutoff:
        return None
    return vh[-1].real


def ambiguous_pair_real(frame: Frame, subset) -> tuple[np.ndarray, np.ndarray]:
    """Ambiguous pair (x, y) = (u + v, u - v) from a failing bipartition.

    ``subset`` indexes one side of the partition; u is a unit null direction
    of that side's span and v of the complement's, at the span cutoff of the
    bipartition search.  The construction makes both magnitude measurement
    vectors equal while keeping the phase classes distinct.
    """
    if not frame.is_real:
        raise InvalidPartition("ambiguous pair construction applies to real frames")
    V = frame.vectors.real
    subset = sorted(set(int(k) for k in subset))
    comp = [k for k in range(frame.m) if k not in subset]
    cutoff = _span_cutoff(V)
    u = _null_direction(V[subset], frame.n, cutoff)
    v = _null_direction(V[comp], frame.n, cutoff)
    if u is None or v is None:
        raise InvalidPartition("one side of the partition spans the space")
    x = (u + v).astype(complex)
    y = (u - v).astype(complex)
    return x, y


def _verify_witness(frame: Frame, x, y) -> bool:
    """Whether (x, y) is an ambiguous pair, judged scale-free: the magnitudes
    agree to 1e-12 of the largest, and the phase classes lie more than 1e-6
    of the larger norm apart."""
    ax = magnitude_map(frame, x)
    ay = magnitude_map(frame, y)
    if np.max(np.abs(ax - ay)) > 1e-12 * np.max(ax):
        return False
    return quotient_distance(x, y) > 1e-6 * max(np.linalg.norm(x), np.linalg.norm(y))


def check_retrievable_real(frame: Frame) -> PRCertificate:
    """Exact decision for real-tagged frames by a pruned bipartition search.

    Retrievable iff every bipartition has a side spanning R^n; the certified
    margin is the minimum over partitions of the sum of the two lower frame
    bounds.  The search prunes a set of partitions only when a lower bound
    proves that none of them is the minimiser or a failing partition (see
    ``_bipartition_scan``), so the margin and the witness equal those of an
    exhaustive scan.  A failing partition gives "not_retrievable" only if its
    pair passes ``_verify_witness``, else "undecided".  Frames of more than
    PARTITION_CAP vectors raise BudgetExceeded.
    """
    if not frame.is_real:
        raise InvalidPartition("check_retrievable_real requires a real-tagged frame")
    A0, fail_subset = _bipartition_scan(frame)
    if fail_subset is None and A0 > 0.0:
        return PRCertificate(verdict="retrievable", a0_lower=A0)
    if fail_subset is None:
        # numerically zero margin without an explicit failing mask
        return PRCertificate(verdict="undecided", notes="zero partition margin")
    x, y = ambiguous_pair_real(frame, fail_subset)
    notes = f"failing partition subset {fail_subset}"
    if not _verify_witness(frame, x, y):
        return PRCertificate(verdict="undecided", notes=notes + " without a verified pair")
    return PRCertificate(verdict="not_retrievable", witness=(x, y), notes=notes)


# ---------------------------------------------------------------------------
# complex case: sphere-net certification
# ---------------------------------------------------------------------------

def sphere_net(dim: int, n_points: int, seed: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy point set on the unit sphere of R^dim.

    Scrambled Sobol points mapped through the normal quantile and normalized;
    the point count is rounded up to a power of two for balance.
    """
    # imported here: only complex nets at n = 1 need it, and scipy.stats is
    # slow to import
    from scipy.stats import qmc

    n_points = max(int(n_points), 2)
    k = ceil(log2(n_points))
    sob = qmc.Sobol(d=dim, scramble=True, seed=rng_from_seed(seed))
    u = sob.random_base2(k)
    g = ndtri(np.clip(u, 1e-15, 1.0 - 1e-15))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def bloch_fibonacci_net(n_points: int, seed: int = 0) -> np.ndarray:
    """Fibonacci lattice on the phase quotient of the unit sphere of C^2.

    Classes of unit vectors in C^2 form a 2-sphere; the lattice covers it
    near-optimally and each class is realified through the representative
    (cos(t/2), sin(t/2) e^{i phi}).  ``seed`` rotates the longitude origin.
    The rows are filled in blocks, so the temporaries stay a few MB however
    large the net.
    """
    n_points = max(int(n_points), 2)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    offset = 0.61803398875 * (seed if np.isscalar(seed) else sum(seed))
    out = np.empty((n_points, 4))
    for start in range(0, n_points, _NET_BLOCK):
        stop = min(start + _NET_BLOCK, n_points)
        i = np.arange(start, stop)
        z = 1.0 - (2.0 * i + 1.0) / n_points
        half = 0.5 * np.arccos(np.clip(z, -1.0, 1.0))
        phi = i * golden + offset
        s = np.sin(half)
        rows = out[start:stop]
        rows[:, 0] = np.cos(half)
        rows[:, 1] = s * np.cos(phi)
        rows[:, 2] = 0.0
        rows[:, 3] = s * np.sin(phi)
    return out


def _lifted_rows(rows: np.ndarray) -> np.ndarray:
    """``rank_one_coordinates`` of each realified unit row u, so
    ||L(u) - L(v)||^2 = 2 - 2 |<u, v>|^2 for unit u, v."""
    n = rows.shape[1] // 2
    return rank_one_coordinates(rows[:, :n] + 1j * rows[:, n:])


def quotient_covering_radius(
    net: np.ndarray, n_probes: int = 512, seed: int = 0
) -> float:
    """Sampled covering radius of a sphere net in the phase-quotient metric.

    Probes are random unit vectors; for each, the distance to the net is
    min_j sqrt(2 - 2 |<u, v_j>|) over the complexified points (distance to the
    full phase orbit of v_j, antipodes included).  That minimum is found
    exactly: the squared Euclidean distance between the lifts u u* and v v*
    is 2 - 2 |<u, v>|^2, so a k-d tree over the lifted net returns each
    probe's nearest phase class.  The estimate is inflated by a small safety
    factor; the probes are sampled, so it remains a sampled estimate, not a
    proof.
    """
    d = net.shape[1]
    n = d // 2
    rng = rng_from_seed([seed, 0x636F7665])
    probes = rng.normal(size=(n_probes, d))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    # sliding-midpoint splits build faster than median splits, and leaves of
    # 128 points in uncompacted nodes build and query faster than the default
    # 16; the search stays exact
    tree = KDTree(_lifted_rows(net), leafsize=128, compact_nodes=False, balanced_tree=False)
    _, nearest = tree.query(_lifted_rows(probes))
    near = net[nearest]
    jnear = np.concatenate([-near[:, n:], near[:, :n]], axis=1)
    re = np.einsum("pd,pd->p", near, probes)
    im = np.einsum("pd,pd->p", jnear, probes)
    best = re * re + im * im
    eps = float(np.sqrt(np.maximum(2.0 - 2.0 * np.sqrt(best), 0.0)).max())
    # the probe max is a lower estimate of the true covering radius; the
    # inflation absorbs the sampling gap observed against dense probe sets
    return 1.12 * eps


def _gram_eigs(phi: np.ndarray, jphi: np.ndarray, Xi: np.ndarray):
    """Second-smallest and largest eigenvalue of the gradient Gram at each row
    of Xi, from the Gram matrices W^T W and a batched ``eigvalsh``."""
    P = Xi @ phi.T
    Q = Xi @ jphi.T
    W = P[:, :, None] * phi[None] + Q[:, :, None] * jphi[None]
    ev = np.linalg.eigvalsh(W.transpose(0, 2, 1) @ W)
    return ev[:, 1], ev[:, -1]


def _screen_n2(phi: np.ndarray, jphi: np.ndarray, Xi: np.ndarray):
    """Closed-form (lambda_3, lambda_1) of the gradient Gram at unit rows of
    Xi for n = 2, accurate to about sqrt(eps) lambda_1 near a double root.

    On (J xi)^perp, R(xi) is the 3x3 Gram of s = p^2 + q^2, u = pP + qQ and
    v = pQ - qP in the orthonormal basis {xi, eta, J eta}, where
    eta = xi @ _PERP, (p, q) = (phi xi, J phi xi) and
    (P, Q) = (phi eta, J phi eta).  Its eigenvalues come from the
    trigonometric formula (Smith 1961; Kopp, arXiv physics/0610206).
    """
    m = phi.shape[0]
    rows = np.concatenate([phi, jphi, phi @ _PERP.T, jphi @ _PERP.T])
    C = rows @ Xi.T  # one contiguous (m, chunk) block per coordinate
    p, q, P, Q = C[:m], C[m : 2 * m], C[2 * m : 3 * m], C[3 * m :]
    s = p * p + q * q
    u = p * P + q * Q
    v = p * Q - q * P
    a, d, f = (np.einsum("kc,kc->c", x, x) for x in (s, u, v))
    b, c, e = (np.einsum("kc,kc->c", x, y) for x, y in ((s, u), (s, v), (u, v)))
    # G = [[a, b, c], [b, d, e], [c, e, f]]; B = (G - mean I) / r has
    # eigenvalues 2 cos(t + 2 pi j / 3) with cos(3 t) = det(B) / 2
    mean = (a + d + f) / 3.0
    a, d, f = a - mean, d - mean, f - mean
    r = np.sqrt((a * a + d * d + f * f + 2.0 * (b * b + c * c + e * e)) / 6.0)
    a, b, c, d, e, f = (x / np.where(r > 0.0, r, 1.0) for x in (a, b, c, d, e, f))
    half_det = 0.5 * (a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d))
    t = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    return mean + 2.0 * r * np.cos(t + 2.0 * np.pi / 3.0), mean + 2.0 * r * np.cos(t)


def _scan_net(phi: np.ndarray, jphi: np.ndarray, net: np.ndarray):
    """Batched eigenvalues of the gradient Gram over net points.

    Returns (min second-smallest, max largest), exactly as one
    ``_gram_eigs`` pass over the whole net would give them.

    For n = 2 each chunk is first screened in closed form: J xi lies in the
    kernel of R(xi), so lambda_3 and lambda_1 are the extreme eigenvalues of
    the 3x3 Gram built by ``_screen_n2``.  The screen errs by at most
    about 4e-14 lambda_1 on generic frames and 6e-9 lambda_1 near a double
    root (the tetrahedral SIC frame).  Only the rows whose screened lambda_3
    lies within tau = 1e-6 (chunk max screened lambda_1) of the chunk
    minimum, or whose screened lambda_1 lies within tau of the chunk
    maximum, are evaluated by ``_gram_eigs``.  As tau exceeds twice the
    screen error, every row whose exact value attains the chunk extremum is
    among them, so the result equals the unscreened scan bit for bit.
    """
    d = net.shape[1]
    m = phi.shape[0]
    chunk = max(4096, min(_SCAN_CHUNK, int(8e6 / max(m * d, 1))))
    lam3_min = np.inf
    lam1_max = 0.0
    for start in range(0, net.shape[0], chunk):
        Xi = net[start : start + chunk]
        if d == 4:
            lo, hi = _screen_n2(phi, jphi, Xi)
            tau = 1e-6 * hi.max()
            Xi = Xi[(lo <= lo.min() + tau) | (hi >= hi.max() - tau)]
        lam3, lam1 = _gram_eigs(phi, jphi, Xi)
        lam3_min = min(lam3_min, float(lam3.min()))
        lam1_max = max(lam1_max, float(lam1.max()))
    return lam3_min, lam1_max


def _kernel_witness(frame: Frame):
    """Candidate pair from a rank-2 element of the lifted map's kernel, read
    from the cached SVD of ``Frame.hermitian_lift``, or None.

    Such an element lambda_+ e_+ e_+* + lambda_- e_- e_-* gives the pair
    (sqrt(lambda_+) e_+, sqrt(-lambda_-) e_-) for ``_verify_witness`` to
    judge.  At n = 2 every nonzero kernel element of a spanning frame has
    rank 2.  At n = 3, for |det K| >= |det H|, H + t K has rank 2 at a real
    root t of the cubic det(H + t K), or H itself if det K = 0.
    """
    n = frame.n
    _, s, vh = frame.hermitian_lift_svd
    rows = vh[int(np.sum(s > SPAN_TOL * s[0])) :]
    kernel = [A.reshape(n, n) for A in rows @ hermitian_basis(n)]
    if not kernel:
        return None
    G = kernel[0]
    if n == 3 and len(kernel) > 1:
        H, K = sorted(kernel[:2], key=lambda A: abs(np.linalg.det(A)))
        ts = np.arange(-1.0, 3.0)  # the cubic through four of its values
        t = np.roots(np.polyfit(ts, [np.linalg.det(H + x * K).real for x in ts], 3))
        G = H + t[np.argmin(np.abs(t.imag))].real * K if np.linalg.det(K) != 0.0 else H
    w, e = np.linalg.eigh(G)
    return np.sqrt(max(w[-1], 0.0)) * e[:, -1], np.sqrt(max(-w[0], 0.0)) * e[:, 0]


def certify_retrievable_complex(
    frame: Frame,
    budget: int = 4_000_000,
    seed: int = 0,
) -> PRCertificate:
    """Decide complex phase retrievability: a kernel witness at every n,
    then two nets for n <= N_CAP; larger n without a witness is "undecided".

    A frame fails iff its lifted kernel holds a rank-2 matrix ("Saving
    phase", Bandeira-Cahill-Mixon-Nelson): when the pair of
    ``_kernel_witness`` passes ``_verify_witness``, the verdict is
    "not_retrievable" with no net tested.  Otherwise each of two rounds
    evaluates the second-smallest eigenvalue of the gradient Gram on a
    deterministic net and certifies half its minimum when twice the global
    spectral bound times the net covering radius eps is at most that margin
    (Weyl perturbation argument).  Round 0's 1024-point net calibrates the
    covering law eps ~ coef / N^(1/(2n-2)), which sizes round 1's net for the
    radius the margin needs, at most half round 0's, capped at ``budget``
    points.  The global spectral bound starts at B max_k ||f_k||^2 and is
    tightened each round by the sound update b <- min(b, max_net lambda_1 +
    2 b eps).  If round 1 fails too, its net minimum less the Weyl slack is
    the margin when positive, else the verdict is "undecided".  Covering
    radii use _N_PROBES probes; ``budget`` must be an integer >= 1.
    """
    _check_counts(1, budget=budget)
    n = frame.n
    _, B = frame_bounds(frame)
    b0 = B * float(np.max(np.linalg.norm(frame.vectors, axis=1) ** 2))

    def stop(verdict, **fields):
        return PRCertificate(verdict=verdict, nets_tested=nets, b0_bound=b0, seed=seed, **fields)

    nets = 0
    pair = _kernel_witness(frame)
    if pair is not None and _verify_witness(frame, *pair):
        return stop("not_retrievable", witness=pair, notes="rank-2 element of the lifted kernel")
    if n > N_CAP:
        return stop("undecided", notes=f"ambient dimension {n} above cap {N_CAP}")
    quotient_dim = max(2 * n - 2, 1)
    n_points = 1024
    for rnd in range(2):
        if n == 2:
            net = bloch_fibonacci_net(n_points, seed=[seed, rnd])
        else:
            net = sphere_net(2 * n, n_points, seed=[seed, rnd])
        n_built = net.shape[0]
        lam3_min, lam1_max = _scan_net(frame.phi, frame.jphi, net)
        nets += 1
        if n_built <= (1 << 18):
            eps_hat = quotient_covering_radius(net, n_probes=_N_PROBES, seed=seed + rnd)
        else:
            # the lattice covering radius follows coef / N^(1/dim) closely;
            # beyond the measurement size, extrapolate with a safety margin
            eps_hat = 1.1 * coef / n_built ** (1.0 / quotient_dim)
        if 2.0 * eps_hat < 1.0:
            for _ in range(4):
                b0 = min(b0, lam1_max + 2.0 * b0 * eps_hat)
        a0 = 0.5 * lam3_min
        if a0 > 0.0 and 2.0 * b0 * eps_hat <= a0:
            return stop("retrievable", a0_lower=a0, epsilon_final=eps_hat, net_points=n_built)
        if rnd == 0:
            # calibrate the covering law eps ~ coef / N^(1/quotient_dim) and
            # size the last net for the radius the margin needs
            coef = eps_hat * n_built ** (1.0 / quotient_dim)
            goal = max(min(0.5 * eps_hat, a0 / (2.0 * b0) if a0 > 0 else np.inf), 1e-12)
            n_points = min(int(max(1.3 * (coef / goal) ** quotient_dim, 2 * n_built)), budget)
    salvage = lam3_min - 2.0 * b0 * eps_hat
    if salvage > 0.0:
        # a thinner but still positive certified margin (Weyl slack
        # subtracted directly from the net minimum)
        return stop(
            "retrievable", a0_lower=salvage, epsilon_final=eps_hat, net_points=n_built,
            notes="margin from the last net (below the half-minimum rule)",
        )
    return stop("undecided", net_points=n_built, notes="net budget exhausted")


# ---------------------------------------------------------------------------
# stability bounds
# ---------------------------------------------------------------------------

def _project_sphere(x):
    return x / np.linalg.norm(x)


def _multistart_extremum(value_grad, dim, n_starts, seed, maximize, iters=400, tol=1e-10):
    """Projected-gradient multistart over the unit sphere of R^dim.

    ``value_grad(x) -> (value, grad)``; returns (best value, best point).
    """
    rng = rng_from_seed([seed, 0x73706872])
    # random starts are drawn one at a time, then the coordinate axes
    starts = chain((rng.normal(size=dim) for _ in range(n_starts)), np.eye(dim))
    sign = -1.0 if maximize else 1.0
    best_val, best_x = np.inf, None
    for s in starts:
        x = _project_sphere(s)
        val, grad = value_grad(x)
        val *= sign
        step = 0.5
        for _ in range(iters):
            g = sign * grad
            g_tan = g - (g @ x) * x
            gnorm = np.linalg.norm(g_tan)
            if gnorm <= tol * max(abs(val), 1.0):
                break
            improved = False
            while step > 1e-14:
                x_new = _project_sphere(x - step * g_tan)
                val_new, grad_new = value_grad(x_new)
                val_new *= sign
                if val_new < val - 1e-14 * abs(val):
                    x, val, grad = x_new, val_new, grad_new
                    step *= 1.3
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if val < best_val:
            best_val, best_x = val, x
    return sign * best_val, best_x


def fourth_moment_max(frame: Frame, n_starts: int = 64, seed: int = 0) -> float:
    """max over unit x of sum_k |<x, f_k>|^4 by projected-gradient multistart.

    Real-tagged frames are optimized over the real sphere, complex frames over
    the realified sphere (the objective is phase-invariant).  ``n_starts``
    random starts (an integer >= 0) run besides the n or 2n basis vectors.
    """
    _check_counts(0, n_starts=n_starts)
    if frame.is_real:
        V = frame.vectors.real

        def value_grad(x):
            c = V @ x
            return float(np.sum(c**4)), 4.0 * (V.T @ (c**3))

        val, _ = _multistart_extremum(value_grad, frame.n, n_starts, seed, maximize=True)
        return val

    phi, jphi = frame.phi, frame.jphi

    def value_grad(xi):
        p = phi @ xi
        q = jphi @ xi
        s = p * p + q * q
        grad = 4.0 * (phi.T @ (s * p) + jphi.T @ (s * q))
        return float(np.sum(s * s)), grad

    val, _ = _multistart_extremum(value_grad, 2 * frame.n, n_starts, seed, maximize=True)
    return val


def _min_weighted_operator_eig(frame: Frame, n_starts: int, seed: int):
    """min over unit real x of lambda_min(sum_k <x,f_k>^2 f_k f_k^T)."""
    V = frame.vectors.real
    O = np.einsum("ki,kj->kij", V, V)

    def value_grad(x):
        c = V @ x
        R = np.einsum("k,kij->ij", c**2, O)
        w, vecs = np.linalg.eigh(R)
        v = vecs[:, 0]
        grad = 2.0 * (V.T @ (c * (V @ v) ** 2))
        return float(w[0]), grad

    return _multistart_extremum(value_grad, frame.n, n_starts, seed, maximize=False)


def stability_bounds_real(
    frame: Frame,
    n_starts: int = 64,
    seed: int = 0,
) -> BoundsReport:
    """Global stability constants for a real phase-retrievable frame.

    Only A0 and B0 are certified: A0 is the margin of
    ``check_retrievable_real``, which must find the frame retrievable, and B0
    equals the upper frame bound.  a0 and b0 are sphere extrema found by
    projected-gradient multistart, so a0 (a minimum) is an upper estimate and
    b0 (a maximum) a lower estimate; ``details["numerical"]`` names them.
    ``n_starts`` is an integer >= 0, as in ``fourth_moment_max``.
    """
    _check_counts(0, n_starts=n_starts)
    cert = check_retrievable_real(frame)
    if cert.verdict != "retrievable":
        raise NotPhaseRetrievable(f"frame is not certified phase retrievable: {cert.verdict}")
    A, B = frame_bounds(frame)
    a0, _ = _min_weighted_operator_eig(frame, n_starts, seed)
    b0 = fourth_moment_max(frame, n_starts, seed)
    return BoundsReport(
        A0=cert.a0_lower,
        B0=B,
        a0=float(a0),
        b0=float(b0),
        empirical=False,
        details={"A": A, "B": B, "n_starts": n_starts, "seed": seed, "numerical": ["a0", "b0"]},
    )


def local_stability_bounds(frame: Frame, z) -> dict:
    """Per-point stability record for the complex-case formulas.

    A and a/b require z != 0 and are None at z = 0; A_tilde and B remain
    defined there and reduce to the optimal frame bounds.  ``zero_set`` lists
    the vectors whose measurement is numerically zero at z: exactly the terms
    normalized_gradient_gram leaves out.
    """
    xi = realify(z)
    nz2 = float(xi @ xi)
    zero_set = np.flatnonzero(_gradient_terms(frame, xi)[2])
    correction = measurement_forms(frame)[zero_set].sum(axis=0)
    S_plain = normalized_gradient_gram(frame, xi)
    ev_corr = np.linalg.eigvalsh(S_plain + correction)
    record = {
        "A_tilde": float(ev_corr[1]),
        "B": float(ev_corr[-1]),
        "zero_set": [int(k) for k in zero_set],
    }
    if nz2 > 0.0:
        ev_plain = np.linalg.eigvalsh(S_plain)
        ev_R = np.linalg.eigvalsh(gradient_gram(frame, xi))
        record.update(
            A=float(ev_plain[1]),
            a=float(ev_R[1] / nz2),
            b=float(ev_R[-1] / nz2),
        )
    else:
        record.update(A=None, a=None, b=None)
    return record


def sampled_stability_bounds(frame: Frame, samples: int = 2000, seed: int = 0) -> BoundsReport:
    """Monte-Carlo brackets for the global stability constants.

    Draws both independent and perturbative pairs; the reported values are the
    sampled extrema of the defining difference quotients and are flagged
    non-certified.  ``samples`` must be an integer >= 2.
    """
    _check_counts(2, samples=samples)
    rng = rng_from_seed([seed, 0x73616D70])
    n, m = frame.n, frame.m
    V = frame.vectors

    def draw(count):
        if frame.is_real:
            return rng.normal(size=(count, n)).astype(complex)
        return rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))

    half = samples // 2
    X1 = np.concatenate([draw(half), draw(samples - half)])
    X2 = np.empty_like(X1)
    X2[:half] = draw(half)
    # perturbation scale floor 1e-3: the difference quotients lose ~eps/delta^2
    # relative accuracy, and the sampled sup must stay below the true bound to
    # 1e-9
    deltas = 10.0 ** rng.uniform(-3, -1, size=(samples - half, 1))
    X2[half:] = X1[half:] + deltas * draw(samples - half)

    C1 = X1 @ V.conj().T
    C2 = X2 @ V.conj().T
    alpha1, alpha2 = np.abs(C1), np.abs(C2)
    beta1, beta2 = alpha1**2, alpha2**2
    ip = np.einsum("si,si->s", X1.conj(), X2)
    nx2 = np.einsum("si,si->s", X1.conj(), X1).real
    ny2 = np.einsum("si,si->s", X2.conj(), X2).real
    D2sq = np.maximum(nx2 + ny2 - 2.0 * np.abs(ip), 0.0)
    d1sq = np.maximum((nx2 + ny2) ** 2 - 4.0 * np.abs(ip) ** 2, 0.0)

    dalpha = np.sum((alpha1 - alpha2) ** 2, axis=1)
    dbeta = np.sum((beta1 - beta2) ** 2, axis=1)
    okA = D2sq > 1e-18 * np.maximum(nx2, ny2)
    oka = d1sq > 1e-24 * np.maximum(nx2, ny2) ** 2
    ratioA = dalpha[okA] / D2sq[okA]
    ratioa = dbeta[oka] / d1sq[oka]
    return BoundsReport(
        A0=float(ratioA.min()),
        B0=float(ratioA.max()),
        a0=float(ratioa.min()),
        b0=float(ratioa.max()),
        empirical=True,
        details={"samples": samples, "seed": seed},
    )
