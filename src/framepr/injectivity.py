"""Phase-retrievability certificates and stability (Lipschitz) bounds.

Real frames are decided exactly by a branch-and-bound search over the
bipartitions of the frame, which also yields an ambiguous-pair witness when
the frame fails.  A complex frame fails iff the kernel of its lifted map
holds a rank-2 matrix x x* - y y*, sought first by linear algebra at every
n.  Otherwise the margin, the least second-smallest eigenvalue of the
gradient Gram operator, is certified in closed form at n = 1, and at
n = N_CAP = 2 bounded by a net minimum less a Weyl perturbation term, whose
covering radius is a sampled estimate; larger n is "undecided", because the
covering law asks for nets of 10^9 points there.

The eigenvalue map xi -> lambda_{2n-1}(gradient_gram(xi)) is exactly invariant
under the phase orbit xi -> cos(t) xi + sin(t) J xi, so the net only needs to
cover the (2n-2)-dimensional phase quotient of the sphere; covering radii are
measured in the quotient metric sqrt(2 - 2 |<u, v>|).

J xi always lies in the kernel of R(xi) = gradient_gram(xi): the k-th
gradient w_k = p_k phi_k + q_k J phi_k has w_k . J xi = -p_k q_k + q_k p_k = 0.
So lambda_{2n-1}(R) is the second-smallest eigenvalue of R, and at n = 2 the
three others are the roots of a cubic.  R(xi) is a fixed quadratic form in
xi, so one per-frame table of its coefficients gives that cubic at a net
point in a cost that does not grow with m.  The net scan screens every
point with it and re-evaluates exactly only the points near a chunk
extremum (see ``_scan_net``), so its results equal those of an exact
eigensolve at every point.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .errors import BudgetExceeded, InvalidPartition, NotPhaseRetrievable
from .frames import Frame, _check_count, encode_complex, frame_bounds, magnitude_map, rng_from_seed
from .lifting import _gradient_terms, _normalized_gram, gradient_gram, measurement_forms, realify
from .linalg import hermitian_basis
from .metrics import quotient_distance

SPAN_TOL = 1e-10  # relative singular-value threshold for span tests
_SCAN_CHUNK = 1 << 13  # rows per chunk of the net scan
_PARTITION_BLOCK = 1 << 17  # nodes per block of the bipartition search
_INCUMBENT_NODES = 16  # lowest-bound nodes per block completed into leaves
_NET_BLOCK = 1 << 14  # rows per block while a Bloch net is built
_N_PROBES = 768  # random probes per covering-radius estimate
_PRODUCT_BLOCK = 1 << 16  # entries per probe-by-row product of the covering-radius search
_KEY_ROUND = 1e-12  # rounding allowance of the covering-radius key windows
N_CAP = 2  # largest ambient dimension certify_retrievable_complex scans nets at
PARTITION_CAP = 24  # largest frame size the bipartition search accepts
_MULTISTART_ITERS = 400  # projected-gradient steps per multistart start
_MULTISTART_TOL = 1e-10  # relative tangent-gradient norm that ends a start
# the counts the certificates and bounds take, as (smallest, largest): a net
# point costs 32 bytes, a multistart start up to _MULTISTART_ITERS steps, and
# sampled bounds hold several (samples, m) complex arrays
_COUNTS = {"budget": (1, 32_000_000), "n_starts": (0, 10_000), "samples": (2, 1_000_000)}

logger = logging.getLogger("framepr")


@dataclass(frozen=True)
class PRCertificate:
    """Outcome of a phase-retrievability decision procedure.

    verdict "retrievable" carries a strictly positive certified margin
    ``a0_lower`` (partition margin for real frames; for complex frames a
    lower bound on min_xi lambda_{2n-1}(R(xi)), with ``b0_bound`` an upper
    bound on lambda_1(R)).  verdict "not_retrievable" carries a verified
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
        return {f.name: getattr(self, f.name) for f in fields(self)}


def min_measurement_count(n: int) -> int:
    """Lower bound on the number of vectors any complex phase-retrievable
    frame must have, in terms of the binary expansion of n - 1."""
    _check_count("n", n, 1)
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

    Returns (A0, fail_subset, null_dirs).  When the search confirms a
    partition where neither side spans, fail_subset is the index list of its
    side I, null_dirs is the pair (u, v) that proved it: the unit null
    directions ``_null_direction`` gives for that side and its complement at
    the span cutoff SPAN_TOL ||V||_2, and A0 is None.  Otherwise both are
    None and A0 is the minimum over partitions of the sum of the two lower
    frame bounds.

    Search.  Vector 0 always sits on the complement side; bit k-1 of a mask
    puts vector k in I.  Vectors are assigned in a fixed search order:
    vector 0, then the others by decreasing norm, so the bounds rise early.
    A node at depth p fixes the sides of the first p vectors of that order
    and carries LB, the sum of one lower bound per side on lambda_min of that
    side's matrix S_{I,p} or S_{I^c,p} over them.  The search starts from one
    root: mask 0 at depth 1, vector 0 alone on the complement side, with
    both bounds 0.  A child is its parent's two matrices with the next outer
    product O_p added to one side; that side gets a new eigensolve, and the
    other keeps its parent's bound.  The frontier is processed depth-first
    in blocks of at most ``_PARTITION_BLOCK`` nodes.  Pending nodes keep
    only their mask and two bounds, and a block's matrices are rebuilt from
    its masks when it is expanded.  The incumbent ``best`` is the smallest
    exact leaf sum evaluated so far; each block first evaluates the two
    completions (every unassigned vector in I, or every one in I^c) of its
    lowest-bound nodes.  Leaves that survive are evaluated with the
    expressions of an exhaustive scan: the full incidence row, then
    S_total - S_I.  Each leaf is evaluated once.  A leaf is a completion
    only of the nodes on its own root path, so a node records which of its
    two completions were evaluated, and a child inherits the record of the
    completion it shares with its parent: the I^c child the all-in-I^c
    one, the I child the all-in-I one.

    Soundness.  Every side's matrix is PSD, so 0 bounds its lambda_min, and
    adding the PSD terms of the unassigned vectors never lowers lambda_min
    (Weyl); so the exact LB of a node is at most the exact sum of every leaf
    below it.  Each computed quantity is a floating-point sum of at most m
    rank-one terms (a leaf adds one subtraction) followed by an eigensolve.
    The sums err by a small multiple of m eps ||V||_F^2 and the eigensolver
    by a small multiple of n eps ||V||_2^2 per side.  As n <= m and
    ||V||_2^2 <= ||V||_F^2, margin = 64 m eps ||V||_F^2 exceeds both errors
    together at every depth.  So a computed LB never exceeds a computed leaf
    sum below it by more than margin.  A node is pruned only when
    LB > max(best, 2 screen_tol) + margin.  Every leaf below it then has a
    computed sum above best, so it is not the minimiser and A0 equals the
    exhaustive minimum bit for bit.  Its sum is also above 2 screen_tol, so
    its sides do not both pass the screen and it is no failure candidate.
    Every candidate is therefore evaluated.  Candidates are confirmed by
    ``_null_direction`` as their leaves are evaluated, and the first one
    confirmed ends the search: by the complement property one failing
    partition already proves the frame not retrievable.  A frame with no
    confirmed candidate runs the whole search, so its A0 is exact.
    """
    m, n = frame.m, frame.n
    if m > PARTITION_CAP:
        raise BudgetExceeded(f"m={m} exceeds partition cap {PARTITION_CAP}")
    V = frame.vectors.real
    O = np.einsum("ki,kj->kij", V, V)
    S_total = O.sum(axis=0)
    smax = np.linalg.norm(V, 2)
    cutoff = SPAN_TOL * max(smax, np.finfo(float).tiny)  # largest singular value that counts as 0
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
    fail_subset = null_dirs = None  # the confirmed failing partition
    leaves = 0
    pruned = 0

    def evaluate(masks):
        """Evaluates the leaves; True when one is a confirmed failing partition."""
        nonlocal A0, fail_subset, null_dirs, leaves
        leaves += masks.size
        bits = ((masks[:, None] >> shifts) & 1).astype(float)  # indices 1..m-1
        inc = np.concatenate([np.zeros((bits.shape[0], 1)), bits], axis=1)
        S_I = np.einsum("ck,kij->cij", inc, O)
        lam_I = _lam_min(S_I)
        lam_Ic = _lam_min(S_total[None] - S_I)
        A0 = min(A0, float((lam_I + lam_Ic).min()))
        for mask in masks[(lam_I <= screen_tol) & (lam_Ic <= screen_tol)].tolist():
            subset = [k + 1 for k in range(m - 1) if (mask >> k) & 1]
            comp = [k for k in range(m) if k not in subset]
            u = _null_direction(V[subset], n, cutoff)
            v = None if u is None else _null_direction(V[comp], n, cutoff)
            if v is not None:
                fail_subset, null_dirs = subset, (u, v)
                return True
        return False

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
    # the root: vector 0 alone on the complement side, both bounds 0, no
    # completion evaluated
    stack = [(1, np.zeros(1, dtype=np.uint64), np.zeros(1), np.zeros(1), np.zeros((2, 1), bool))]
    while stack:
        p, masks, lam_I, lam_c, done = stack.pop()
        lb = lam_I + lam_c
        if p < m:
            low = np.argsort(lb, kind="stable")[:_INCUMBENT_NODES]
            rest = np.bitwise_or.reduce(np.uint64(1) << bit_shift[p - 1 :])
            ends = np.concatenate([masks[low], masks[low] | rest])
            fresh = ends[~done[:, low].ravel()]
            done[:, low] = True
            if fresh.size and evaluate(fresh):
                break
        keep = lb <= max(A0, 2.0 * screen_tol) + margin
        pruned += masks.size - int(keep.sum())
        masks, lam_I, lam_c, done = masks[keep], lam_I[keep], lam_c[keep], done[:, keep]
        if masks.size == 0:
            continue
        if p == m:
            fresh = masks[~(done[0] | done[1])]
            if fresh.size and evaluate(fresh):
                break
            continue
        child_masks = np.concatenate([masks, masks | (np.uint64(1) << bit_shift[p - 1])])
        S_I, S_c = sides(masks, p)
        S_I += O[order[p]]
        S_c += O[order[p]]
        child_I = np.concatenate([lam_I, _lam_min(S_I)])
        child_c = np.concatenate([_lam_min(S_c), lam_c])
        # a child shares one completion with its parent: the I^c child the
        # all-in-I^c one, the I child the all-in-I one
        child_done = np.zeros((2, child_masks.size), bool)
        child_done[0, : masks.size] = done[0]
        child_done[1, masks.size :] = done[1]
        for s in range(0, child_masks.size, half):
            stack.append((p + 1, child_masks[s : s + half], child_I[s : s + half],
                          child_c[s : s + half], child_done[:, s : s + half]))
    logger.debug(
        "bipartition scan m=%d n=%d: %d leaves evaluated, %d nodes pruned, %d partitions; stopped %s",
        m, n, leaves, pruned, 1 << (m - 1),
        "with no failing partition" if null_dirs is None else "at a failing partition",
    )
    return (A0 if null_dirs is None else None), fail_subset, null_dirs


def _null_direction(rows: np.ndarray, n: int, cutoff: float):
    """Unit vector orthogonal to the rows' singular directions above
    ``cutoff``, or None when the rows span R^n at that cutoff."""
    if rows.shape[0] == 0:
        return np.eye(n)[0]
    _, s, vh = np.linalg.svd(rows, full_matrices=True)
    if s.size >= n and s[-1] > cutoff:
        return None
    return vh[-1].real


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
    ``_bipartition_scan``), so the margin equals that of an exhaustive scan
    and no failure candidate is skipped.  The search stops at the first
    failing partition it confirms, which need not be the one an exhaustive
    scan meets first.  A failing partition with null directions u and v of
    its two sides gives the pair (x, y) = (u + v, u - v), whose magnitude
    measurements agree while the phase classes differ; the verdict is
    "not_retrievable" only if the pair passes ``_verify_witness``, else
    "undecided".  Frames of more than PARTITION_CAP vectors raise
    BudgetExceeded.
    """
    if not frame.is_real:
        raise InvalidPartition("check_retrievable_real requires a real-tagged frame")
    A0, fail_subset, null_dirs = _bipartition_scan(frame)
    if fail_subset is None and A0 > 0.0:
        return PRCertificate(verdict="retrievable", a0_lower=A0)
    if fail_subset is None:
        # numerically zero margin without an explicit failing mask
        return PRCertificate(verdict="undecided", notes="zero partition margin")
    u, v = null_dirs
    x, y = (u + v).astype(complex), (u - v).astype(complex)
    notes = f"failing partition subset {fail_subset}"
    if not _verify_witness(frame, x, y):
        return PRCertificate(verdict="undecided", notes=notes + " without a verified pair")
    return PRCertificate(verdict="not_retrievable", witness=(x, y), notes=notes)


# ---------------------------------------------------------------------------
# complex case: sphere-net certification
# ---------------------------------------------------------------------------

def sphere_net(dim: int, n_points: int, seed: int = 0) -> np.ndarray:
    """``n_points`` random directions on the unit sphere of R^dim: Gaussian
    rows from ``rng_from_seed(seed)``, normalized, so a seed fixes the set."""
    _check_count("n_points", n_points, 2)
    g = rng_from_seed(seed).normal(size=(n_points, dim))
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
    _check_count("n_points", n_points, 2)
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


def _nearest_rows(net: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Index of the row v of ``net`` of largest overlap |<u, v>|^2 for each
    row u of ``probes``; all rows are unit vectors.

    The key of a row is |u_1|^2.  A net whose keys run down (every Bloch
    net) is searched in place on -key, any other net sorted by key.  A
    probe's window is the rows whose keys lie within its reach of its own
    key.  The first reach w0 is that of a class at the lifted distance
    sqrt(2) N^(-1/(2n-2)), about the spacing of N classes spread evenly
    over the quotient.  A probe is settled once its window reaches
    sqrt(1 - 1/n) sqrt(2 - 2 b + _KEY_ROUND) + _KEY_ROUND, b its best
    overlap so far (see ``quotient_covering_radius``); an unsettled probe is
    searched again with that reach, at most twice its last one.  Probes go
    in key order, in blocks of about 3 P w0 of the P probes (at least 8),
    which also break where the windows of neighbouring probes part.  Each
    product holds at most ``_PRODUCT_BLOCK`` entries.
    """
    N, d = net.shape
    n = d // 2
    P = probes.shape[0]
    ends = net[:, ::n]  # the columns of u_1's real and imaginary parts
    keys = np.einsum("ij,ij->i", ends, ends)
    probe_keys = probes[:, 0] ** 2 + probes[:, n] ** 2
    rows, order = net, None
    if np.all(keys[1:] <= keys[:-1]):
        keys, probe_keys = -keys, -probe_keys
    else:
        order = np.argsort(keys)
        keys, rows = keys[order], net[order]
    slope = np.sqrt(1.0 - 1.0 / n)
    reach0 = (slope * np.sqrt(2.0) * N ** (-1.0 / (2 * n - 2)) if n > 1 else 0.0) + _KEY_ROUND
    block = int(min(P, max(8, round(3 * P * reach0))))
    # the probes u, then their (u_2, -u_1): v . (u_2, -u_1) = (J v) . u
    pairs = np.stack([probes, np.concatenate([probes[:, n:], -probes[:, :n]], axis=1)])
    best = np.zeros(P)
    nearest = np.zeros(P, dtype=np.intp)
    todo = np.argsort(probe_keys)
    reach = np.full(P, reach0)
    while todo.size:
        key = probe_keys[todo]
        lo, hi = key - reach[todo], key + reach[todo]
        parted = 1 + np.flatnonzero(lo[1:] > np.maximum.accumulate(hi)[:-1])
        bounds = np.append(np.union1d(np.arange(0, todo.size, block), parted), todo.size)
        klo = np.minimum.reduceat(lo, bounds[:-1])
        khi = np.maximum.reduceat(hi, bounds[:-1])
        first = np.searchsorted(keys, klo, "left")
        last = np.searchsorted(keys, khi, "right")
        cols, b, near = pairs[:, todo], best[todo], nearest[todo]
        for s, e, r0, r1 in zip(bounds[:-1].tolist(), bounds[1:].tolist(),
                                first.tolist(), last.tolist()):
            k = e - s
            c = cols[:, s:e].reshape(2 * k, d)
            step = max(1, _PRODUCT_BLOCK // (2 * k))
            for r in range(r0, r1, step):
                G = c @ rows[r : min(r + step, r1)].T
                np.square(G, out=G)
                overlap = G[:k]
                overlap += G[k:]
                i = overlap.argmax(axis=1)
                v = overlap[np.arange(k), i]
                up = v > b[s:e]
                np.copyto(b[s:e], v, where=up)
                np.copyto(near[s:e], i + r, where=up)
        best[todo], nearest[todo] = b, near
        # the key range each probe's block searched, unbounded at the net's ends
        width = np.diff(bounds)
        covered_lo = np.repeat(np.where(first > 0, klo, -np.inf), width)
        covered_hi = np.repeat(np.where(last < N, khi, np.inf), width)
        need = slope * np.sqrt(np.maximum(2.0 - 2.0 * b, 0.0) + _KEY_ROUND) + _KEY_ROUND
        short = (covered_lo > key - need) | (covered_hi < key + need)
        todo = todo[short]
        reach[todo] = np.minimum(need[short], 2.0 * reach[todo])
    return nearest if order is None else order[nearest]


def quotient_covering_radius(net: np.ndarray, seed: int = 0) -> float:
    """Sampled covering radius of a net of unit rows in the phase-quotient
    metric.

    _N_PROBES random unit vectors probe the net; for each, the distance to
    the net is min_j sqrt(2 - 2 |<u, v_j>|) over the complexified points
    (distance to the full phase orbit of v_j, antipodes included).  That
    minimum is found exactly, at the row of largest overlap |<u, v_j>|^2,
    provided the rows are unit vectors, as the rows of both nets here are.

    Search.  For unit rows the n diagonal lifted coordinates |u_a|^2 sum to
    1, so by Cauchy-Schwarz the key |u_1|^2 of two rows differs by at most
    sqrt(1 - 1/n) D, D the lifted distance sqrt(2 - 2 |<u, v>|^2).  A probe
    whose best overlap so far is b therefore has its nearest class among
    the rows whose keys lie within sqrt(1 - 1/n) sqrt(2 - 2 b) of its own.
    The search sorts the net and the probes by key, multiplies key-sorted
    blocks of probes by the rows in their key windows, and widens a window
    only while the probe's best overlap does not prove it wide enough
    (``_nearest_rows``).  That test adds _KEY_ROUND = 1e-12 to 2 - 2 b and
    to the reach, far above the rounding of the overlaps and of the keys (a
    few eps each).

    The largest probe distance times 1.12 is an estimate, not an upper
    bound: the exact radius (largest spherical Delaunay circumradius) of the
    last certificate net of random_frame(2, 8, seed=k), k < 10, exceeds it
    8 times, by up to 7.6%.
    """
    d = net.shape[1]
    n = d // 2
    rng = rng_from_seed([seed, 0x636F7665])
    probes = rng.normal(size=(_N_PROBES, d))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    near = net[_nearest_rows(net, probes)]
    jnear = np.concatenate([-near[:, n:], near[:, :n]], axis=1)
    re = np.einsum("pd,pd->p", near, probes)
    im = np.einsum("pd,pd->p", jnear, probes)
    best = re * re + im * im
    eps = float(np.sqrt(np.maximum(2.0 - 2.0 * np.sqrt(best), 0.0)).max())
    # the probe max is a lower estimate of the true covering radius, and the
    # inflation does not always close the gap (see the docstring)
    return 1.12 * eps


def _gram_table(frame: Frame):
    """Coefficients (T, e) of the n = 2 gradient Gram as a quadratic form.

    R(xi) = sum_k Phi_k xi xi^T Phi_k for the forms Phi_k of
    ``measurement_forms``, so R_ij(xi) = sum_ab K[i, a, b, j] xi_a xi_b with
    K = sum_k Phi_k (x) Phi_k, one (16 x m)(m x 16) product.  Folded onto
    the 10 monomials xi_a xi_b (a <= b), it gives the 10 entries R_ij
    (i <= j) as 2^e T @ monomials, both in ``np.triu_indices(4)`` order.
    2^e is the power of two that puts the largest |T| in [1/2, 1), so the
    screen's cubic coefficients neither overflow nor underflow.
    """
    F = measurement_forms(frame).reshape(frame.m, 16)
    K = (F.T @ F).reshape(4, 4, 4, 4)
    i, j = np.triu_indices(4)
    T = K[i[:, None], i, j, j[:, None]] + K[i[:, None], j, i, j[:, None]]
    T[:, i == j] *= 0.5
    e = int(np.frexp(np.abs(T).max())[1])
    return np.ldexp(T, -e), e


def _screen_n2(table: np.ndarray, e: int, Xi: np.ndarray):
    """Closed-form (lambda_3, lambda_1) of the gradient Gram at unit rows of
    Xi for n = 2, from the coefficients of ``_gram_table``, accurate to about
    sqrt(eps) lambda_1 near a double root.

    One (10 x 10)(10 x chunk) product gives the entries of R(xi) / 2^e.  J xi
    lies in its kernel, so its other eigenvalues are the roots of
    lambda^3 - c1 lambda^2 + c2 lambda - c3, c_k the sum of the k x k
    principal minors of R, which the trigonometric formula gives (Smith
    1961; Kopp, arXiv physics/0610206).
    """
    i, j = np.triu_indices(4)
    X = np.ascontiguousarray(Xi.T)
    r00, r01, r02, r03, r11, r12, r13, r22, r23, r33 = table @ (X[i] * X[j])
    # c2 and c3 sum the six 2x2 and four 3x3 principal minors, grouped by the
    # complementary index pairs {0, 1} and {2, 3}
    s02, s03, s12, s13 = r02 * r02, r03 * r03, r12 * r12, r13 * r13
    d01, d23 = r00 + r11, r22 + r33
    m01, m23 = r00 * r11 - r01 * r01, r22 * r33 - r23 * r23
    c1 = d01 + d23
    c2 = m01 + m23 + d01 * d23 - (s02 + s03 + s12 + s13)
    c3 = (d01 * m23 + d23 * m01 - s02 * (r11 + r33) - s13 * (r00 + r22) - s03 * (r11 + r22)
          - s12 * (r00 + r33) + 2.0 * (r01 * (r02 * r12 + r03 * r13) + r23 * (r02 * r03 + r12 * r13)))
    # the roots are mean + 2 r cos(t + 2 pi j / 3) with cos(3 t) = half_det
    mean = c1 / 3.0
    r = np.sqrt(np.maximum(c1 * c1 - 3.0 * c2, 0.0)) / 3.0
    half_det = (mean * (2.0 * mean * mean - c2) + c3) / (2.0 * np.where(r > 0.0, r, 1.0) ** 3)
    t = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    return np.ldexp(mean + 2.0 * r * np.cos(t + 2.0 * np.pi / 3.0), e), np.ldexp(mean + 2.0 * r * np.cos(t), e)


def _scan_net(frame: Frame, net: np.ndarray):
    """Batched eigenvalues of the gradient Gram over the rows of an n = 2 net.

    Returns (min second-smallest, max largest), exactly as one batched
    ``eigvalsh`` of ``gradient_gram`` over the whole net would give them.

    Each chunk is first screened in closed form: J xi lies in the kernel of
    R(xi), so lambda_3 and lambda_1 are the extreme roots of the cubic that
    ``_screen_n2`` forms from the per-frame coefficients of ``_gram_table``.
    The screen errs by at most about 2e-13 lambda_1 on gaussian frames at
    m = 3 to 40 and 1.2e-8 lambda_1 near a double root (the tetrahedral SIC
    frame).  Only the rows whose screened lambda_3 lies within
    tau = 1e-6 (chunk max screened lambda_1) of the chunk minimum, or whose
    screened lambda_1 lies within tau of the chunk maximum, are evaluated
    by that eigensolve.  As tau exceeds twice the screen error, every row
    whose exact value attains the chunk extremum is among them, so the
    result equals the unscreened scan bit for bit.
    """
    chunk = max(4096, min(_SCAN_CHUNK, int(2e6 / frame.m)))  # bounds the recheck's (k, 4, m) blocks
    table, e = _gram_table(frame)
    lam3_min = np.inf
    lam1_max = 0.0
    for start in range(0, net.shape[0], chunk):
        Xi = net[start : start + chunk]
        lo, hi = _screen_n2(table, e, Xi)
        tau = 1e-6 * hi.max()
        near = (lo <= lo.min() + tau) | (hi >= hi.max() - tau)
        ev = np.linalg.eigvalsh(gradient_gram(frame, Xi[near]))
        lam3_min = min(lam3_min, float(ev[:, 1].min()))
        lam1_max = max(lam1_max, float(ev[:, -1].max()))
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
    """Decide complex phase retrievability: a kernel witness at every n, then
    a closed form at n = 1, at most two nets at n = 2, and "undecided" above.

    A frame fails iff its lifted kernel holds a rank-2 matrix ("Saving
    phase", Bandeira-Cahill-Mixon-Nelson): when the pair of
    ``_kernel_witness`` passes ``_verify_witness``, the verdict is
    "not_retrievable" with no net tested.  At n = 1, R(xi) = S xi xi^T on
    the unit circle, so a0 = b0 = S = sum_k |f_k|^4; the computed S errs by
    less than (m + 5) eps S when it lies in [2^-970, inf), and ``a0_lower``
    and ``b0_bound`` are S less and plus that allowance.  At n = 2 the
    verdict is "undecided" unless s = sum_k ||f_k||^4 lies in
    [2^-970, 2^1000].  No entry of a form Phi_k exceeds ||f_k||^2, so no
    coefficient or Gram entry the scan forms exceeds 2 s, and
    b0 <= sqrt(m) s: nothing overflows.  The largest lambda_1 is at least
    s / 6 (the trace of R averages s / 2 over the sphere), so products that
    underflow, each off by less than 2^-1074, stay far below the scan's
    roundoff of a few eps lambda_1.  Each n = 2 round takes lam3_min, the
    least second-smallest eigenvalue of the gradient Gram over a net of
    covering radius eps, and reports the Weyl margin lam3_min - 2 b0 eps.
    No net has more than ``budget`` points (1 to 32,000,000).  Round 0's net of min(1024, budget) points certifies
    only a margin of at least half lam3_min; otherwise it calibrates the
    covering law eps ~ coef / sqrt(N), which sizes round 1's net for that
    margin (at most half round 0's radius).  The last net, round 1's or
    round 0's when budget <= 1024, certifies any positive margin, else the
    verdict is "undecided"; so is a budget of 1, which builds no net.  b0
    starts at B max_k ||f_k||^2 and is tightened each round by the update
    b <- min(b, max_net lambda_1 + 2 b eps).  eps is a sampled estimate that
    can fall below the true radius.
    """
    _check_count("budget", budget, *_COUNTS["budget"])
    n = frame.n
    _, B = frame_bounds(frame)
    b0 = B * float(np.max(np.linalg.norm(frame.vectors, axis=1) ** 2))

    def stop(verdict, **fields):
        return PRCertificate(verdict=verdict, nets_tested=nets, b0_bound=b0, seed=seed, **fields)

    nets = 0
    pair = _kernel_witness(frame)
    if pair is not None and _verify_witness(frame, *pair):
        logger.debug("complex certificate n=%d m=%d: verified kernel witness", n, frame.m)
        return stop("not_retrievable", witness=pair, notes="rank-2 element of the lifted kernel")
    if n == 1:
        s = float(np.sum(np.abs(frame.vectors) ** 4))
        logger.debug("complex certificate n=1 m=%d: sum |f_k|^4 = %.6g", frame.m, s)
        if not 2.0**-970 <= s < np.inf:  # tiny / eps: underflow stays far below the allowance
            return stop("undecided", notes="sum |f_k|^4 outside the certified float range")
        slack = (frame.m + 5) * float(np.finfo(float).eps) * s
        b0 = s + slack
        return stop("retrievable", a0_lower=s - slack, notes="closed form at n = 1")
    if n > N_CAP:
        return stop("undecided", notes=f"ambient dimension {n} above cap {N_CAP}")
    with np.errstate(over="ignore"):  # an overflow reads inf, outside the range
        s = float(np.sum(np.linalg.norm(frame.vectors, axis=1) ** 4))
    if not 2.0**-970 <= s <= 2.0**1000:
        return stop("undecided", notes="sum ||f_k||^4 outside the certified float range")
    if budget < 2:
        return stop("undecided", notes="net budget exhausted")
    n_points = min(1024, budget)
    last = 0 if budget <= 1024 else 1  # the round of the last net
    for rnd in range(last + 1):
        net = bloch_fibonacci_net(n_points, seed=[seed, rnd])
        lam3_min, lam1_max = _scan_net(frame, net)
        nets += 1
        if n_points <= (1 << 18):
            eps_hat = quotient_covering_radius(net, seed=seed + rnd)
        else:
            # the lattice covering radius follows coef / sqrt(N) closely;
            # beyond the measurement size, extrapolate with a safety margin
            eps_hat = 1.1 * coef / n_points ** 0.5
        if 2.0 * eps_hat < 1.0:
            for _ in range(4):
                b0 = min(b0, lam1_max + 2.0 * b0 * eps_hat)
        weyl = 2.0 * b0 * eps_hat
        margin = lam3_min - weyl
        logger.debug(
            "complex net round %d: %d points, eps %.4g, lam3_min %.6g, b0 %.6g, margin %.6g",
            rnd, n_points, eps_hat, lam3_min, b0, margin,
        )
        if margin > 0.0 and (rnd == last or weyl <= 0.5 * lam3_min):
            return stop("retrievable", a0_lower=margin, epsilon_final=eps_hat, net_points=n_points)
        if rnd < last:
            # calibrate the covering law eps ~ coef / sqrt(N) and size the
            # last net for the radius a margin of half lam3_min needs
            coef = eps_hat * n_points ** 0.5
            goal = max(min(0.5 * eps_hat, lam3_min / (4.0 * b0) if lam3_min > 0 else np.inf), 1e-12)
            n_points = min(int(max(1.3 * (coef / goal) ** 2, 2 * n_points)), budget)
    return stop("undecided", net_points=n_points, notes="net budget exhausted")


# ---------------------------------------------------------------------------
# stability bounds
# ---------------------------------------------------------------------------

def _multistart_extremum(value_grad, dim, n_starts, seed, maximize):
    """Projected-gradient multistart over the unit sphere of R^dim.

    ``value_grad(x) -> (value, grad)``; returns the best value.
    """
    rng = rng_from_seed([seed, 0x73706872])
    # random starts are drawn one at a time, then the coordinate axes
    starts = chain((rng.normal(size=dim) for _ in range(n_starts)), np.eye(dim))
    sign = -1.0 if maximize else 1.0
    best_val = np.inf
    for s in starts:
        x = s / np.linalg.norm(s)
        val, grad = value_grad(x)
        val *= sign
        step = 0.5
        for _ in range(_MULTISTART_ITERS):
            g = sign * grad
            g_tan = g - (g @ x) * x
            gnorm = np.linalg.norm(g_tan)
            if gnorm <= _MULTISTART_TOL * max(abs(val), 1.0):
                break
            while step > 1e-14:
                x_new = x - step * g_tan
                x_new /= np.linalg.norm(x_new)
                val_new, grad_new = value_grad(x_new)
                val_new *= sign
                if val_new < val - 1e-14 * abs(val):
                    x, val, grad = x_new, val_new, grad_new
                    step *= 1.3
                    break
                step *= 0.5
            else:  # no step size improved on val
                break
        best_val = min(best_val, val)
    return sign * best_val


def fourth_moment_max(frame: Frame, n_starts: int = 64, seed: int = 0) -> float:
    """max over unit x of sum_k |<x, f_k>|^4 by projected-gradient multistart.

    Real-tagged frames are optimized over the real sphere, complex frames over
    the realified sphere (the objective is phase-invariant).  ``n_starts``
    random starts (0 to 10,000) run besides the n or 2n basis vectors.
    """
    _check_count("n_starts", n_starts, *_COUNTS["n_starts"])
    if frame.is_real:
        V = frame.vectors.real

        def value_grad(x):
            c = V @ x
            return float(np.sum(c**4)), 4.0 * (V.T @ (c**3))

        return _multistart_extremum(value_grad, frame.n, n_starts, seed, maximize=True)

    phi, jphi = frame.phi, frame.jphi

    def value_grad(xi):
        p = phi @ xi
        q = jphi @ xi
        s = p * p + q * q
        grad = 4.0 * (phi.T @ (s * p) + jphi.T @ (s * q))
        return float(np.sum(s * s)), grad

    return _multistart_extremum(value_grad, 2 * frame.n, n_starts, seed, maximize=True)


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
    ``n_starts`` is a count from 0 to 10,000, as in ``fourth_moment_max``.
    """
    _check_count("n_starts", n_starts, *_COUNTS["n_starts"])
    cert = check_retrievable_real(frame)
    if cert.verdict != "retrievable":
        raise NotPhaseRetrievable(f"frame is not certified phase retrievable: {cert.verdict}")
    A, B = frame_bounds(frame)
    a0 = _min_weighted_operator_eig(frame, n_starts, seed)
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
    Z, s, zero = _gradient_terms(frame, xi)
    zero_set = np.flatnonzero(zero)
    phi, jphi = frame.phi[zero_set], frame.jphi[zero_set]
    correction = phi.T @ phi + jphi.T @ jphi  # the zero-set measurement forms, summed
    S_plain = _normalized_gram(Z, s, zero)
    ev_corr = np.linalg.eigvalsh(S_plain + correction)
    record = {
        "A_tilde": float(ev_corr[1]),
        "B": float(ev_corr[-1]),
        "zero_set": [int(k) for k in zero_set],
    }
    if nz2 > 0.0:
        ev_plain = np.linalg.eigvalsh(S_plain)
        ev_R = np.linalg.eigvalsh(Z @ Z.T)
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
    non-certified.  ``samples`` is a count from 2 to 1,000,000.
    """
    _check_count("samples", samples, *_COUNTS["samples"])
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
