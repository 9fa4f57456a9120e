import logging
import math
import re
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from framepr import (
    BudgetExceeded,
    NotPhaseRetrievable,
    apply_complex_structure,
    certify_retrievable_complex,
    check_retrievable_real,
    fourth_moment_max,
    frame_bounds,
    gradient_gram,
    intensity_map,
    is_full_spark,
    local_stability_bounds,
    magnitude_map,
    make_frame,
    measurement_forms,
    min_measurement_count,
    outer_distance,
    quotient_distance,
    random_frame,
    sampled_stability_bounds,
    stability_bounds_real,
    weighted_frame_operator,
)
from framepr import injectivity
from framepr.frames import rng_from_seed
from framepr.linalg import rank_one_coordinates
from framepr.injectivity import (
    _COUNTS,
    _N_PROBES,
    SPAN_TOL,
    _bipartition_scan,
    _gram_table,
    _scan_net,
    _screen_n2,
    bloch_fibonacci_net,
    quotient_covering_radius,
    sphere_net,
)

TRIPLE = make_frame([[1, 0], [0, 1], [1, 1]])


# ---------------------------------------------------------------------------
# measurement-count lower bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(2, 4), (3, 8), (4, 10)])
def test_min_measurement_count(n, expected):
    assert min_measurement_count(n) == expected


def test_min_measurement_count_matches_direct_formula():
    for n in range(1, 40):
        b = bin(n - 1).count("1")
        extra = {3: 2, 2: 1}.get(b % 4, 0) if n % 2 == 1 else 0
        assert min_measurement_count(n) == 4 * n - 2 - 2 * b + extra


def test_min_measurement_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        min_measurement_count(0)


# ---------------------------------------------------------------------------
# real case: exact decision and witnesses
# ---------------------------------------------------------------------------

def test_real_triple_retrievable():
    cert = check_retrievable_real(TRIPLE)
    assert cert.verdict == "retrievable"
    assert cert.a0_lower > 0


def test_real_basis_not_retrievable():
    cert = check_retrievable_real(make_frame(np.eye(2)))
    assert cert.verdict == "not_retrievable"
    assert cert.witness is not None


def test_real_repeated_direction_witness():
    frame = make_frame([[1, 0], [0, 1], [1, 0]])
    cert = check_retrievable_real(frame)
    assert cert.verdict == "not_retrievable"
    x, y = cert.witness
    ax = magnitude_map(frame, x)
    ay = magnitude_map(frame, y)
    np.testing.assert_allclose(ax, ay, atol=1e-13)
    np.testing.assert_allclose(np.sort(ax), [1.0, 1.0, 1.0], atol=1e-12)
    assert quotient_distance(x, y) > 1e-6


def test_real_partition_cap():
    frame = random_frame(3, injectivity.PARTITION_CAP + 1, "real_gaussian", seed=0)
    with pytest.raises(BudgetExceeded):
        check_retrievable_real(frame)
    with pytest.raises(BudgetExceeded):
        stability_bounds_real(frame)


@pytest.mark.parametrize("m", [3, 20, 24, 40])
def test_real_line_frames_are_decided_in_closed_form(m):
    # at n = 1 every partition sums to sum_k f_k^2 and one side spans R^1, so
    # no scan runs and PARTITION_CAP does not apply (the scan took 6.1 s at
    # m = 24 and refused m = 40)
    frame = random_frame(1, m, "real_gaussian", seed=0)
    start = time.perf_counter()
    cert = check_retrievable_real(frame)
    assert time.perf_counter() - start < 0.01
    with mpmath.workdps(60):
        exact = mpmath.fsum(mpmath.mpf(v) ** 2 for v in frame.vectors.real.ravel())
    assert cert.verdict == "retrievable" and cert.a0_lower == float(exact)
    assert stability_bounds_real(frame, n_starts=2).A0 == cert.a0_lower
    if m <= 20:  # the scan agrees where it runs; at m = 24 it takes seconds
        assert abs(_bipartition_scan(frame)[0] - cert.a0_lower) <= 2 * math.ulp(cert.a0_lower)


def test_real_line_frame_margin_at_the_ends_of_the_float_range():
    # as the scan did: a sum past the float range reads inf, one below the
    # smallest subnormal reads 0 and leaves the verdict undecided
    def cert(scale):
        return check_retrievable_real(make_frame(scale * np.array([[1.0], [2.0], [-1.0]]), field="real"))

    assert cert(1e200).verdict == "retrievable" and cert(1e200).a0_lower == np.inf
    assert cert(1e-160).a0_lower == 6e-320
    assert cert(1e-200).verdict == "undecided" and cert(1e-200).notes == "zero partition margin"


def test_ambiguous_pair_standard_basis():
    frame = make_frame(np.eye(2))
    cert = check_retrievable_real(frame)
    assert cert.verdict == "not_retrievable" and cert.notes == "failing partition subset [1]"
    x, y = cert.witness
    # u is orthogonal to e2, v to e1; the pair is (u+v, u-v) up to signs
    np.testing.assert_allclose(np.abs(x), [1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(y), [1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(
        magnitude_map(frame, x), magnitude_map(frame, y), atol=1e-13
    )
    assert quotient_distance(x, y) > 1e-6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_real_verdict_equals_full_spark(n):
    # at m = 2n-1 retrievability and full spark coincide
    m = 2 * n - 1
    for seed in range(12):
        frame = random_frame(n, m, "real_gaussian", seed=seed)
        cert = check_retrievable_real(frame)
        assert (cert.verdict == "retrievable") == is_full_spark(frame)
        # break the spark and recheck
        V = frame.vectors.copy()
        V[-1] = 0.5 * V[0]
        broken = make_frame(V, field="real")
        cert2 = check_retrievable_real(broken)
        assert cert2.verdict == "not_retrievable"
        x, y = cert2.witness
        diff = magnitude_map(broken, x) - magnitude_map(broken, y)
        assert np.max(np.abs(diff)) <= 1e-12
        assert quotient_distance(x, y) > 1e-6


# a failing partition of the scan's span cutoff whose pair magnitudes still
# differ by 1.4e-5 against 1e-12 * 1.4e6 allowed
_UNVERIFIABLE = make_frame([[1.0, 0.0], [1.0, 1e-5], [1e6, 1e6]], field="real")


def test_real_unverified_pair_is_undecided():
    cert = check_retrievable_real(_UNVERIFIABLE)
    assert cert.verdict == "undecided" and cert.witness is None
    assert "failing partition subset [2]" in cert.notes
    with pytest.raises(NotPhaseRetrievable):
        stability_bounds_real(_UNVERIFIABLE, n_starts=4)


def test_real_witness_check_is_scale_free():
    V = random_frame(3, 5, "real_gaussian", seed=0).vectors.real.copy()
    V[-1] = 0.5 * V[0]
    broken = make_frame(V * 2.0**-44, field="real")
    cert = check_retrievable_real(broken)
    assert cert.verdict == "not_retrievable"
    x, y = cert.witness
    ax, ay = magnitude_map(broken, x), magnitude_map(broken, y)
    assert np.max(np.abs(ax - ay)) <= 1e-12 * np.max(ax)


def _deficient(V, rows) -> bool:
    """Reference span rule: the rows of the frame V fail to span R^n when
    they are fewer than n or their least singular value is at most
    SPAN_TOL ||V||_2."""
    if rows.shape[0] < V.shape[1]:
        return True
    s = np.linalg.svd(rows, compute_uv=False)
    return s[-1] <= SPAN_TOL * max(np.linalg.norm(V, 2), np.finfo(float).tiny)


def _exhaustive_bipartition_scan(frame):
    """Reference: every one of the 2^(m-1) bipartitions in increasing mask
    order, the scan the branch and bound replaced."""
    m = frame.m
    V = frame.vectors.real
    O = np.einsum("ki,kj->kij", V, V)
    S_total = O.sum(axis=0)
    smax = np.linalg.norm(V, 2)
    screen_tol = max((SPAN_TOL * smax) ** 2, 64 * m * np.finfo(float).eps * smax**2)

    A0 = np.inf
    fail_subset = None
    n_masks = 1 << (m - 1)
    chunk = max(1, min(131072, n_masks))
    shifts = np.arange(m - 1, dtype=np.uint64)
    for start in range(0, n_masks, chunk):
        masks = np.arange(start, min(start + chunk, n_masks), dtype=np.uint64)
        bits = ((masks[:, None] >> shifts) & 1).astype(float)
        inc = np.concatenate([np.zeros((bits.shape[0], 1)), bits], axis=1)
        S_I = np.einsum("ck,kij->cij", inc, O)
        lam_I = np.linalg.eigvalsh(S_I)[:, 0]
        lam_Ic = np.linalg.eigvalsh(S_total[None] - S_I)[:, 0]
        sums = lam_I + lam_Ic
        idx = int(np.argmin(sums))
        if sums[idx] < A0:
            A0 = float(sums[idx])
        if fail_subset is None:
            for cand in np.flatnonzero((lam_I <= screen_tol) & (lam_Ic <= screen_tol)):
                mask = int(masks[cand])
                subset = [k + 1 for k in range(m - 1) if (mask >> k) & 1]
                comp = [k for k in range(m) if k not in subset]
                if _deficient(V, V[subset]) and _deficient(V, V[comp]):
                    fail_subset = subset
                    break
    return A0, fail_subset


def _real_harmonic_frame(n, m):
    """Rows (cos j t_k, sin j t_k) for j = 1..n/2 at t_k = 2 pi k / m."""
    t = 2.0 * np.pi * np.arange(m) / m
    j = np.arange(1, n // 2 + 1)
    return make_frame(np.concatenate([np.cos(np.outer(t, j)), np.sin(np.outer(t, j))], axis=1),
                      field="real")


@pytest.fixture(scope="module")
def equivalence_cases():
    """(frame, exhaustive result) pairs; the references are computed once."""
    frames = []
    # at n = 1 every partition ties, and the root's bound 0 lies below
    # lambda_min of vector 0 alone
    grid = [(1, m) for m in range(1, 5)] + [(n, m) for n in range(2, 6) for m in range(n, 2 * n + 8)]
    for n, m in grid:
        V = random_frame(n, m, "real_gaussian", seed=[7, n, m]).vectors.real
        scaled = V.copy()
        scaled[-1] = -1.7 * V[0]  # one row a multiple of another
        zero = V.copy()
        zero[m // 2] = 0.0
        for W in (V, scaled, zero):
            if np.linalg.matrix_rank(W) == n:
                frames.append(make_frame(W, field="real"))
    frames.append(_real_harmonic_frame(6, 20))
    # three copies of the basis and two all-ones rows: many tied partition sums
    frames.append(make_frame(np.concatenate([np.eye(6)] * 3 + [np.ones((2, 6))]), field="real"))
    return [(frame, _exhaustive_bipartition_scan(frame)) for frame in frames]


def _assert_matches_exhaustive_scan(cases):
    for frame, (ref_A0, ref_subset) in cases:
        A0, fail_subset, null_dirs = _bipartition_scan(frame)
        assert (fail_subset is None) == (ref_subset is None), (frame.n, frame.m)
        if fail_subset is None:
            tol = 1e-12 * max(abs(ref_A0), np.finfo(float).tiny)
            assert abs(A0 - ref_A0) <= tol, (frame.n, frame.m)
            continue
        # the search stops at the first failing partition it confirms, which
        # need not be the reference's first in mask order
        V = frame.vectors.real
        comp = [k for k in range(frame.m) if k not in fail_subset]
        assert _deficient(V, V[fail_subset]) and _deficient(V, V[comp]), (frame.n, frame.m)
        u, v = null_dirs
        assert injectivity._verify_witness(frame, (u + v).astype(complex), (u - v).astype(complex))
        assert A0 is None
    # the cases exercise both verdicts
    failing = sum(ref_subset is not None for _, (_, ref_subset) in cases)
    assert 0 < failing < len(cases)


# 64-node blocks split the frontier, so whole blocks, leaf blocks included,
# are pruned away
@pytest.mark.parametrize("block", [None, 64])
def test_bipartition_search_matches_exhaustive_scan(equivalence_cases, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(injectivity, "_PARTITION_BLOCK", block)
    _assert_matches_exhaustive_scan(equivalence_cases)


def test_bipartition_search_confirms_failures_at_leaves(equivalence_cases, monkeypatch):
    # with no incumbent completions a failure can only be confirmed as a
    # block of leaves is evaluated, and nothing is pruned before the first
    # leaves, so the frames are kept small
    monkeypatch.setattr(injectivity, "_INCUMBENT_NODES", 0)
    _assert_matches_exhaustive_scan([(f, ref) for f, ref in equivalence_cases if f.m <= 2 * f.n + 2])


def test_bipartition_search_memory_and_pruning(caplog):
    frame = random_frame(6, 22, "real_gaussian", seed=0)
    tracemalloc.start()
    try:
        with caplog.at_level(logging.DEBUG, logger="framepr"):
            A0, fail_subset, _ = _bipartition_scan(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fail_subset is None and A0 > 0.0
    assert peak < 64 * 2**20  # an exhaustive scan peaks at 135 MB here
    records = [r for r in caplog.records if "bipartition scan" in r.getMessage()]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    assert records[0].getMessage().endswith("stopped with no failing partition")
    counts = re.findall(r"(\d+) (?:leaves|nodes|partitions)", records[0].getMessage())
    leaves, pruned, partitions = map(int, counts)
    assert partitions == 1 << 21
    assert pruned > 0 and leaves < partitions // 100


def _scan_counts(frame, caplog):
    with caplog.at_level(logging.DEBUG, logger="framepr"):
        _bipartition_scan(frame)
    message = [r.getMessage() for r in caplog.records if "bipartition scan" in r.getMessage()][-1]
    return tuple(map(int, re.findall(r"(\d+) (?:leaves|nodes|partitions)", message)))


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
def test_bipartition_search_evaluates_each_leaf_once(m, caplog):
    # at n = 1 every partition ties, so nothing is pruned and each of the
    # 2^(m-1) partitions is evaluated exactly once
    leaves, pruned, partitions = _scan_counts(random_frame(1, m, "real_gaussian", seed=m), caplog)
    assert pruned == 0 and leaves == partitions == 1 << (m - 1)
    for n in (2, 3):
        leaves, _, partitions = _scan_counts(random_frame(n, m + n, "real_gaussian", seed=m), caplog)
        assert leaves <= partitions


def test_bipartition_search_stops_at_the_first_failing_partition(caplog):
    # a search for the smallest failing mask evaluates 24,587 and 1,926 leaves here
    V = random_frame(8, 15, "real_gaussian", seed=[11, 8, 15, 0]).vectors.real.copy()
    V[14] = -1.7 * V[0]
    for frame in (random_frame(10, 18, "real_gaussian", seed=[11, 10, 18, 0]),
                  make_frame(V, field="real")):
        leaves, _, _ = _scan_counts(frame, caplog)
        assert leaves <= 1000, (frame.n, frame.m)
        assert caplog.records[-1].getMessage().endswith("stopped at a failing partition")
        assert check_retrievable_real(frame).verdict == "not_retrievable"


def test_global_bound_shares_the_partition_margin():
    frame = random_frame(5, 12, "real_gaussian", seed=4)
    cert = check_retrievable_real(frame)
    assert cert.verdict == "retrievable"
    assert stability_bounds_real(frame, n_starts=4).A0 == cert.a0_lower


# ---------------------------------------------------------------------------
# complex case: net certification
# ---------------------------------------------------------------------------

def _tetrahedral_sic():
    w = np.exp(2j * np.pi / 3)
    c, s = np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)
    return make_frame(np.array([[1.0, 0.0], [c, s], [c, s * w], [c, s * w * w]]), field="complex")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complex_structure_lies_in_gradient_gram_kernel(rng, n):
    frame = random_frame(n, 4 * n, "gaussian", seed=n)
    for _ in range(5):
        xi = rng.normal(size=2 * n)
        R = gradient_gram(frame, xi)
        residual = np.linalg.norm(R @ apply_complex_structure(xi))
        assert residual <= 1e-13 * np.linalg.norm(R, 2) * np.linalg.norm(xi)


def _unscreened_scan(frame, net):
    """Reference: one batched eigvalsh of every Gram W^T W over the whole net."""
    P = net @ frame.phi.T
    Q = net @ frame.jphi.T
    W = P[:, :, None] * frame.phi[None] + Q[:, :, None] * frame.jphi[None]
    ev = np.linalg.eigvalsh(W.transpose(0, 2, 1) @ W)
    return float(ev[:, 1].min()), float(ev[:, -1].max())


# random_frame(2, 3) gets within 4e-13 lambda_1 of lambda_3 = 0 on this net;
# the SIC frame has a double root 1/3 at every point, so every row is rechecked
@pytest.mark.parametrize(
    "frame",
    [random_frame(2, 8, "gaussian", seed=4), random_frame(2, 3, seed=0), _tetrahedral_sic(),
     random_frame(2, 40, "gaussian", seed=4)],
    ids=["gaussian_m8", "m3", "sic", "gaussian_m40"],
)
@pytest.mark.parametrize("chunk", [None, 4096])
def test_scan_net_matches_unscreened_scan(frame, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(injectivity, "_SCAN_CHUNK", chunk)
    net = bloch_fibonacci_net(65536 + 777, seed=[2, 1])
    # several chunks, the last one partial (8e6 / (m d) rows exceed the chunk)
    assert net.shape[0] > injectivity._SCAN_CHUNK and net.shape[0] % injectivity._SCAN_CHUNK
    lam3, lam1 = _scan_net(frame, net)
    ref3, ref1 = _unscreened_scan(frame, net)
    assert lam3 == ref3 and lam1 == ref1


@pytest.mark.parametrize("seed", range(4))
def test_n2_screen_accuracy(seed):
    # _scan_net rechecks rows within 1e-6 lambda_1 of a chunk extremum, which
    # must exceed twice the screen error
    net = bloch_fibonacci_net(2000, seed=seed)
    for frame, tol in ((random_frame(2, 8, "gaussian", seed=seed), 1e-12),
                       (random_frame(2, 4, "gaussian", seed=seed), 1e-12),
                       (random_frame(2, 3), 1e-12),
                       (random_frame(2, 40), 1e-12),
                       (_tetrahedral_sic(), 5e-8)):
        lo, hi = _screen_n2(*_gram_table(frame), net)
        ev = np.array([np.linalg.eigvalsh(gradient_gram(frame, xi)) for xi in net])
        scale = ev[:, -1].max()
        assert np.max(np.abs(lo - ev[:, 1])) <= tol * scale
        assert np.max(np.abs(hi - ev[:, -1])) <= tol * scale


@pytest.mark.parametrize("option", ["budget"])
@pytest.mark.parametrize("value", [0, -5, 2.5, True])
def test_certify_rejects_nonpositive_counts(option, value):
    frame = random_frame(2, 8, "gaussian", seed=0)
    with pytest.raises(ValueError, match=option):
        certify_retrievable_complex(frame, **{option: value})


def test_certify_reports_an_exhausted_net_budget():
    # round 0's 1024-point net leaves a negative margin, and the 2048-point
    # budget caps round 1's net short of the law's size
    cert = certify_retrievable_complex(random_frame(2, 8, seed=5), budget=2048, seed=5)
    assert cert.verdict == "undecided"
    assert cert.a0_lower is None
    assert cert.net_points == 2048 and cert.nets_tested == 2
    assert cert.notes == "net budget exhausted"


def test_certify_budget_of_one_builds_no_net(monkeypatch):
    # the least budget _COUNTS accepts builds no net (bloch_fibonacci_net
    # refuses fewer than 2 points)
    monkeypatch.setattr(injectivity, "bloch_fibonacci_net", None)
    cert = certify_retrievable_complex(random_frame(2, 8, seed=1), budget=1)
    assert cert.verdict == "undecided" and cert.notes == "net budget exhausted"
    assert cert.nets_tested == 0 and cert.net_points is None and cert.a0_lower is None


def _net_sizes(monkeypatch):
    sizes = []
    build = injectivity.bloch_fibonacci_net

    def recording(n_points, seed=0):
        sizes.append(n_points)
        return build(n_points, seed=seed)

    monkeypatch.setattr(injectivity, "bloch_fibonacci_net", recording)
    return sizes


@pytest.mark.parametrize("budget", [2, 1000, 1024])
def test_certify_budget_up_to_1024_scans_one_net_of_budget_points(budget, monkeypatch):
    # a budget of at most 1024 buys one net, round 0, of budget points
    sizes = _net_sizes(monkeypatch)
    cert = certify_retrievable_complex(random_frame(2, 8, seed=1), budget=budget)
    assert sizes == [budget]
    assert cert.nets_tested == 1 and cert.net_points == budget


def test_certify_last_net_at_1024_certifies_any_positive_margin(monkeypatch):
    # this frame's 1024-point round 0 leaves a positive margin, but its Weyl
    # term exceeds _WEYL_SHARE of the minimum, so the default budget goes on
    # to round 1; at budget 1024 that net is the last one and certifies its
    # margin
    frame = random_frame(2, 16, seed=0)
    sizes = _net_sizes(monkeypatch)
    full = certify_retrievable_complex(frame)
    assert sizes[0] == 1024 and full.nets_tested == 2
    one = certify_retrievable_complex(frame, budget=1024)
    assert sizes[2:] == [1024]
    assert one.verdict == "retrievable" and one.nets_tested == 1 and one.net_points == 1024
    assert 0.0 < one.a0_lower < full.a0_lower


def test_certify_budget_above_1024_keeps_two_rounds(monkeypatch):
    sizes = _net_sizes(monkeypatch)
    cert = certify_retrievable_complex(random_frame(2, 8, seed=1), budget=1025)
    assert sizes == [1024, 1025] and cert.nets_tested == 2 and cert.net_points == 1025


def test_certify_scalar_frame():
    # at n = 1, a0 = b0 = sum_k |f_k|^4 exactly, less and plus (m + 5) eps
    # of it for roundoff
    cert = certify_retrievable_complex(make_frame(np.array([[1.0 + 0j]])))
    assert cert.verdict == "retrievable"
    assert cert.a0_lower == pytest.approx(1.0, abs=1e-14) and cert.a0_lower < 1.0
    assert cert.nets_tested == 0 and cert.net_points is None


@pytest.mark.parametrize("m", [1, 3, 40])
def test_certify_n1_closed_form_brackets_the_fourth_moment(m, monkeypatch):
    V = rng_from_seed([m, 0x6E31]).normal(size=(m, 2)) @ [1.0, 1j]
    frame = make_frame(V[:, None], field="complex")
    with mpmath.workdps(60):
        exact = mpmath.fsum((mpmath.mpf(v.real) ** 2 + mpmath.mpf(v.imag) ** 2) ** 2 for v in V)
    for net in ("bloch_fibonacci_net", "sphere_net", "_scan_net"):
        monkeypatch.setattr(injectivity, net, None)  # no net is built or scanned
    cert = certify_retrievable_complex(frame, seed=m)
    allowance = (m + 5) * np.finfo(float).eps * float(exact)
    assert cert.verdict == "retrievable" and cert.nets_tested == 0
    assert cert.a0_lower <= exact <= cert.b0_bound
    assert exact - cert.a0_lower <= 2 * allowance and cert.b0_bound - exact <= 2 * allowance


def test_certify_logs_each_round_and_the_outcome(caplog):
    frames = [random_frame(2, 8, "gaussian", seed=3), make_frame(np.array([[1.0 + 0j]])),
              make_frame(np.array([[1, 0], [0, 1], [1, 1]], dtype=complex), field="complex")]
    with caplog.at_level(logging.DEBUG, logger="framepr"):
        certs = [certify_retrievable_complex(frame, seed=3) for frame in frames]
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    rounds = [msg for msg in messages if msg.startswith("complex net round")]
    assert len(rounds) == certs[0].nets_tested == 2
    fields = re.findall(r"(\d+) points, eps (\S+), lam3_min (\S+), b0 (\S+), margin (\S+)", rounds[1])
    points, eps, lam3, b0, margin = fields[0]
    assert int(points) == certs[0].net_points
    assert float(margin) == pytest.approx(certs[0].a0_lower, rel=1e-5)
    assert float(lam3) - float(b0) * float(eps) == pytest.approx(float(margin), rel=1e-3)
    assert sum("n=1 m=1: sum |f_k|^4 = 1" in msg for msg in messages) == 1
    assert certs[2].verdict == "not_retrievable"
    assert sum("verified kernel witness" in msg for msg in messages) == 1


def test_certify_gaussian_frame_sound():
    frame = random_frame(2, 8, "gaussian", seed=3)
    cert = certify_retrievable_complex(frame, seed=3)
    assert cert.verdict == "retrievable"
    assert cert.a0_lower > 0
    rng = np.random.Generator(np.random.Philox(1234))
    for _ in range(500):
        xi = rng.normal(size=4)
        xi /= np.linalg.norm(xi)
        lam3 = np.linalg.eigvalsh(gradient_gram(frame, xi))[1]
        assert lam3 >= cert.a0_lower


_LIPSCHITZ_FRAMES = [random_frame(2, 8, "gaussian", seed=k) for k in range(10)] + [_tetrahedral_sic()]


@pytest.fixture(scope="module")
def lipschitz_certificates():
    return [certify_retrievable_complex(frame, seed=k) for k, frame in enumerate(_LIPSCHITZ_FRAMES)]


@pytest.mark.parametrize("k", range(len(_LIPSCHITZ_FRAMES)))
def test_weyl_slack_is_b0_times_the_distance(k, lipschitz_certificates):
    # for unit xi, eta aligned in phase (c = xi . eta = |<u, v>|, J xi . eta
    # = 0), xi xi^T - eta eta^T = a a^T - b b^T with |a|^2 = |b|^2 =
    # sqrt(1 - c^2); R is a positive map of xi xi^T, so -R(b) <= R(xi) - R(eta)
    # <= R(a), and each eigenvalue moves by at most b0 sqrt(1 - c^2)
    frame, cert = _LIPSCHITZ_FRAMES[k], lipschitz_certificates[k]
    rng = rng_from_seed([k, 0x6C6970])
    xi = rng.normal(size=(200, 4))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    jxi = apply_complex_structure(xi.T).T
    t = rng.normal(size=(200, 4))
    t -= np.sum(t * xi, axis=1)[:, None] * xi + np.sum(t * jxi, axis=1)[:, None] * jxi
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    d = np.geomspace(1e-3, 0.1, 200)  # the quotient distance sqrt(2 - 2 c)
    c = 1.0 - d * d / 2.0
    s = np.sqrt(1.0 - c * c)
    eta = c[:, None] * xi + s[:, None] * t
    w, v = np.linalg.eigh(xi[:, :, None] * xi[:, None, :] - eta[:, :, None] * eta[:, None, :])
    a = np.sqrt(w[:, -1])[:, None] * v[:, :, -1]
    b = np.sqrt(-w[:, 0])[:, None] * v[:, :, 0]
    Rx, Re = gradient_gram(frame, xi), gradient_gram(frame, eta)
    top = np.maximum(np.linalg.eigvalsh(gradient_gram(frame, a))[:, -1],
                     np.linalg.eigvalsh(gradient_gram(frame, b))[:, -1])
    assert np.all(np.linalg.norm(Rx - Re, ord=2, axis=(1, 2)) <= top * (1.0 + 1e-12))
    moved = np.abs(np.linalg.eigvalsh(Rx)[:, 1] - np.linalg.eigvalsh(Re)[:, 1])
    assert np.all(moved <= cert.b0_bound * s)


@pytest.mark.parametrize("k", range(len(_LIPSCHITZ_FRAMES)))
def test_b0_bound_covers_sampled_lambda_1(k, lipschitz_certificates):
    xi = rng_from_seed([k, 0x623062]).normal(size=(100_000, 4))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    lam1 = np.linalg.eigvalsh(gradient_gram(_LIPSCHITZ_FRAMES[k], xi))[:, -1]
    assert lipschitz_certificates[k].verdict == "retrievable"
    assert lam1.max() <= lipschitz_certificates[k].b0_bound


def test_certify_real_frame_in_complex_space():
    # a real frame can never retrieve complex phases: x and conj(x) collide
    frame = make_frame(np.array([[1, 0], [0, 1], [1, 1]], dtype=complex), field="complex")
    cert = certify_retrievable_complex(frame, seed=5)
    assert cert.verdict == "not_retrievable"
    x, y = cert.witness
    diff = magnitude_map(frame, x) - magnitude_map(frame, y)
    assert np.max(np.abs(diff)) <= 1e-12
    assert quotient_distance(x, y) > 1e-6


def _real_frame_tagged_complex(n, m):
    V = rng_from_seed([n, m, 0x7265]).normal(size=(m, n))
    return make_frame(V.astype(complex), field="complex")


_BASE_N3_M6 = [random_frame(3, 6, seed=k) for k in range(2)]
_KERNEL_CASES = (
    [random_frame(2, 3, seed=k) for k in range(6)]
    + [random_frame(3, m, seed=k) for m in (5, 6, 7) for k in range(6)]
    + [_real_frame_tagged_complex(n, m) for n in (2, 3) for m in (3, 6, 8, 12)]
    + [make_frame(np.eye(3, dtype=complex))]
    + [make_frame(f.vectors * scale) for f in _BASE_N3_M6 for scale in (2.0**-44, 2.0**20)]
)


# a frame is not retrievable iff the kernel of its lifted map holds a rank-2
# element; at n <= 3 one is found by linear algebra, before any net
@pytest.mark.parametrize("frame", _KERNEL_CASES)
def test_certify_kernel_witness(frame):
    cert = certify_retrievable_complex(frame, budget=4096)
    assert cert.verdict == "not_retrievable" and cert.nets_tested == 0
    assert cert.net_points is None and cert.epsilon_final is None
    x, y = cert.witness
    assert injectivity._verify_witness(frame, x, y)
    ax, ay = magnitude_map(frame, x), magnitude_map(frame, y)
    assert np.max(np.abs(ax - ay)) <= 1e-12 * np.max(ax)


# generic frames at m >= 4n - 4 are retrievable: at m = 8 the kernel is one
# rank-3 element, and at m = 24 it is trivial, so no witness is found; at
# n = 3 > N_CAP no net is tried either
@pytest.mark.parametrize("frame", [random_frame(3, 8, seed=k) for k in range(4)]
                         + [random_frame(3, 24, seed=0)])
def test_certify_kernel_rule_spares_retrievable_frames(frame):
    cert = certify_retrievable_complex(frame, budget=2048)
    assert cert.verdict == "undecided" and cert.nets_tested == 0


# nets that could certify n = 3 would need 10^9 points and more, so such a
# frame without a kernel witness is undecided at once
@pytest.mark.parametrize("m", [12, 16, 24])
def test_certify_n3_is_undecided_at_once(m):
    frame = random_frame(3, m, seed=0)
    start = time.perf_counter()
    cert = certify_retrievable_complex(frame)
    elapsed = time.perf_counter() - start
    assert cert.verdict == "undecided" and cert.nets_tested == 0
    assert cert.net_points is None and cert.a0_lower is None
    assert elapsed < 0.05


# the acceptance fixture frames 0-4 certify in their second net; the pinned
# Weyl margins and net sizes guard the calibration net and the sizing law.
# The second net is sized for a Weyl term of at most _WEYL_SHARE = 0.4 of
# its minimum lam3_min, and the middle column pins the rest, 0.6 lam3_min:
# a floor for the margin
_WEYL_MARGINS = [0.2749220285491842, 0.24167648734514172, 0.4313800661846535,
                 0.397842018014337, 0.7365061591460941]


@pytest.mark.parametrize("seed, sized_floor, net_points", [
    (0, 0.2514408214014332, 32433),
    (1, 0.21524436210111778, 22681),
    (2, 0.3863869089933768, 51738),
    (3, 0.3596680000148372, 17175),
    (4, 0.6488713823222862, 6326),
])
def test_certify_fixture_frames_are_pinned(seed, sized_floor, net_points):
    frame = random_frame(2, 8, "gaussian", seed=seed)
    cert = certify_retrievable_complex(frame, seed=seed, budget=16_000_000)
    assert cert.verdict == "retrievable" and cert.nets_tested == 2
    assert cert.net_points == net_points
    assert cert.a0_lower == pytest.approx(_WEYL_MARGINS[seed], rel=1e-9, abs=0.0)
    assert cert.a0_lower >= sized_floor


# (epsilon_final, a0_lower) of fixture frames 0-9, each certified with its
# own seed at the acceptance budget: the covering-radius search must find
# the nearest class of every probe, so these hold bit for bit.  Frame 5's
# last net has 2,753,730 points, past the 2^18 the search measures, so its
# epsilon_final is extrapolated from the 1,024-point estimate of round 0; that
# estimate is pinned instead of certifying the frame
_FIXTURE_ESTIMATES = {
    0: (0.007578737104263831, 0.2749220285491842),
    1: (0.008967198491118709, 0.24167648734514172),
    2: (0.005672039892554249, 0.4313800661846535),
    3: (0.009822789135985563, 0.397842018014337),
    4: (0.015598347470711111, 0.7365061591460941),
    6: (0.00983515367146051, 0.4989117791779181),
    7: (0.01363506702100561, 0.5210144441502804),
    8: (0.018139836964673667, 1.1435966225894079),
    9: (0.015181736920525414, 0.3770682355390602),
}


@pytest.mark.parametrize("seed", sorted(_FIXTURE_ESTIMATES))
def test_certify_fixture_estimates_are_pinned(seed):
    frame = random_frame(2, 8, "gaussian", seed=seed)
    cert = certify_retrievable_complex(frame, seed=seed, budget=16_000_000)
    assert (cert.epsilon_final, cert.a0_lower) == _FIXTURE_ESTIMATES[seed]


def test_certify_fixture_frame_5_first_estimate_is_pinned():
    eps = quotient_covering_radius(bloch_fibonacci_net(1024, seed=[5, 0]), seed=5)
    assert eps == 0.03979294574068365


def test_certify_minimal_redundancy_frame():
    # generic frames at the minimal complex count m = 4n - 4 are retrievable;
    # margins are thin there, so certification may need large nets (budget
    # exhaustion returns "undecided" rather than an error)
    frame = random_frame(2, 4, "gaussian", seed=[55, 0])
    cert = certify_retrievable_complex(frame, seed=0, budget=16_000_000)
    assert cert.verdict == "retrievable"
    assert cert.a0_lower > 0


_SCALED_CASES = [(random_frame(2, 8, "gaussian", seed=3), 3),
                 (random_frame(2, 4, "gaussian", seed=[55, 0]), 0)]


# mismatch and distance are judged relative to the measurements, so a frame
# scaled by 2^-44 is no easier to refute than the unscaled one.  At 2^-200
# and 2^150, 8th powers of the entries leave the float range, and the n = 2
# scan must still find the same minimum
@pytest.mark.parametrize("scale, rel", [(2.0**-200, 1e-12), (2.0**-44, 1e-12), (2.0**20, 0.0),
                                        (2.0**150, 1e-12)])
@pytest.mark.parametrize("frame, seed", _SCALED_CASES)
def test_certify_scaled_frame_keeps_verdict(frame, seed, scale, rel):
    ref = certify_retrievable_complex(frame, seed=seed, budget=16_000_000)
    cert = certify_retrievable_complex(make_frame(frame.vectors * scale), seed=seed,
                                       budget=16_000_000)
    assert ref.verdict == cert.verdict == "retrievable"
    assert cert.a0_lower / scale**4 == pytest.approx(ref.a0_lower, rel=rel, abs=0.0)


# sum ||f_k||^4 falls below 2^-970 or above 2^1000, where the scan's
# underflow or overflow is no longer bounded
@pytest.mark.parametrize("scale", [2.0**-260, 2.0**255])
@pytest.mark.parametrize("frame, seed", _SCALED_CASES)
def test_certify_frame_outside_the_float_range_is_undecided(frame, seed, scale):
    cert = certify_retrievable_complex(make_frame(frame.vectors * scale), seed=seed)
    assert cert.verdict == "undecided" and cert.a0_lower is None and "float range" in cert.notes


def test_certify_dimension_cap():
    frame = random_frame(injectivity.N_CAP + 1, 24, "gaussian", seed=0)
    cert = certify_retrievable_complex(frame)
    assert cert.verdict == "undecided" and cert.nets_tested == 0


def test_certificate_json_roundtrip():
    frame = random_frame(2, 8, "gaussian", seed=7)
    cert = certify_retrievable_complex(frame, seed=7)
    import json

    data = json.loads(json.dumps(cert.to_dict()))
    assert data["verdict"] == "retrievable"
    assert data["a0_lower"] == cert.a0_lower
    assert data["net_points"] == cert.net_points


def test_quadratic_form_lower_bound_identity(rng):
    # certified a0 bounds the coupling energy over random direction pairs
    frame = random_frame(2, 8, "gaussian", seed=11)
    cert = certify_retrievable_complex(frame, seed=11)
    forms = measurement_forms(frame)
    J = np.zeros((4, 4))
    for _ in range(300):
        xi = rng.normal(size=4)
        eta = rng.normal(size=4)
        lhs = float(np.sum(np.einsum("kij,i,j->k", forms, xi, eta) ** 2))
        jxi = apply_complex_structure(xi)
        rhs = (xi @ xi) * (eta @ eta) - (jxi @ eta) ** 2
        assert lhs >= cert.a0_lower * rhs - 1e-9 * max(1.0, abs(rhs))


def _dense_covering_radius(net, seed):
    # brute-force reference: every probe against every net point, in row
    # blocks of 4096 (25 MB at 768 probes)
    N, d = net.shape
    n = d // 2
    jnet = np.concatenate([-net[:, n:], net[:, :n]], axis=1)
    rng = rng_from_seed([seed, 0x636F7665])
    probes = rng.normal(size=(_N_PROBES, d))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    probes_t = probes.T.copy()
    best = np.zeros(_N_PROBES)
    for start in range(0, N, 4096):
        re = net[start : start + 4096] @ probes_t
        im = jnet[start : start + 4096] @ probes_t
        np.square(re, out=re)
        np.square(im, out=im)
        re += im
        best = np.maximum(best, re.max(axis=0))
    return 1.12 * float(np.sqrt(np.maximum(2.0 - 2.0 * np.sqrt(best), 0.0)).max())


@pytest.mark.parametrize(
    "make_net",
    [
        lambda: bloch_fibonacci_net(1024, seed=[3, 0]),
        lambda: bloch_fibonacci_net(17_698, seed=[3, 1]),
        lambda: bloch_fibonacci_net(1 << 18, seed=[3, 2]),
        lambda: sphere_net(6, 4096, seed=[1, 0]),
        lambda: sphere_net(6, 65_536, seed=[1, 1]),
    ],
    ids=["fib1024", "fib17698", "fib2^18", "sphere6_4096", "sphere6_65536"],
)
def test_covering_radius_matches_dense_search(make_net):
    net = make_net()
    eps = quotient_covering_radius(net, seed=5)
    assert eps == pytest.approx(_dense_covering_radius(net, 5), rel=1e-10)


@pytest.mark.parametrize("dim,n_points", [(4, 2), (4, 1000), (6, 4097), (3, 5)])
def test_sphere_net_draws_gaussian_directions(dim, n_points):
    # exactly n_points rows, no power-of-two rounding, from rng_from_seed
    net = sphere_net(dim, n_points, seed=[7, 1])
    assert net.shape == (n_points, dim)
    np.testing.assert_allclose(np.linalg.norm(net, axis=1), 1.0, rtol=0, atol=1e-15)
    g = rng_from_seed([7, 1]).normal(size=(n_points, dim))
    np.testing.assert_array_equal(net, g / np.linalg.norm(g, axis=1, keepdims=True))
    np.testing.assert_array_equal(net, sphere_net(dim, n_points, seed=[7, 1]))
    assert not np.array_equal(net, sphere_net(dim, n_points, seed=[7, 2]))


def test_covering_radius_scalar_net_is_zero():
    # n = 1: every unit vector is one phase class; both sides read sqrt(roundoff)
    net = sphere_net(2, 64, seed=0)
    assert quotient_covering_radius(net, seed=5) < 1e-7
    assert _dense_covering_radius(net, 5) < 1e-7


def _capped_bloch_net(n_points, seed):
    # a Bloch net less the classes with |u_1|^2 > 0.9: probes in that cap
    # lie far from every class, beyond the search's first key window
    net = bloch_fibonacci_net(n_points, seed=seed)
    return net[net[:, 0] ** 2 + net[:, 2] ** 2 <= 0.9]


def _phase_copies(net, phases):
    # each row again times e^{i t}: equal classes whose keys agree up to rounding
    n = net.shape[1] // 2
    z = net[:, :n] + 1j * net[:, n:]
    z = np.concatenate([z * np.exp(1j * t) for t in phases])
    return np.concatenate([z.real, z.imag], axis=1)


def _latitude_net(n_points, height=0.3):
    # n = 2 classes (cos a, sin a e^{i phi}) on one latitude circle: every
    # row has the same key |u_1|^2 = cos^2 a, so every window holds every row
    a = np.arccos(height)
    phi = 2.0 * np.pi * np.arange(n_points) / n_points
    return np.stack([np.full(n_points, np.cos(a)), np.sin(a) * np.cos(phi),
                     np.zeros(n_points), np.sin(a) * np.sin(phi)], axis=1)


@pytest.mark.parametrize(
    "make_net",
    [
        lambda: _capped_bloch_net(17_698, [3, 1]),
        lambda: _phase_copies(sphere_net(4, 4096, seed=[1, 0]), [0.0, 1.0, 2.5]),
        lambda: _latitude_net(4096),
    ],
    ids=["fib_cap", "sphere4_phase_copies", "latitude"],
)
def test_covering_radius_search_widens_and_ties(make_net):
    net = make_net()
    eps = quotient_covering_radius(net, seed=5)
    assert eps == pytest.approx(_dense_covering_radius(net, 5), rel=1e-10)


def test_covering_radius_search_reaches_into_a_hole():
    # a probe inside the removed cap lies about 0.3 from the net, far beyond
    # the first key reach (about 0.008 here), so the widening path runs
    assert quotient_covering_radius(_capped_bloch_net(17_698, [3, 1]), seed=5) > 0.2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lift_distance_identity(rng, n):
    u = rng.normal(size=(200, 2 * n))
    v = rng.normal(size=(200, 2 * n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    cu, cv = u[:, :n] + 1j * u[:, n:], v[:, :n] + 1j * v[:, n:]
    overlap = np.abs(np.sum(cu.conj() * cv, axis=1)) ** 2
    lifted = np.sum((rank_one_coordinates(cu) - rank_one_coordinates(cv)) ** 2, axis=1)
    np.testing.assert_allclose(lifted, 2.0 - 2.0 * overlap, rtol=0, atol=1e-13)
    # the first lifted coordinate is the search key |u_1|^2, and it moves by
    # at most sqrt(1 - 1/n) times the lifted distance
    gap = np.abs(rank_one_coordinates(cu)[:, 0] - rank_one_coordinates(cv)[:, 0])
    assert np.all(gap <= np.sqrt((1.0 - 1.0 / n) * lifted) + 1e-13)


def test_covering_radius_memory():
    # the dense search held two 2^18 x 768 float64 blocks (201 MB each)
    net = bloch_fibonacci_net(1 << 18, seed=[3, 2])
    tracemalloc.start()
    try:
        quotient_covering_radius(net, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_covering_radius_memory_equal_keys():
    # every window holds all 2^16 rows; probes against rows at once would
    # take two 2^16 x 768 float64 blocks (403 MB each)
    net = _latitude_net(1 << 16)
    tracemalloc.start()
    try:
        quotient_covering_radius(net, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _one_shot_bloch_net(n_points, seed=0):
    # the whole net in one pass over full-length arrays: the reference for
    # the blocked build
    i = np.arange(n_points)
    z = 1.0 - (2.0 * i + 1.0) / n_points
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = i * golden + 0.61803398875 * (seed if np.isscalar(seed) else sum(seed))
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    x0 = c.astype(complex)
    x1 = s * np.exp(1j * phi)
    return np.column_stack([x0.real, x1.real, x0.imag, x1.imag])


@pytest.mark.parametrize(
    "n_points,seed",
    [(4, 0), (2, 0), (3, 4), (1000, 0), (65_536, [3, 1]), (65_537, 7), (200_001, [3, 2])],
)
def test_bloch_net_matches_one_shot_formula(n_points, seed):
    net = bloch_fibonacci_net(n_points, seed=seed)
    ref = _one_shot_bloch_net(n_points, seed)
    assert net.shape == ref.shape
    # bitwise, sign of zero included
    assert net.tobytes() == ref.tobytes()
    # row i realifies (cos(t/2), sin(t/2) e^{i phi}): a unit vector whose
    # Bloch point has height cos(t) = z_i and longitude phi_i
    i = np.arange(net.shape[0])
    u = net[:, :2] + 1j * net[:, 2:]
    np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(u[:, 0].imag, 0.0)
    np.testing.assert_allclose(np.abs(u[:, 0]) ** 2 - np.abs(u[:, 1]) ** 2,
                               1.0 - (2.0 * i + 1.0) / net.shape[0], rtol=0, atol=1e-15)
    phi = i * (np.pi * (3.0 - np.sqrt(5.0))) + 0.61803398875 * (seed if np.isscalar(seed) else sum(seed))
    np.testing.assert_allclose(np.abs(u[:, 1] - np.abs(u[:, 1]) * np.exp(1j * phi)), 0.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("value", [0, 1, -5, 2.9, True])
@pytest.mark.parametrize("net", [bloch_fibonacci_net, lambda points: sphere_net(4, points)], ids=["bloch", "sphere"])
def test_nets_refuse_point_counts_below_two(net, value):
    # each of these once built a 2-point net through max(int(n_points), 2)
    with pytest.raises(ValueError, match="n_points"):
        net(value)


def test_bloch_net_memory():
    # the one-shot build held about 3.5x the output in full-length temporaries
    tracemalloc.start()
    try:
        net = bloch_fibonacci_net(1_000_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * net.nbytes


# ---------------------------------------------------------------------------
# stability bounds
# ---------------------------------------------------------------------------

def test_global_bounds_triple_partition_minimum():
    # enumeration oracle: partitions of {e1, e2, (1,1)} give
    # min(1, lambda_min([[1,1],[1,2]]) + 0, ...) = (3 - sqrt(5))/2
    report = stability_bounds_real(TRIPLE, n_starts=16, seed=0)
    assert report.A0 == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, abs=1e-12)
    assert report.B0 == pytest.approx(3.0, abs=1e-12)


def test_global_bounds_mark_multistart_values_numerical():
    # multistart overestimates the minimum a0 and underestimates the maximum
    # b0, so only A0 and B0 may be read as certified
    report = stability_bounds_real(TRIPLE, n_starts=8, seed=0)
    assert not report.empirical
    assert report.details["numerical"] == ["a0", "b0"]
    assert report.to_dict()["details"]["numerical"] == ["a0", "b0"]


def test_global_bounds_rejects_non_retrievable():
    with pytest.raises(NotPhaseRetrievable):
        stability_bounds_real(make_frame(np.eye(2)), n_starts=4)


def test_start_and_sample_counts_are_integers_above_the_config_floor():
    # the floors are those of the config's task options: n_starts >= 0 and
    # samples >= 2; a negative, fractional or boolean count used to run as
    # if it were another count, or fail inside numpy
    calls = (
        ("n_starts", lambda v: fourth_moment_max(TRIPLE, n_starts=v)),
        ("n_starts", lambda v: stability_bounds_real(TRIPLE, n_starts=v)),
        ("samples", lambda v: sampled_stability_bounds(TRIPLE, samples=v)),
    )
    for name, call in calls:
        low = _COUNTS[name][0]
        for bad in (low - 1, low - 3, low + 0.5, True, np.float64(low)):
            with pytest.raises(ValueError, match=name):
                call(bad)
        call(low)
        call(np.int64(low))


def test_b0_orthonormal_basis_real():
    # max of sum <x, e_k>^4 over the unit sphere is 1, at a basis vector
    basis = make_frame(np.eye(3))
    assert fourth_moment_max(basis, n_starts=16, seed=0) == pytest.approx(1.0, rel=1e-8)


def test_a0_b0_match_angle_grid():
    # dense angular grid oracle for a real frame in the plane
    frame = make_frame([[1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]])
    thetas = np.linspace(0.0, np.pi, 100_000, endpoint=False)
    X = np.column_stack([np.cos(thetas), np.sin(thetas)])
    C = X @ frame.vectors.real.T
    fourth = np.sum(C**4, axis=1)
    lam_min = np.array(
        [np.linalg.eigvalsh(weighted_frame_operator(frame, x))[0] for x in X[::100]]
    )
    report = stability_bounds_real(frame, n_starts=32, seed=1)
    assert report.b0 == pytest.approx(float(fourth.max()), rel=1e-4)
    assert report.a0 <= float(lam_min.min()) + 1e-6
    assert report.a0 == pytest.approx(float(lam_min.min()), rel=1e-3)


def test_a0_quadratic_lower_bound(rng):
    # sum_k <x,f_k>^2 <y,f_k>^2 >= a0 ||x||^2 ||y||^2 for real retrievable frames
    frame = random_frame(3, 7, "real_gaussian", seed=4)
    report = stability_bounds_real(frame, n_starts=32, seed=2)
    V = frame.vectors.real
    for _ in range(200):
        x, y = rng.normal(size=3), rng.normal(size=3)
        lhs = float(np.sum((V @ x) ** 2 * (V @ y) ** 2))
        rhs = report.a0 * float((x @ x) * (y @ y))
        assert lhs >= rhs - 1e-7 * max(1.0, rhs)


def test_local_bounds_no_zero_coefficients(rng):
    frame = random_frame(2, 6, "gaussian", seed=5)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    rec = local_stability_bounds(frame, z)
    assert rec["zero_set"] == []
    assert rec["A_tilde"] == pytest.approx(rec["A"], rel=1e-12)
    assert rec["a"] > 0 and rec["b"] >= rec["a"]


def test_local_bounds_memory(rng):
    # a stack of all m measurement forms, (m, 2n, 2n), would peak at 65 MiB here
    frame = random_frame(32, 1024, "gaussian", seed=8)
    z = rng.normal(size=32) + 1j * rng.normal(size=32)
    tracemalloc.start()
    try:
        local_stability_bounds(frame, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_local_bounds_at_zero_reduce_to_frame_bounds():
    frame = random_frame(3, 9, "gaussian", seed=6)
    A, B = frame_bounds(frame)
    rec = local_stability_bounds(frame, np.zeros(3))
    assert rec["A"] is None and rec["a"] is None and rec["b"] is None
    assert rec["A_tilde"] == pytest.approx(A, rel=1e-9)
    assert rec["B"] == pytest.approx(B, rel=1e-9)
    assert len(rec["zero_set"]) == frame.m


def test_local_bounds_ratio_sandwich(rng):
    # local difference quotients of the intensity map against the d1 distance
    # fall inside [a(z), b(z)] with a small sampling margin
    frame = random_frame(2, 7, "gaussian", seed=7)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    rec = local_stability_bounds(frame, z)
    for _ in range(300):
        dx = 1e-5 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        dy = 1e-5 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        x, y = z + dx, z + dy
        d1 = outer_distance(x, y, 1)
        if d1 < 1e-12:
            continue
        num = np.linalg.norm(
            intensity_map(frame, x) - intensity_map(frame, y)
        ) ** 2
        ratio = num / d1**2
        assert rec["a"] * 0.95 - 1e-12 <= ratio <= rec["b"] * 1.05 + 1e-12


def test_sampled_bounds_upper_bounded_by_frame_bound():
    frame = random_frame(2, 8, "gaussian", seed=8)
    _, B = frame_bounds(frame)
    report = sampled_stability_bounds(frame, samples=2000, seed=8)
    assert report.empirical
    assert report.B0 <= B + 1e-9
    assert 0 < report.A0 <= report.B0
    assert 0 < report.a0 <= report.b0


@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_sampled_bounds_reject_too_few_samples(samples):
    with pytest.raises(ValueError, match="samples"):
        sampled_stability_bounds(random_frame(2, 6, seed=0), samples=samples)


def test_sampled_bounds_expose_non_retrievable():
    # orthonormal basis of C^2 is not retrievable; the sampled magnitude-map
    # lower ratio collapses next to a certified frame's margin
    basis = make_frame(np.eye(2).astype(complex), field="complex")
    good = random_frame(2, 8, "gaussian", seed=9)
    r_bad = sampled_stability_bounds(basis, samples=4000, seed=9)
    r_good = sampled_stability_bounds(good, samples=4000, seed=9)
    assert r_bad.A0 < 0.05 * r_good.A0
    # the known ambiguous pair achieves ratio zero exactly
    x = np.array([1.0 + 1.0j, 1.0 - 1.0j]) / 2.0
    y = x.conj()
    num = np.linalg.norm(magnitude_map(basis, x) - magnitude_map(basis, y))
    assert num == 0.0 and quotient_distance(x, y) > 1e-6


def test_sampled_bounds_contain_certified_margin():
    frame = random_frame(2, 8, "gaussian", seed=10)
    cert = certify_retrievable_complex(frame, seed=10)
    sampled = sampled_stability_bounds(frame, samples=3000, seed=10)
    assert sampled.a0 >= cert.a0_lower - 1e-12
