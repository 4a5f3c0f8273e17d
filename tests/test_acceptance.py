"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a one-line PASS marker (visible with -s / -rA).  Two
criteria come with published reference values that exact computation
refutes (the bipartite n=2 ordering table and the complete-family asymptotic
windows).  Their tests assert the exact values, derived independently of the
code under test, and assert that the published values fail.  The analysis is
in those tests' docstrings and in the README section "Reference-table
discrepancies"; the verification CLI reports the same two checks as
documented discrepancies.
"""

import math
import os
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from syncpaths import reference
from syncpaths.codes import (
    catalan,
    enumerate_phi_n,
    enumerate_phi_nn,
    encode_kn,
    encode_knn,
    narayana_count,
)
from syncpaths.diagram import build_diagram, count_admissible_paths, export_dot
from syncpaths.distributions import f_kn, f_knn, sloane_prefix_check, summary
from syncpaths.errors import NotTypicalError
from syncpaths.flows import (
    KuramotoParams,
    cross_party_crossing_times,
    kuramoto_sequence,
    laplacian_trajectory_kn,
    laplacian_trajectory_knn,
    switching_times_kn,
)
from syncpaths.graphs import Configuration, Family, bipartite, complete, laplacian
from syncpaths.realizability import (
    GOLOMB_TABLE,
    IncrementOrder,
    count_realizable_paths_kn,
    enumerate_realizable_orderings_kn,
    enumerate_realizable_orderings_knn,
    feasible,
    golomb_bounds,
    path_to_ordering_kn,
    verify_witness,
)
from syncpaths.verify import _bisect_crossings, _reorder_gap
from syncpaths.witness import witness_kn, witness_knn

SEED = 20260808


def report(num, text):
    print(f"[criterion {num:02d}] PASS: {text}")


def test_c01_golomb_table():
    t0 = time.perf_counter()
    counts = [count_realizable_paths_kn(n) for n in range(1, 6)]
    elapsed = time.perf_counter() - t0
    assert counts == [1, 1, 2, 10, 114]
    assert elapsed < 60.0
    report(1, f"realizable path counts {counts} in {elapsed:.1f}s")


@pytest.mark.skipif(
    not os.environ.get("SYNCPATHS_STRETCH"),
    reason="non-gating stretch target; set SYNCPATHS_STRETCH=1 to run",
)
def test_c01_stretch_golomb_n6():
    t0 = time.perf_counter()
    count = count_realizable_paths_kn(6, jobs=None)  # SYNCPATHS_THREADS, else os.cpu_count()
    elapsed = time.perf_counter() - t0
    assert count == 2608
    assert elapsed < 1800.0
    report(1, f"stretch: 2608 classes at n=6 in {elapsed:.0f}s")


def test_c02_kn4_ordering_table():
    orders = set(enumerate_realizable_orderings_kn(4))
    assert orders == set(reference.KN4_ORDERINGS)
    counterexample = path_to_ordering_kn((1, 2, 3, 4), (1, 3, 2, 2, 1, 1))
    assert feasible(counterexample) is None
    report(2, "ten orderings match; contradictory jump path judged infeasible")


def test_c03_admissible_counts():
    assert count_admissible_paths(build_diagram(complete(4)), (1, 2, 3, 4)) == 16
    assert count_admissible_paths(build_diagram(complete(3)), (1, 2, 3)) == 2
    report(3, "admissible path counts 16 (n=4) and 2 (n=3)")


def test_c04_kn_length_table():
    t0 = time.perf_counter()
    for n, row in reference.KN_LENGTH_ROWS.items():
        assert f_kn(n).counts == row
    for n in range(2, 13):
        assert f_kn(n).total() == catalan(n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, f"rows 2..8 exact, Catalan sums to n=12, {elapsed:.2f}s")


def test_c05_knn_length_table():
    t0 = time.perf_counter()
    for n, row in reference.KNN_LENGTH_ROWS.items():
        assert f_knn(n).counts == row
    for n in range(1, 9):
        dist = f_knn(n)
        assert dist.total() == narayana_count(n)
        assert dist.counts[-1] == math.comb(2 * n, n)
        assert sloane_prefix_check(n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, f"rows 2..8 exact with sums/endpoints/prefixes, {elapsed:.1f}s")


# Bipartite n=2 rows, derived by hand (see test_c06).  Row format as in
# reference.KNN2_ORDERING_TABLE: (arrangement, ((row, col, sign), ...) in
# increasing magnitude), with a = |D11|, b = |D22|, c = |D12|, d = |D21|.
KNN2_BAD_ROWS = frozenset(
    {
        # a < b < c < d; the sign of (2, 1) is wrong and d - a > c - b
        ((3, 1, 2, 4), ((1, 1, -1), (2, 2, +1), (1, 2, +1), (2, 1, +1))),
        # b < a < d < c: b - a < 0 < c - d, yet b - a = c - d
        ((3, 1, 2, 4), ((2, 2, +1), (1, 1, -1), (2, 1, -1), (1, 2, +1))),
    }
)
KNN2_MISSING_ROWS = frozenset(
    {
        ((1, 3, 4, 2), ((1, 1, +1), (1, 2, +1), (2, 2, -1), (2, 1, -1))),  # acbd
        ((1, 3, 4, 2), ((2, 2, -1), (2, 1, -1), (1, 1, +1), (1, 2, +1))),  # bdac
        ((3, 1, 2, 4), ((1, 1, -1), (2, 2, +1), (2, 1, -1), (1, 2, +1))),  # abdc
        ((3, 1, 2, 4), ((1, 1, -1), (2, 1, -1), (2, 2, +1), (1, 2, +1))),  # adbc
        ((3, 1, 2, 4), ((2, 2, +1), (1, 1, -1), (1, 2, +1), (2, 1, -1))),  # bacd
        ((3, 1, 2, 4), ((2, 2, +1), (1, 2, +1), (1, 1, -1), (2, 1, -1))),  # bcad
    }
)


def _knn2_grid_rows(bound):
    """Rows realized by integer configurations x1 = 0 < x2, y1 < y2 in [-bound, bound]."""
    rows = set()
    for x2 in range(1, bound + 1):
        for y1 in range(-bound, bound + 1):
            for y2 in range(y1 + 1, bound + 1):
                x = {1: 0, 2: x2, 3: y1, 4: y2}
                diff = {(r, c): x[2 + c] - x[r] for r in (1, 2) for c in (1, 2)}
                if len(set(x.values())) < 4 or len({abs(v) for v in diff.values()}) < 4:
                    continue
                order = sorted(diff, key=lambda rc: abs(diff[rc]))
                rows.add(
                    (
                        tuple(sorted(x, key=x.get)),
                        tuple((r, c, 1 if diff[r, c] > 0 else -1) for r, c in order),
                    )
                )
    return rows


def test_c06_knn_ordering_table():
    """Exact n=2 rows: the published 20-row table minus 2 impossible rows plus 6.

    Write D_rc = y_c - x_r (party one x1 < x2, party two y1 < y2); a row's
    sign column is sign D_rc, fixed by the arrangement.  Order within the
    parties gives D21 < D11 < D12 and D21 < D22 < D12, and always
    D11 + D22 = D12 + D21.  With a = |D11|, b = |D22|, c = |D12|, d = |D21|:

    - (1,2,3,4) and (3,4,1,2), all signs equal: d and c are the extremes
      and a, b fall between in either order; 2 rows each.
    - (1,3,2,4): c = a + b + d is largest, a, b, d are free; 6 rows.
      (3,1,4,2) mirrors it; 6 rows.
    - (1,3,4,2): a < c, b < d and c - a = d - b, which excludes abdc and
      bacd; 4 rows: abcd, acbd, badc, bdac.
    - (3,1,2,4): a < d, b < c and d - a = c - b, which excludes abcd and
      badc; 4 rows: abdc, adbc, bacd, bcad.

    That is 24 rows.  The published table lists only abcd and badc for
    (1,3,4,2), and for (3,1,2,4) only two rows that no configuration
    realizes (KNN2_BAD_ROWS): the first gives (2,1) the sign + though
    y1 < x2, and both violate D11 + D22 = D12 + D21.  An exact party-mean
    balance x1 + x2 = y1 + y2 forces D22 = -D11 and D21 = -D12, tied
    magnitudes, so no strict order is balanced: 0 rows, not the published 16.
    See the README section "Reference-table discrepancies".
    """
    published = set(reference.KNN2_ORDERING_TABLE)
    assert KNN2_BAD_ROWS <= published and not KNN2_MISSING_ROWS & published
    expected = (published - KNN2_BAD_ROWS) | KNN2_MISSING_ROWS
    assert _knn2_grid_rows(6) == expected  # brute force reaches every row
    assert Counter(arr for arr, _ in expected) == {
        (1, 2, 3, 4): 2, (3, 4, 1, 2): 2, (1, 3, 2, 4): 6,
        (3, 1, 4, 2): 6, (1, 3, 4, 2): 4, (3, 1, 2, 4): 4,
    }

    rows = set(enumerate_realizable_orderings_knn(2, balanced=False))
    assert rows == expected
    assert len(rows) == 24 and rows != published  # published: 20 rows
    for _arr, labels in KNN2_BAD_ROWS:
        assert feasible(IncrementOrder(Family.BIPARTITE, 2, labels)) is None
    for arr, labels in KNN2_MISSING_ROWS:
        order = IncrementOrder(Family.BIPARTITE, 2, labels)
        witness = feasible(order)
        assert witness is not None and verify_witness(order, witness)
        assert tuple(sorted(range(1, 5), key=lambda v: witness.values[v - 1])) == arr

    balanced = enumerate_realizable_orderings_knn(2, balanced=True)
    assert balanced == []  # published: 16 rows
    report(6, "24 exact rows (published 20 minus 2 impossible plus 6); 0 balanced")


def test_c07_diagram_level_consistency():
    for n in range(2, 7):
        sizes = build_diagram(complete(n)).level_sizes()
        assert tuple(reversed(sizes)) == f_kn(n).counts
    for n in range(1, 5):
        sizes = build_diagram(bipartite(n)).level_sizes()
        assert tuple(reversed(sizes)) == f_knn(n).counts
    report(7, "diagram level sizes equal length distributions")


def test_c08_witness_roundtrips():
    t0 = time.perf_counter()
    eps_set = (Fraction(1), Fraction(1, 100))
    total = 0
    for n in range(1, 7):
        codes = enumerate_phi_n(n)
        if n == 6:
            assert len(codes) == 132
        for code in codes:
            for eps in eps_set:
                assert encode_kn(witness_kn(code, eps), eps) == code
                total += 1
    for n in range(1, 5):
        codes = enumerate_phi_nn(n)
        if n == 4:
            assert len(codes) == 1764
        for code in codes:
            for eps in eps_set:
                assert encode_knn(witness_knn(code, eps), eps) == code
                total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, f"{total} exact roundtrips in {elapsed:.1f}s")


def test_c09_eps_invariance():
    rng = np.random.default_rng(SEED)
    eps, eps2 = 0.1, 0.003
    for n in range(3, 7):
        done = 0
        while done < 100:
            x = np.sort(rng.random(n))
            try:
                a = switching_times_kn(Configuration(complete(n), tuple(x)), eps)
                b = switching_times_kn(
                    Configuration(complete(n), tuple(x * (eps2 / eps))), eps2
                )
            except NotTypicalError:
                continue
            assert a.edge_order() == b.edge_order()
            done += 1
    report(9, "event order invariant under (0.1 -> 0.003) threshold scaling")


def test_c10_flow_exactness():
    rng = np.random.default_rng(SEED + 1)
    step = 1e-3
    worst = 0.0
    for n in range(2, 9):
        for spec, closed in (
            (complete(n), laplacian_trajectory_kn),
            (bipartite(n), laplacian_trajectory_knn),
        ):
            x = rng.random(spec.vertex_count)
            if spec.family.value == "knn":
                x = np.concatenate([np.sort(x[:n]), np.sort(x[n:])])
            else:
                x = np.sort(x)
            cfg = Configuration(spec, tuple(x))
            mat = laplacian(spec).astype(np.float64)
            state = cfg.as_array()
            t = 0.0
            for _ in range(int(round(5.0 / step))):
                k1 = mat @ state
                k2 = mat @ (state + 0.5 * step * k1)
                k3 = mat @ (state + 0.5 * step * k2)
                k4 = mat @ (state + step * k3)
                state = state + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                t += step
                worst = max(worst, float(np.max(np.abs(state - closed(cfg, t).as_array()))))
    assert worst < 1e-8

    worst_t = 0.0
    for _ in range(12):
        n = int(rng.integers(2, 5))
        x = rng.random(2 * n) * 3.0
        cfg = Configuration(
            bipartite(n), tuple(np.concatenate([np.sort(x[:n]), np.sort(x[n:])]))
        )
        for row in range(1, n + 1):
            for col in range(1, n + 1):
                got = cross_party_crossing_times(cfg, 0.25, row, col)
                ref = _bisect_crossings(cfg, 0.25, row, col)
                assert len(got) == len(ref)
                for a, b in zip(got, ref):
                    worst_t = max(worst_t, abs(a - b))
    assert worst_t < 1e-10
    report(10, f"rk4 sup error {worst:.1e}; crossing-time deviation {worst_t:.1e}")


def test_c11_kuramoto_consistency():
    rng = np.random.default_rng(SEED + 2)
    eps = 1e-3
    params = KuramotoParams(sigma=1.0)
    site_paths = {
        tuple(n for n, _k in order) for order in enumerate_realizable_orderings_kn(4)
    }
    assert len(site_paths) == 10
    matches = 0
    mismatch_gaps = []
    done = 0
    while done < 200:
        u = np.sort(rng.random(4))
        x = 0.01 * (u - u.mean())  # inside the pi/4 * 0.5 neighborhood
        cfg = Configuration(complete(4), tuple(x))
        try:
            lin = switching_times_kn(cfg, eps)
        except NotTypicalError:
            continue
        if len(lin.events) != 6:
            continue  # resample until the path starts at the identity code
        kur = kuramoto_sequence(cfg, params, eps)
        done += 1
        assert kur.jump_sites() in site_paths
        if kur.edge_order() == lin.edge_order():
            matches += 1
        else:
            mismatch_gaps.append(_reorder_gap(cfg, kur.edge_order(), lin.edge_order()))
    assert matches >= 195
    assert all(g < 1e-6 for g in mismatch_gaps)
    report(
        11,
        f"{matches}/200 nonlinear paths equal the linear path; "
        f"{len(mismatch_gaps)} near-tie deviations",
    )


def test_c12_golomb_bounds():
    # the factorial lower bound is attained at n = 3 (both sides are 2, the
    # same tightness the thrall(3) clause asserts); it is strict from n = 4
    golomb = {n: count_realizable_paths_kn(n) for n in (3, 4, 5)}
    for n in (3, 4, 5):
        b = golomb_bounds(n)
        if n == 3:
            assert b.lower == golomb[n]
        else:
            assert b.lower < golomb[n]
        assert golomb[n] <= b.upper_thrall <= b.upper_factorial
    assert golomb_bounds(3).upper_thrall == 2
    assert golomb_bounds(4).upper_thrall == 12
    report(12, "bound chain holds; thrall tight at n=3, 12 at n=4")


def test_c13_knn_asymptotic_shape():
    dist = f_knn(8)
    assert dist.counts == reference.KNN_LENGTH_ROWS[8]
    stats = summary(dist)
    assert stats.modes == (51,)
    exact_mean = Fraction(sum(l * c for l, c in enumerate(dist.counts)), dist.total())
    assert stats.mean == exact_mean
    report(13, f"bipartite n=8: argmax 51, exact mean {float(exact_mean):.4f}")


def _dyck_area_counts(n):
    """Dyck paths of semilength n by area A (sum of the heights before each up-step).

    A height-by-step DP; each height carries its area polynomial packed into
    one big integer with (2n+1)-bit digits (no count exceeds 2^(2n)), so an
    up-step from height h is a shift by h digits.  f_kn runs the same DP, so
    the independent checks on it are the closed-form mean ratio below and
    the convolution recurrence in tests/test_distributions.py.
    """
    bits = 2 * n + 1
    row = {0: 1}
    for step in range(2 * n):
        nxt = {}
        for h, packed in row.items():
            if h < 2 * n - step - 1:
                nxt[h + 1] = nxt.get(h + 1, 0) + (packed << (h * bits))
            if h:
                nxt[h - 1] = nxt.get(h - 1, 0) + packed
        row = nxt
    mask = (1 << bits) - 1
    return [(row[0] >> (a * bits)) & mask for a in range(math.comb(n, 2) + 1)]


def _kn_mean_ratio(n):
    """Exact mean length over C(n,2): 1 - T_n / (C(n,2) C_n), T_n the total area.

    T_n = (4^n - C(2n+1, n) - n C_n) / 2 sums the Dyck-path areas.
    """
    cat = math.comb(2 * n, n) // (n + 1)
    total_area = (4**n - math.comb(2 * n + 1, n) - n * cat) // 2
    return 1 - Fraction(total_area, math.comb(n, 2) * cat)


def test_c13_kn_asymptotic_window():
    """Exact n=60 ratios; the published windows [0.60,0.66]/[0.50,0.55] fail.

    Indexed by remaining length l, the complete-family counts are the
    Dyck paths of semilength n by area A, with l = C(n,2) - A.  So the mean
    ratio has the closed form of _kn_mean_ratio, and the argmax is read off
    an independent DP.  At n=60 the ratios are 1483/1770 ~ 0.8379 and
    ~ 0.8141.  The mean ratio rises with n toward 1, since 4^n / C_n grows
    like sqrt(pi) n^(3/2) against C(n,2) ~ n^2/2; it is in its window only
    at n = 2 and 3.  See the README section "Reference-table discrepancies".
    """
    for n in range(2, 13):
        by_area = _dyck_area_counts(n)
        mean_area = Fraction(sum(a * c for a, c in enumerate(by_area)), sum(by_area))
        assert 1 - mean_area / math.comb(n, 2) == _kn_mean_ratio(n)
    ratios = [_kn_mean_ratio(n) for n in range(2, 201)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert [n for n, r in enumerate(ratios, 2) if Fraction("0.50") <= r <= Fraction("0.55")] == [2, 3]

    n, top = 60, math.comb(60, 2)
    counts = tuple(reversed(_dyck_area_counts(n)))
    dist = f_kn(n)
    assert dist.counts == counts
    stats = summary(dist)
    assert stats.mean_ratio == _kn_mean_ratio(n)
    peak = max(counts)
    assert stats.mode_ratios == tuple(Fraction(l, top) for l, c in enumerate(counts) if c == peak)
    mode_ratio, mean_ratio = stats.mode_ratios[0], stats.mean_ratio
    assert not Fraction("0.60") <= mode_ratio <= Fraction("0.66")  # exact: 0.8379
    assert not Fraction("0.50") <= mean_ratio <= Fraction("0.55")  # exact: 0.8141
    report(13, f"n=60 argmax ratio {float(mode_ratio):.4f}, mean ratio {float(mean_ratio):.4f}")


def test_c14_determinism():
    from syncpaths.verify import report_to_json, run_verify

    sink = lambda *_args, **_kw: None
    r1 = report_to_json(run_verify(quick=True, echo=sink))
    r2 = report_to_json(run_verify(quick=True, echo=sink))
    assert r1 == r2
    d1 = export_dot(build_diagram(bipartite(2)))
    d2 = export_dot(build_diagram(bipartite(2)))
    assert d1 == d2
    report(14, "verification reports and DOT exports byte-identical")
