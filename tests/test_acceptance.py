"""Acceptance suite: the release gate of ``syncpaths.verify`` in full mode.

``test_release_check`` runs every check of ``verify.CHECKS`` with
``quick=False`` through ``verify.run_check``, so each check's wall-clock
budget holds here too; each must pass except the two documented discrepancies,
whose failures and detail strings are pinned.  Those two checks compare
against published reference values that exact computation refutes (the
bipartite n=2 ordering table and the complete-family asymptotic windows).
``test_c06_knn_ordering_table`` and ``test_c13_kn_asymptotic_window`` assert
the exact values, derived independently of the code under test, and assert
that the published values fail.  The analysis is in those tests' docstrings
and in the README section "Reference-table discrepancies".
"""

import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from syncpaths import reference
from syncpaths.diagram import build_diagram, export_dot
from syncpaths.distributions import f_kn, summary
from syncpaths.graphs import Family, bipartite
from syncpaths.realizability import (
    IncrementOrder,
    enumerate_realizable_orderings_knn,
    feasible,
    verify_witness,
)
from syncpaths.verify import CHECKS, DOCUMENTED_DISCREPANCIES, run_check, run_verify

# Full-mode details of the checks that compare against refuted published values.
DISCREPANCY_DETAILS = {
    "knn2_ordering_table": (
        "documented discrepancy: exact enumeration yields 24 rows (6 beyond the "
        "20-row table, 2 table rows infeasible); balanced-exact yields 0 (ties are "
        "forced at n=2)"
    ),
    "asymptotic_shape": (
        "bipartite n=8 exact (argmax 51); documented discrepancy for the complete "
        "family: exact n=60 argmax ratio 0.8379 and mean ratio 0.8141 lie outside "
        "the expected [0.60,0.66]/[0.50,0.55]"
    ),
}


def report(num, text):
    print(f"[criterion {num:02d}] PASS: {text}")


@pytest.mark.parametrize("name, check, budget", CHECKS, ids=[name for name, *_ in CHECKS])
def test_release_check(name, check, budget):
    result, _elapsed = run_check(name, check, budget, False)
    if name in DOCUMENTED_DISCREPANCIES:
        assert not result.passed
        assert result.detail == DISCREPANCY_DETAILS[name]
    else:
        assert result.passed, result.detail


def test_run_check_fails_crashes_and_overruns():
    def crash(quick):
        raise RuntimeError("boom")

    def slow(quick):
        time.sleep(0.05)
        return True, "done"

    result, _ = run_check("crash", crash, None, True)
    assert (result.name, result.passed, result.detail) == ("crash", False, "raised RuntimeError: boom")
    result, elapsed = run_check("slow", slow, 0.01, True)
    assert elapsed >= 0.05
    assert (result.passed, result.detail) == (False, "done; exceeded 0s budget")
    result, _ = run_check("slow", slow, 60, True)
    assert (result.passed, result.detail) == (True, "done")


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


# The quick report, pinned: (name, passed, detail) per check, in order.
QUICK_REPORT = [
    ("golomb_counts", True, "n=1..5 -> [1, 1, 2, 10, 114]"),
    ("golomb_stretch_n6", True, "skipped in quick mode"),
    ("kn4_ordering_table", True, "10 orderings; contradictory jump path infeasible"),
    ("admissible_counts", True, "K4 -> 16, K3 -> 2"),
    ("kn_length_rows", True, "rows 2..5 exact; sums = Catalan to 12"),
    ("knn_length_rows", True, "rows 2..5 exact; sums, endpoints, partition-pair prefixes"),
    (
        "knn2_ordering_table",
        False,
        "documented discrepancy: exact enumeration yields 24 rows (6 beyond the "
        "20-row table, 2 table rows infeasible); balanced-exact yields 0 (ties are "
        "forced at n=2)",
    ),
    ("diagram_level_consistency", True, "level sizes match distributions"),
    ("witness_roundtrips", True, "4316 roundtrips exact"),
    ("eps_invariance", True, "400 scaled pairs, orders equal"),
    ("flow_exactness", True, "rk4 sup error 5.13e-11; crossing-time deviation 2.22e-16"),
    (
        "kuramoto_consistency",
        True,
        "50/50 match the linear path; all observed paths realizable; 0 near-tie mismatches",
    ),
    (
        "golomb_bounds",
        True,
        "gap-order bound <= count <= thrall <= pair-order bound (equality at n=3)",
    ),
    (
        "asymptotic_shape",
        True,  # the bipartite n=8 statistics alone
        "bipartite n=8 exact (complete-family n=60 window skipped in quick mode)",
    ),
    ("determinism", True, "exports and seeded runs byte-identical"),
]


def test_c14_determinism():
    """The quick report equals its pinned value, across runs, processes and commits."""
    quick = run_verify(quick=True, echo=lambda *_args, **_kw: None)
    assert [(c["name"], c["passed"], c["detail"]) for c in quick["checks"]] == QUICK_REPORT
    assert quick["documented_discrepancies"] == ["knn2_ordering_table"]
    assert quick["passed"] is False
    d1 = export_dot(build_diagram(bipartite(2)))
    d2 = export_dot(build_diagram(bipartite(2)))
    assert d1 == d2
    report(14, "verification report pinned; DOT exports byte-identical")
