"""Verification harness: every release gate as a named, reportable check.

``run_verify`` executes the checks, prints one pass/fail line each, and
returns a machine-readable report.  Reports carry no timing data so that
repeated runs are byte-identical.  Two checks are expected to fail and are
annotated as documented discrepancies of the bundled reference material:
the bipartite 20-row ordering table (exact enumeration yields 24 rows and
an empty balanced family at n = 2) and the asymptotic location of the
complete-family length-distribution peak (the exact argmax ratio rises with
n instead of settling near 0.632).

Every check returns a ``Verdict``, ``(passed, detail)``; ``run_check`` is
the one place that names it, times it and turns a crash into a failed
check.  Some checks carry a wall-clock budget, stated once in ``CHECKS``.
The budget covers the whole check: a check that overruns it fails and
appends "exceeded Ns budget" to its detail, whether it passed, failed
early or raised.  So a report is byte-identical across runs only while
every check stays within its budget; a check that passes within its
budget gives the same detail as with no budget at all.  Each budget is at
least ten times the check's measured run time on two cores.  No budget is
widened or dropped to keep a report stable under load: an overrun is a
finding, reported as a failed check.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import reference
from .codes import CODES, catalan, narayana_count, enumerate_phi_n, enumerate_phi_nn
from .diagram import build_diagram, count_admissible_paths, export_dot
from .distributions import f_kn, f_knn, length_distribution, sloane_prefix_check, summary
from .errors import NotTypicalError
from .flows import (
    KuramotoParams,
    cross_party_crossing_times,
    kuramoto_sequence,
    linear_flow,
    rk4_linear_step,
    switching_times_kn,
)
from .graphs import Configuration, bipartite, complete, laplacian
from .realizability import (
    GOLOMB_TABLE,
    count_realizable_paths_kn,
    enumerate_realizable_orderings_kn,
    enumerate_realizable_orderings_knn,
    feasible,
    golomb_bounds,
    path_to_ordering_kn,
)
from .witness import witness_kn, witness_knn

SEED = 20260808


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


Verdict = tuple[bool, str]  # (passed, detail)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_golomb_counts(quick: bool) -> Verdict:
    got = [count_realizable_paths_kn(n) for n in range(1, 6)]
    want = [GOLOMB_TABLE[n] for n in range(1, 6)]
    if got != want:
        return False, f"{got} != {want}"
    return True, f"n=1..5 -> {got}"


def check_golomb_stretch(quick: bool) -> Verdict:
    if quick:
        return True, "skipped in quick mode"
    got = count_realizable_paths_kn(6)
    return got == GOLOMB_TABLE[6], f"n=6 -> {got}"


def check_kn4_orderings(quick: bool) -> Verdict:
    got = set(enumerate_realizable_orderings_kn(4))
    ok = got == set(reference.KN4_ORDERINGS)
    counterexample = path_to_ordering_kn((1, 2, 3, 4), (1, 3, 2, 2, 1, 1))
    ok = ok and feasible(counterexample) is None
    return ok, f"{len(got)} orderings; contradictory jump path infeasible"


def check_admissible_counts(quick: bool) -> Verdict:
    d4 = build_diagram(complete(4))
    d3 = build_diagram(complete(3))
    a4 = count_admissible_paths(d4, (1, 2, 3, 4))
    a3 = count_admissible_paths(d3, (1, 2, 3))
    return a4 == 16 and a3 == 2, f"K4 -> {a4}, K3 -> {a3}"


def check_kn_distribution_rows(quick: bool) -> Verdict:
    top = 5 if quick else 8
    rows_ok = all(
        f_kn(n).counts == reference.KN_LENGTH_ROWS[n] for n in range(2, top + 1)
    )
    sums_ok = all(f_kn(n).total() == catalan(n) for n in range(2, 13))
    return rows_ok and sums_ok, f"rows 2..{top} exact; sums = Catalan to 12"


def check_knn_distribution_rows(quick: bool) -> Verdict:
    top = 5 if quick else 8
    rows_ok = all(
        f_knn(n).counts == reference.KNN_LENGTH_ROWS[n] for n in range(2, top + 1)
    )
    sums_ok = all(f_knn(n).total() == narayana_count(n) for n in range(1, 11))
    ends_ok = all(
        f_knn(n).counts[-1] == math.comb(2 * n, n) for n in range(1, 11)
    )
    sloane_ok = all(sloane_prefix_check(n) for n in range(1, 9))
    return (
        rows_ok and sums_ok and ends_ok and sloane_ok,
        f"rows 2..{top} exact; sums, endpoints, partition-pair prefixes",
    )


def check_knn_ordering_table(quick: bool) -> Verdict:
    rows = set(enumerate_realizable_orderings_knn(2, balanced=False))
    balanced = enumerate_realizable_orderings_knn(2, balanced=True)
    table = set(reference.KNN2_ORDERING_TABLE)
    ok = rows == table and len(balanced) == 16
    extra = len(rows - table)
    missing = len(table - rows)
    return ok, (
        f"documented discrepancy: exact enumeration yields {len(rows)} rows "
        f"({extra} beyond the 20-row table, {missing} table rows infeasible); "
        f"balanced-exact yields {len(balanced)} (ties are forced at n=2)"
    )


def check_diagram_levels(quick: bool) -> Verdict:
    ok = True
    for spec in [*map(complete, range(2, 7)), *map(bipartite, range(1, 5))]:
        sizes = build_diagram(spec).level_sizes()
        ok = ok and tuple(reversed(sizes)) == length_distribution(spec.family, spec.n).counts
    return ok, "level sizes match distributions"


def check_witness_roundtrips(quick: bool) -> Verdict:
    eps_set = (Fraction(1), Fraction(1, 100))
    count = 0
    ok = len(enumerate_phi_n(6)) == 132 and len(enumerate_phi_nn(4)) == 1764
    for spec, witness in [
        *((complete(n), witness_kn) for n in range(1, 7)),
        *((bipartite(n), witness_knn) for n in range(1, 5)),
    ]:
        record = CODES[spec.family]
        for code in record.codes(spec.n):
            for eps in eps_set:
                if record.encode(witness(code, eps), eps) != code:
                    ok = False
                count += 1
    return ok, f"{count} roundtrips exact"


def check_eps_invariance(quick: bool) -> Verdict:
    rng = np.random.default_rng(SEED)
    eps, eps2 = 0.1, 0.003
    trials = 0
    ok = True
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
            ok = ok and a.edge_order() == b.edge_order()
            done += 1
            trials += 1
    return ok, f"{trials} scaled pairs, orders equal"


def check_flow_exactness(quick: bool) -> Verdict:
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    step = 1e-3
    for n in range(2, 9):
        for spec in (complete(n), bipartite(n)):
            # sorted as a whole, so each party is sorted too
            x = np.sort(rng.random(spec.vertex_count))
            closed = linear_flow(Configuration(spec, tuple(x)))
            mat = laplacian(spec).astype(np.float64)
            t = 0.0
            for _ in range(int(round(5.0 / step))):
                x = rk4_linear_step(mat, x, step)
                t += step
                exact = closed(t)
                worst = max(worst, float(np.max(np.abs(x - exact))))
    ok = worst < 1e-8

    # crossing times: exact quadratic roots vs bisection on the closed form
    worst_t = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 5))
        x = rng.random(2 * n) * 3.0
        cfg = Configuration(
            bipartite(n), tuple(np.concatenate([np.sort(x[:n]), np.sort(x[n:])]))
        )
        eps = 0.25
        for row in range(1, n + 1):
            for col in range(1, n + 1):
                got = cross_party_crossing_times(cfg, eps, row, col)
                ref = _bisect_crossings(cfg, eps, row, col)
                if len(got) != len(ref):
                    return False, f"crossing count mismatch: {got} vs {ref}"
                for a, b in zip(got, ref):
                    worst_t = max(worst_t, abs(a - b))
    ok = ok and worst_t < 1e-10
    return ok, f"rk4 sup error {worst:.2e}; crossing-time deviation {worst_t:.2e}"


def _bisect_crossings(cfg: Configuration, eps: float, row: int, col: int):
    """Crossing times located by sign scan + bisection on the closed form."""
    n = cfg.spec.n
    d0 = float(cfg[row]) - float(cfg[n + col])
    m1, m2 = cfg.party_means()
    beta = float(m1 - m2)

    def gap(t):
        u = np.exp(-n * t)
        return np.abs(u * (d0 - (1.0 - u) * beta)) - eps

    ts = np.linspace(0.0, 12.0, 48001)
    vals = gap(ts)
    out = []
    for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
        lo, hi = float(ts[i]), float(ts[i + 1])
        flo = gap(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if flo * gap(mid) <= 0:
                hi = mid
            else:
                lo = mid
                flo = gap(lo)
        out.append(0.5 * (lo + hi))
    return [t for t in out if t > 1e-9]


def check_kuramoto_consistency(quick: bool) -> Verdict:
    rng = np.random.default_rng(SEED + 2)
    eps = 1e-3
    params = KuramotoParams(sigma=1.0)
    site_paths = {
        tuple(n for n, _k in order) for order in enumerate_realizable_orderings_kn(4)
    }
    in_diagram = len(site_paths) == 10
    samples = 50 if quick else 200
    matches = 0
    mismatch_gaps = []
    done = 0
    while done < samples:
        u = np.sort(rng.random(4))
        x = 0.01 * (u - u.mean())
        cfg = Configuration(complete(4), tuple(x))
        try:
            lin = switching_times_kn(cfg, eps)
        except NotTypicalError:
            continue
        if len(lin.events) != 6:
            continue  # initial code must be empty so paths start at the identity
        kur = kuramoto_sequence(cfg, params, eps)
        done += 1
        if kur.jump_sites() not in site_paths:
            in_diagram = False
        if kur.edge_order() == lin.edge_order():
            matches += 1
        else:
            mismatch_gaps.append(_reorder_gap(cfg, kur.edge_order(), lin.edge_order()))
    gaps_ok = all(g < 1e-6 for g in mismatch_gaps)
    need = math.ceil(samples * 195 / 200)
    ok = in_diagram and matches >= need and gaps_ok
    return ok, (
        f"{matches}/{samples} match the linear path; all observed paths realizable; "
        f"{len(mismatch_gaps)} near-tie mismatches"
    )


def _reorder_gap(cfg: Configuration, order_a, order_b) -> float:
    """Smallest increment gap among edge pairs ranked differently by the two orders."""
    vals = cfg.as_array()
    inc = {e: float(vals[e[1] - 1] - vals[e[0] - 1]) for e in order_a}
    rank_a = {e: i for i, e in enumerate(order_a)}
    rank_b = {e: i for i, e in enumerate(order_b)}
    worst = math.inf
    for e1 in order_a:
        for e2 in order_a:
            if e1 < e2 and (rank_a[e1] - rank_a[e2]) * (rank_b[e1] - rank_b[e2]) < 0:
                worst = min(worst, abs(inc[e1] - inc[e2]))
    return worst


def check_bounds(quick: bool) -> Verdict:
    # The factorial lower bound is tight at n = 3 (both sides equal 2, as the
    # "thrall(3) is tight" clause implies), strict from n = 4 on.
    ok = True
    for n in (3, 4, 5):
        g = count_realizable_paths_kn(n)
        b = golomb_bounds(n)
        lower_ok = b.lower == g if n == 3 else b.lower < g
        ok = ok and lower_ok and g <= b.upper_thrall <= b.upper_factorial
    b3, b4 = golomb_bounds(3), golomb_bounds(4)
    ok = ok and b3.upper_thrall == 2 and b4.upper_thrall == 12
    return ok, "gap-order bound <= count <= thrall <= pair-order bound (equality at n=3)"


def check_asymptotic_shape(quick: bool) -> Verdict:
    dist8 = f_knn(8)
    s8 = summary(dist8)
    exact_mean = Fraction(
        sum(l * c for l, c in enumerate(dist8.counts)), dist8.total()
    )
    knn_ok = s8.modes == (51,) and s8.mean == exact_mean
    if quick:
        return knn_ok, "bipartite n=8 exact (complete-family n=60 window skipped in quick mode)"
    s60 = summary(f_kn(60))
    mode_ratio = float(s60.mode_ratios[0])
    mean_ratio = float(s60.mean_ratio)
    kn_ok = 0.60 <= mode_ratio <= 0.66 and 0.50 <= mean_ratio <= 0.55
    return knn_ok and kn_ok, (
        f"bipartite n=8 exact (argmax 51); documented discrepancy for the "
        f"complete family: exact n=60 argmax ratio {mode_ratio:.4f} and mean "
        f"ratio {mean_ratio:.4f} lie outside the expected [0.60,0.66]/[0.50,0.55]"
    )


def check_determinism(quick: bool) -> Verdict:
    d = build_diagram(complete(4))
    ok = export_dot(d) == export_dot(build_diagram(complete(4)))
    rng1 = np.random.default_rng(SEED)
    rng2 = np.random.default_rng(SEED)
    ok = ok and np.array_equal(rng1.random(16), rng2.random(16))
    x = tuple(np.sort(np.random.default_rng(7).random(4)))
    s1 = switching_times_kn(Configuration(complete(4), x), 0.01).to_json()
    s2 = switching_times_kn(Configuration(complete(4), x), 0.01).to_json()
    ok = ok and s1 == s2
    return ok, "exports and seeded runs byte-identical"


# (name, check, wall-clock budget in seconds or None)
CHECKS: tuple[tuple[str, Callable[[bool], Verdict], float | None], ...] = (
    ("golomb_counts", check_golomb_counts, 60),
    ("golomb_stretch_n6", check_golomb_stretch, 1800),
    ("kn4_ordering_table", check_kn4_orderings, None),
    ("admissible_counts", check_admissible_counts, None),
    ("kn_length_rows", check_kn_distribution_rows, 5),
    ("knn_length_rows", check_knn_distribution_rows, 60),
    ("knn2_ordering_table", check_knn_ordering_table, None),
    ("diagram_level_consistency", check_diagram_levels, None),
    ("witness_roundtrips", check_witness_roundtrips, 60),
    ("eps_invariance", check_eps_invariance, None),
    ("flow_exactness", check_flow_exactness, None),
    ("kuramoto_consistency", check_kuramoto_consistency, None),
    ("golomb_bounds", check_bounds, None),
    ("asymptotic_shape", check_asymptotic_shape, None),
    ("determinism", check_determinism, None),
)

# Checks that encode reference-table values refuted by exact computation;
# they stay in the suite and are reported as failures with an explanation.
DOCUMENTED_DISCREPANCIES = ("knn2_ordering_table", "asymptotic_shape")


def run_check(
    name: str, check: Callable[[bool], Verdict], budget: float | None, quick: bool
) -> tuple[CheckResult, float]:
    """Run one check; a crash or an overrun budget fails it.  Returns the seconds taken."""
    t0 = time.perf_counter()
    try:
        passed, detail = check(quick)
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        passed, detail = False, f"{detail}; exceeded {budget:.0f}s budget"
    return CheckResult(name, passed, detail), elapsed


def run_verify(quick: bool = False, echo=print) -> dict:
    results = []
    for name, check, budget in CHECKS:
        res, elapsed = run_check(name, check, budget, quick)
        status = "PASS" if res.passed else "FAIL"
        echo(f"{status} {res.name}: {res.detail} [{elapsed:.1f}s]")
        results.append(res)
    return {
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": all(r.passed for r in results),
        "documented_discrepancies": [
            r.name
            for r in results
            if not r.passed and r.name in DOCUMENTED_DISCREPANCIES
        ],
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
