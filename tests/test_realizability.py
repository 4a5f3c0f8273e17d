import contextlib
import hashlib
import itertools
import json
import math
import time
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest

from syncpaths.errors import NotTypicalError, SyncPathsError
from syncpaths.graphs import Configuration, Family, bipartite, complete
from syncpaths.realizability import (
    GOLOMB_TABLE,
    ORDERING_LIMIT_KNN,
    IncrementOrder,
    arrangements,
    count_realizable_paths_kn,
    enumerate_realizable_orderings_kn,
    enumerate_realizable_orderings_knn,
    feasible,
    golomb_bounds,
    knn_path_upper_bound,
    path_to_ordering_kn,
    path_to_ordering_knn,
    ruler_from_configuration,
    verify_witness,
)
from syncpaths.flows import switching_times_kn
from syncpaths import reference

TABLE1_ROW1 = ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3))


def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_feasible_table_row_one():
    order = IncrementOrder(Family.COMPLETE, 4, TABLE1_ROW1)
    witness = feasible(order)
    assert witness is not None
    assert witness.values == (0, 2, 5, 9)
    assert verify_witness(order, witness)


def test_verify_witness_refuses_other_graph():
    # the K_3 order holds on (0, 1, 3, 7) read as K_4 or as K_{2,2} values,
    # but a witness must be a configuration of the order's own graph
    order = IncrementOrder(Family.COMPLETE, 3, ((1, 1), (2, 1)))
    assert verify_witness(order, Configuration(complete(3), (0, 1, 3)))
    for spec in (complete(4), bipartite(2)):
        assert not verify_witness(order, Configuration(spec, (0, 1, 3, 7)))


def test_counterexample_infeasible():
    order = path_to_ordering_kn((1, 2, 3, 4), (1, 3, 2, 2, 1, 1))
    assert order.labels == ((1, 1), (3, 1), (2, 1), (2, 2), (1, 2), (1, 3))
    assert feasible(order) is None


def test_k5_witnesses_pinned():
    # feasible() on every K5 jump path from the identity code: the exact
    # witness values (None when infeasible) are those of the rational
    # tableau, so a changed pivot sequence fails here
    from syncpaths.diagram import successors_kn

    paths = []

    def walk(code, sites):
        nxt = successors_kn(code)
        if not nxt:
            paths.append(tuple(sites))
        for site, target in nxt:
            walk(target, sites + [site])

    walk((1, 2, 3, 4, 5), [])
    witnesses = []
    for sites in paths:
        config = feasible(path_to_ordering_kn((1, 2, 3, 4, 5), sites))
        witnesses.append(None if config is None else [str(v) for v in config.values])
    assert len(paths) == 768
    assert sum(w is None for w in witnesses) == 654
    assert witnesses[:2] == [["0", "1", "3", "7", "15"], ["0", "2", "5", "11", "21"]]
    assert _sha256_json(witnesses) == (
        "7e56d5ea4d77bd4bad97d3cdee60c036215105c08c89c0c7b118ad7a2b81ab91"
    )


def test_path_to_ordering_rejects_inadmissible():
    with pytest.raises(SyncPathsError):
        path_to_ordering_kn((1, 2, 3, 4), (4,))
    with pytest.raises(SyncPathsError):
        path_to_ordering_kn((2, 2, 3, 4), (1, 1, 1))  # reach already at the next value


def test_path_to_ordering_knn_moves():
    order = path_to_ordering_knn(((1, 3), (0, 2)), ((1, +1), (2, -1)))
    assert order.labels == ((1, 1, 1), (2, 2, -1))
    for bad in ((1, -1), (3, +1), (1, 0)):  # alpha at 1, site beyond n, no sign
        with pytest.raises(SyncPathsError):
            path_to_ordering_knn(((1, 1), (0, 0)), (bad,))


def test_golomb_counts_small():
    assert [count_realizable_paths_kn(n) for n in range(1, 6)] == [1, 1, 2, 10, 114]


def test_count_matches_enumeration():
    for n in (3, 4):
        assert count_realizable_paths_kn(n) == len(enumerate_realizable_orderings_kn(n))


def test_parallel_count_agrees():
    assert count_realizable_paths_kn(5, jobs=2) == 114


def test_pool_workers_capped_at_cpu_count(monkeypatch):
    # every pool worker is forked at once, so a huge jobs value must not reach
    # the pool; a fake pool records max_workers and maps in this process
    from syncpaths import realizability

    seen = []

    def fake_pool(max_workers):
        seen.append(max_workers)
        return contextlib.nullcontext(types.SimpleNamespace(map=map))

    monkeypatch.setattr(realizability, "ProcessPoolExecutor", fake_pool)
    monkeypatch.setattr(realizability.os, "cpu_count", lambda: 3)
    assert count_realizable_paths_kn(5, jobs=10**6) == 114
    assert seen == [3]


@pytest.mark.parametrize(
    "enumerate_rows, work",
    [
        (lambda: enumerate_realizable_orderings_kn(4), (16, 78, 19)),
        (lambda: enumerate_realizable_orderings_kn(5), (218, 2690, 191)),
        (lambda: enumerate_realizable_orderings_knn(2), (14, 41, 20)),
        (lambda: enumerate_realizable_orderings_knn(2, balanced=True), (5, 9, 3)),
        (lambda: enumerate_realizable_orderings_knn(3, balanced=True), (379, 4911, 394)),
        (lambda: count_realizable_paths_kn(5, jobs=1), (218, 2690, 191)),
    ],
    ids=["kn4", "kn5", "knn2", "knn2-balanced", "knn3-balanced", "count-kn5-serial"],
)
def test_lp_call_counts_are_pinned(enumerate_rows, work, monkeypatch):
    # (solves, rows in the tableau at each solve, pivots), summed over the
    # search: an extra root LP or a weaker witness-reuse test shows up as more
    # solves, an implied tail row as more rows, a lost warm start as more
    # pivots, a mirrored branch or arrangement searched again as all three;
    # the pivots are read off each tableau's own count
    from syncpaths import ratlp

    solve = ratlp.Tableau.solve
    seen = []

    def counted(lp):
        before = lp.pivots
        point = solve(lp)
        seen.append((len(lp.tab), lp.pivots - before))
        return point

    monkeypatch.setattr(ratlp.Tableau, "solve", counted)
    enumerate_rows()
    assert (len(seen), sum(r for r, _ in seen), sum(p for _, p in seen)) == work


@pytest.mark.parametrize(
    "enumerate_rows, digest",
    [
        (
            lambda: enumerate_realizable_orderings_kn(5),
            "1b562690aa2c481f6052d4f7b7e63334e34819642cfe112078650adcead20808",
        ),
        (
            lambda: enumerate_realizable_orderings_knn(3, balanced=True),
            "a72786433791a99f3846de0a0a6b09deb18120ac70dfb4837c489223d44c5826",
        ),
    ],
    ids=["kn5", "knn3-balanced"],
)
def test_enumeration_order_is_pinned(enumerate_rows, digest):
    # the lists as returned, not sorted: the search's depth-first item order
    # is part of the "deterministic order" the enumerators promise
    assert _sha256_json(enumerate_rows()) == digest


def test_orbit_reuse_matches_the_full_search():
    # oracle without symmetry: the plain search over the whole K_n tree and
    # over every arrangement must give the enumerators' lists, order included
    from syncpaths.realizability import _chains, _kn_space, _knn_space

    for n in range(1, 6):
        space, labels = _kn_space(n)
        full = [tuple(labels[i] for i in chain) for chain in _chains(space)]
        assert enumerate_realizable_orderings_kn(n) == full, n
    for n in (1, 2, 3):
        for balanced in (False, True):
            full = []
            for arr in arrangements(n):
                space, labels = _knn_space(n, arr, balanced)
                full.extend((arr, tuple(labels[i] for i in chain)) for chain in _chains(space))
            assert enumerate_realizable_orderings_knn(n, balanced) == full, (n, balanced)
    # every Golomb n=5 branch counted on its own: first gap a and its mirror
    # 5 - a count the same, and the four add up to the class count
    space, labels = _kn_space(5)
    per_gap = {
        a: sum(1 for _chain in _chains(space, (c,)))
        for c, (a, k) in enumerate(labels) if k == 1
    }
    assert per_gap == {1: 22, 2: 35, 3: 35, 4: 22}
    assert all(per_gap[a] == per_gap[5 - a] for a in per_gap)
    assert sum(per_gap.values()) == GOLOMB_TABLE[5]


def test_kn4_orderings_match_reference():
    assert set(enumerate_realizable_orderings_kn(4)) == set(reference.KN4_ORDERINGS)


def test_every_feasible_order_is_admissible():
    # realizable orders induce paths present in the transition diagram
    from syncpaths.diagram import build_diagram

    diagram = build_diagram(complete(4))
    arrows = {(a.source, a.site): a.target for a in diagram.arrows}
    for order in enumerate_realizable_orderings_kn(4):
        code = (1, 2, 3, 4)
        for site, _k in order:
            code = arrows[(code, site)]
        assert code == (4, 4, 4, 4)


def test_feasible_orders_brute_force_n3():
    # oracle: enumerate all strict orders of the three-vertex increments and
    # test each against random rational configurations
    labels = [(1, 1), (2, 1), (1, 2)]
    feasible_orders = set()
    for gaps in itertools.product(range(1, 9), repeat=2):
        vals = (0, gaps[0], gaps[0] + gaps[1])
        incs = {(n, k): vals[n + k - 1] - vals[n - 1] for n, k in labels}
        if len(set(incs.values())) < 3:
            continue
        feasible_orders.add(tuple(sorted(labels, key=incs.get)))
    assert set(enumerate_realizable_orderings_kn(3)) == feasible_orders


def test_golomb_bounds_values():
    b3 = golomb_bounds(3)
    assert (b3.lower, b3.upper_thrall, b3.upper_factorial) == (2, 2, 6)
    b4 = golomb_bounds(4)
    assert b4.upper_thrall == 12
    b5 = golomb_bounds(5)
    assert b5.lower == 24 and b5.upper_factorial == math.factorial(10)
    assert 24 < 114 <= b5.upper_thrall <= math.factorial(10)


def test_knn_upper_bound():
    assert knn_path_upper_bound(2) == 4 * GOLOMB_TABLE[4] == 40
    assert knn_path_upper_bound(3) == 18 * GOLOMB_TABLE[6] == 46944
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # degenerate but documented: no warning
        assert knn_path_upper_bound(1) == 0
    assert knn_path_upper_bound(4) == (math.comb(8, 4) - 2) * GOLOMB_TABLE[8]


def test_count_size_guard():
    from syncpaths.errors import SizeGuardError

    for n in (8, 10):
        t0 = time.perf_counter()
        with pytest.raises(SizeGuardError):
            count_realizable_paths_kn(n)
        assert time.perf_counter() - t0 < 1.0  # refused before any search
    with pytest.raises(SizeGuardError):
        enumerate_realizable_orderings_knn(ORDERING_LIMIT_KNN + 1)
    for enumerate_orderings in (enumerate_realizable_orderings_kn,
                                enumerate_realizable_orderings_knn):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                enumerate_orderings(n)
    with pytest.raises(SizeGuardError, match="interleaving bound"):
        knn_path_upper_bound(5)  # needs the unavailable Golomb(10)


def test_enumeration_rows_are_feasible_orders():
    # the arrangement-based search and the signed-order feasibility test are
    # independent formulations; every enumerated row must pass the latter
    for arr, labels in enumerate_realizable_orderings_knn(2):
        order = IncrementOrder(Family.BIPARTITE, 2, labels)
        w = feasible(order)
        assert w is not None and verify_witness(order, w)


def test_arrangements():
    arrs = arrangements(2)
    assert len(arrs) == 6
    assert (1, 2, 3, 4) in arrs and (3, 1, 4, 2) in arrs
    assert all(len(a) == 4 for a in arrs)


def test_knn_ordering_enumeration_n1():
    rows = enumerate_realizable_orderings_knn(1)
    assert len(rows) == 2
    assert set(rows) == {((1, 2), ((1, 1, 1),)), ((2, 1), ((1, 1, -1),))}


def test_knn_ordering_enumeration_exact_n2():
    """Exact ground truth: 24 feasible rows (confirmed by brute force), the
    published 18 valid table rows included, its 2 corrupted rows excluded."""
    rows = set(enumerate_realizable_orderings_knn(2))
    assert len(rows) == 24

    # independent brute force over integer configurations
    brute = set()
    rng = np.random.default_rng(17)
    for _ in range(120000):
        vals = rng.choice(500, size=4, replace=False)
        x = tuple(np.sort(vals[:2])) + tuple(np.sort(vals[2:]))
        mags = {(r, c): x[2 + c - 1] - x[r - 1] for r in (1, 2) for c in (1, 2)}
        if len({abs(v) for v in mags.values()}) < 4:
            continue
        order = tuple(sorted(mags, key=lambda k: abs(mags[k])))
        labels = tuple((r, c, 1 if mags[(r, c)] > 0 else -1) for r, c in order)
        arr = tuple(v for v, _ in sorted(zip((1, 2, 3, 4), x), key=lambda t: t[1]))
        brute.add((arr, labels))
    assert rows == brute

    table = set(reference.KNN2_ORDERING_TABLE)
    infeasible_rows = table - rows
    assert len(infeasible_rows) == 2
    assert all(arr == (3, 1, 2, 4) for arr, _ in infeasible_rows)
    assert len(rows - table) == 6


def _mirror_row(n, arr, labels):
    """Image under x -> -x with parties re-sorted: an involution on rows."""

    def relabel(v):
        return n + 1 - v if v <= n else 3 * n + 1 - v

    mirrored_arr = tuple(relabel(v) for v in reversed(arr))
    flipped = tuple((n + 1 - r, n + 1 - c, -q) for r, c, q in labels)
    return mirrored_arr, flipped


def test_knn_ordering_reflection_symmetry():
    # negating all coordinates reverses the arrangement, relabels each party
    # in reverse, preserves magnitudes, and flips every sign
    rows = enumerate_realizable_orderings_knn(2)
    rowset = set(rows)
    for arr, labels in rows:
        assert _mirror_row(2, arr, labels) in rowset


@pytest.mark.slow
def test_knn_ordering_enumeration_n3_regression():
    rows = enumerate_realizable_orderings_knn(3)
    assert len(rows) == 3504  # frozen from exact enumeration
    assert _sha256_json(sorted(rows)) == (
        "e60e0ef0ee02c4be04a604093327d7569f42f99bd6a206fce0660e7fbc90418b"
    )
    rowset = set(rows)
    assert len(rowset) == 3504
    for arr, labels in rowset:
        assert _mirror_row(3, arr, labels) in rowset


def test_knn_balanced_exact_is_empty_at_n2():
    # party size 2 + exact balance forces |d11| = |d22| and |d12| = |d21|,
    # so no strict magnitude order is feasible
    assert enumerate_realizable_orderings_knn(2, balanced=True) == []


@pytest.mark.slow
def test_knn_balanced_n3_regression():
    # exact balance is non-degenerate from party size 3 on
    rows = enumerate_realizable_orderings_knn(3, balanced=True)
    assert len(rows) == 312  # frozen from exact enumeration
    assert _sha256_json(sorted(rows)) == (
        "a72786433791a99f3846de0a0a6b09deb18120ac70dfb4837c489223d44c5826"
    )
    rowset = set(rows)
    for arr, labels in rowset:
        assert _mirror_row(3, arr, labels) in rowset
    for arr, labels in rows[::25]:
        order = IncrementOrder(Family.BIPARTITE, 3, labels)
        w = feasible(order, balanced=True)
        assert w is not None and w.is_balanced() and verify_witness(order, w)


def test_knn_orderings_induce_admissible_paths():
    # every feasible ordering replays as a single-site diagram path from its
    # arrangement's start code down to the complete code
    from syncpaths.codes import apply_edge, encode_knn, start_codes_knn

    starts = {code for code, _flag in start_codes_knn(2)}
    for arr, labels in enumerate_realizable_orderings_knn(2):
        order = IncrementOrder(Family.BIPARTITE, 2, labels)
        witness = feasible(order)
        eps = min(
            abs(witness.values[2 + c - 1] - witness.values[r - 1])
            for r, c, _q in labels
        ) / 2
        code = encode_knn(witness, eps)
        assert code in starts
        for r, c, _q in labels:
            _site, _sign, code, _edge = apply_edge(Family.BIPARTITE, code, (r, 2 + c))
        assert code == ((1, 1), (2, 2))


def test_feasible_knn_signed_order():
    order = IncrementOrder(
        Family.BIPARTITE, 2, ((2, 1, 1), (2, 2, 1), (1, 1, 1), (1, 2, 1))
    )
    w = feasible(order)
    assert w is not None and verify_witness(order, w)
    # balanced flag forces infeasibility for the separated arrangement
    assert feasible(order, balanced=True) is None


def test_order_json():
    order = IncrementOrder(Family.COMPLETE, 3, ((1, 1), (2, 1)))
    assert order.to_json() == "[[1, 1], [2, 1]]"
    signed = IncrementOrder(Family.BIPARTITE, 2, ((2, 1, -1),))
    assert signed.to_json() == "[[2, 1, -1]]"


def test_feasible_rejects_kn_balanced_flag():
    with pytest.raises(ValueError):
        feasible(IncrementOrder(Family.COMPLETE, 3, ((1, 1),)), balanced=True)


def test_ruler_from_configuration_example():
    cfg = Configuration(
        complete(4), (Fraction(0), Fraction(1, 10), Fraction(35, 100), Fraction(75, 100))
    )
    ruler = ruler_from_configuration(cfg)
    assert ruler == (0, 8, 28, 60)
    diffs = [b - a for a, b in itertools.combinations(ruler, 2)]
    assert sorted(diffs) == sorted((8, 20, 32, 28, 52, 60))
    assert len(set(diffs)) == len(diffs)


def test_ruler_preserves_order():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        x = tuple(sorted(Fraction(int(v), 997) for v in rng.choice(5000, n, replace=False)))
        cfg = Configuration(complete(n), x)
        try:
            ruler = ruler_from_configuration(cfg)
        except NotTypicalError:
            continue
        rcfg = Configuration(complete(n), tuple(Fraction(q) for q in ruler))
        def order(c):
            incs = {}
            for a in range(n):
                for b in range(a + 1, n):
                    incs[(a + 1, b - a)] = c.values[b] - c.values[a]
            return tuple(sorted(incs, key=incs.get))
        assert order(cfg) == order(rcfg)


def test_ruler_at_one_and_two_vertices():
    # no gap between increments at n = 2, and no increment at n = 1
    assert ruler_from_configuration(Configuration(complete(1), (Fraction(5, 2),))) == (2,)
    assert ruler_from_configuration(Configuration(complete(1), (0,))) == (0,)
    for x in ((0, 1), (Fraction(1, 3), Fraction(1, 2)), (Fraction(-7), Fraction(1, 1000))):
        a, b = ruler_from_configuration(Configuration(complete(2), x))
        assert b - a > 0


def test_ruler_rejects_ties():
    with pytest.raises(NotTypicalError):
        ruler_from_configuration(Configuration(complete(4), (0, 1, 3, 4)))


def test_simulation_consistency():
    # the event order of the linear flow is feasible, and the extracted
    # integer ruler induces the same increment order
    rng = np.random.default_rng(31)
    for n in range(3, 7):
        done = 0
        while done < 40:
            x = tuple(sorted(Fraction(int(v), 1009) for v in rng.choice(20000, n, replace=False)))
            cfg = Configuration(complete(n), x)
            try:
                seq = switching_times_kn(cfg, Fraction(1, 10**6))
            except NotTypicalError:
                continue
            done += 1
            labels = tuple((u, v - u) for u, v in seq.edge_order())
            order = IncrementOrder(Family.COMPLETE, n, labels)
            w = feasible(order)
            assert w is not None and verify_witness(order, w)
            assert verify_witness(order, cfg)
            ruler = ruler_from_configuration(cfg)
            rcfg = Configuration(complete(n), tuple(Fraction(q) for q in ruler))
            assert verify_witness(order, rcfg)
