import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from syncpaths import codes
from syncpaths.codes import catalan, narayana_count, start_codes_knn, successors_kn, successors_knn
from syncpaths.diagram import (
    build_diagram,
    count_admissible_paths,
    export_dot,
    export_json,
    guarded_code_count,
    kn_admissible_paths,
)
from syncpaths.distributions import f_kn, f_knn
from syncpaths.errors import InvalidCodeError, SizeGuardError
from syncpaths.graphs import bipartite, complete
from syncpaths.realizability import (
    count_realizable_paths_kn,
    enumerate_realizable_orderings_knn,
    golomb_bounds,
    knn_path_upper_bound,
)


def test_successors_kn_examples():
    assert successors_kn((1, 2, 3, 4)) == [
        (1, (2, 2, 3, 4)),
        (2, (1, 3, 3, 4)),
        (3, (1, 2, 4, 4)),
    ]
    assert successors_kn((4, 4, 4, 4)) == []
    assert successors_kn((2, 2, 4, 4)) == [(2, (2, 3, 4, 4))]


def test_successors_knn_examples():
    assert successors_knn(((1,), (0,))) == [(1, 1, ((1,), (1,)))]
    assert successors_knn(((2,), (1,))) == [(1, -1, ((1,), (1,)))]
    assert successors_knn(((1, 1), (2, 2))) == []


def test_successors_stay_valid():
    from syncpaths.codes import enumerate_phi_nn, validate_knn, decode_knn

    for code in enumerate_phi_nn(3):
        base = len(decode_knn(code))
        for site, sign, nxt in successors_knn(code):
            validate_knn(nxt)
            assert len(decode_knn(nxt)) == base + 1


def test_build_diagram_counts():
    d4 = build_diagram(complete(4))
    assert len(d4.vertices) == 14
    assert d4.sink == (4, 4, 4, 4)
    assert d4.starts == ((1, 2, 3, 4),)

    d22 = build_diagram(bipartite(2))
    assert len(d22.vertices) == 20
    assert len(d22.starts) == 6
    assert d22.sink == ((1, 1), (2, 2))

    d2 = build_diagram(complete(2))
    assert len(d2.vertices) == 2 and len(d2.arrows) == 1


def test_arrows_increase_level_by_one():
    for diagram in (build_diagram(complete(5)), build_diagram(bipartite(3))):
        for a in diagram.arrows:
            assert diagram.level(a.target) == diagram.level(a.source) + 1


def test_start_vertices_are_exactly_indegree_zero():
    for diagram in (build_diagram(complete(4)), build_diagram(bipartite(2)),
                    build_diagram(bipartite(3))):
        with_incoming = {a.target for a in diagram.arrows}
        starts = set(diagram.vertices) - with_incoming
        assert starts == set(diagram.starts)


def test_out_degree_formula_kn():
    d = build_diagram(complete(5))
    out = {v: 0 for v in d.vertices}
    for a in d.arrows:
        out[a.source] += 1
    for v in d.vertices:
        expected = sum(1 for i in range(4) if v[i] < v[i + 1])
        assert out[v] == expected


def test_arrows_increase_polyomino_area_by_one():
    from syncpaths.codes import polyomino_area, to_polyomino

    d = build_diagram(bipartite(3))
    for a in d.arrows:
        assert polyomino_area(to_polyomino(a.target)) == polyomino_area(
            to_polyomino(a.source)
        ) + 1


def test_degree_totals_match_arrow_count():
    for diagram in (build_diagram(complete(5)), build_diagram(bipartite(2))):
        out_total = sum(1 for _ in diagram.arrows)
        indeg: dict = {}
        outdeg: dict = {}
        for a in diagram.arrows:
            indeg[a.target] = indeg.get(a.target, 0) + 1
            outdeg[a.source] = outdeg.get(a.source, 0) + 1
        assert sum(indeg.values()) == sum(outdeg.values()) == out_total


def test_knn_out_degree_is_move_count():
    d = build_diagram(bipartite(3))
    outdeg: dict = {v: 0 for v in d.vertices}
    for a in d.arrows:
        outdeg[a.source] += 1
    for v in d.vertices:
        assert outdeg[v] == len(successors_knn(v))


def test_admissible_path_counts():
    assert count_admissible_paths(build_diagram(complete(4)), (1, 2, 3, 4)) == 16
    assert count_admissible_paths(build_diagram(complete(3)), (1, 2, 3)) == 2
    d = build_diagram(complete(4))
    assert count_admissible_paths(d, (4, 4, 4, 4)) == 1
    with pytest.raises(InvalidCodeError):  # not a code at all
        count_admissible_paths(d, (9, 9, 9, 9))
    with pytest.raises(ValueError, match="not a vertex"):  # a K_5 code
        count_admissible_paths(d, (1, 2, 3, 4, 5))
    # identity to sink: standard Young tableaux of the staircase (n-1, ..., 1),
    # (n(n-1)/2)! over the hooks 2(n-i-j)+1 of its cells (i, j)
    for n in range(1, 10):
        hooks = math.prod(2 * (n - i - j) + 1 for i in range(1, n) for j in range(1, n - i + 1))
        want = math.factorial(n * (n - 1) // 2) // hooks
        assert count_admissible_paths(build_diagram(complete(n)), tuple(range(1, n + 1))) == want


def test_count_reads_the_source_through_the_family_validator():
    # a sequence counts as its tuple; a non-int entry or a non-code is refused as
    # a code, not as an unhashable or absent key
    d = build_diagram(complete(3))
    assert count_admissible_paths(d, [1, 2, 3]) == count_admissible_paths(d, (1, 2, 3)) == 2
    for bad in [(1, 2, 3.0), (1, 2, True), 5, ((1,), (0,))]:
        with pytest.raises(InvalidCodeError):
            count_admissible_paths(d, bad)
    b = build_diagram(bipartite(2))
    assert count_admissible_paths(b, [[1, 1], [0, 0]]) == count_admissible_paths(b, ((1, 1), (0, 0)))
    for bad in [(1, 2, 3), ((1, 1), (0, 0.0))]:
        with pytest.raises(InvalidCodeError):
            count_admissible_paths(b, bad)
    with pytest.raises(ValueError, match="not a vertex"):  # a K_{3,3} code
        count_admissible_paths(b, ((1, 1, 1), (0, 0, 0)))


@pytest.mark.parametrize("n", [True, 2.0, np.int64(2), 0, -1], ids=repr)
@pytest.mark.parametrize(
    "size_of",
    [codes.enumerate_phi_n, codes.enumerate_phi_nn, kn_admissible_paths, start_codes_knn,
     f_kn, f_knn, count_realizable_paths_kn, enumerate_realizable_orderings_knn,
     golomb_bounds, knn_path_upper_bound],
    ids=lambda f: f.__name__,
)
def test_sizes_follow_the_graph_spec_rule(size_of, n):
    # GraphSpec's rule: exactly an int and at least 1, so True is not read as 1,
    # nor 0 and -1 as the single empty path; the smallest size is computed first,
    # so a cache entry for 1 cannot answer True (golomb_bounds starts at 2)
    size_of(2 if size_of is golomb_bounds else 1)
    with pytest.raises(ValueError, match="^(n must be an int|party size must be positive), got"):
        size_of(n)


def test_kn_count_closed_forms_match_the_diagram():
    # `count --family kn` reads these instead of building the diagram
    for n in range(1, 10):
        d = build_diagram(complete(n))
        assert guarded_code_count(complete(n)) == len(d.vertices)
        assert kn_admissible_paths(n) == sum(count_admissible_paths(d, s) for s in d.starts)


def test_build_orders_vertices_by_level_and_arrows_by_source():
    # the order the path-count DP reads: vertices in nondecreasing level, each
    # source's arrows contiguous, sources in vertex order, and every vertex
    # but the sink a source
    specs = [complete(n) for n in range(1, 9)] + [bipartite(n) for n in range(1, 5)]
    for spec in specs:
        d = build_diagram(spec)
        levels = [d.level(v) for v in d.vertices]
        assert levels == sorted(levels), spec
        assert d.vertices[-1] == d.sink, spec  # the path-count DP starts from it
        sources = [s for s, _ in itertools.groupby(a.source for a in d.arrows)]
        assert sources == [v for v in d.vertices if v != d.sink], spec


SPECS = [complete(n) for n in range(1, 11)] + [bipartite(n) for n in range(1, 6)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: f"{spec.family.value}{spec.n}")
def test_arrows_share_the_vertex_objects(spec):
    # no arrow holds a copy of a code: its source and target are vertices
    # themselves, and each vertex's arrows are its moves with the edge dropped,
    # so the move rule read on the table's columns agrees with it read on one code
    d = build_diagram(spec)
    own = {id(v) for v in d.vertices}
    assert all(id(a.source) in own and id(a.target) in own for a in d.arrows)
    moves = codes.CODES[spec.family].code_moves
    arrows = {v: [] for v in d.vertices}
    for a in d.arrows:
        arrows[a.source].append((a.site, a.sign, a.target))
    for v in d.vertices:
        assert arrows[v] == [move[:3] for move in moves(v, range(1, spec.n + 1))], v


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: f"{spec.family.value}{spec.n}")
def test_vertex_entries_and_arrow_labels_are_ints(spec):
    # exactly int, never a numpy integer, whose repr would change the pinned arrows
    d = build_diagram(spec)
    entries = {type(x) for v in d.vertices for x in (v if spec.family.value == "kn" else v[0] + v[1])}
    labels = {type(x) for a in d.arrows for x in (a.site, a.sign)}
    assert entries == {int} and labels <= {int}, spec
    assert {type(v) for v in d.vertices} == {tuple}


def test_path_counts_one_dp_per_diagram():
    # every K_{3,3} start and the K_7 identity against a memoized recursion over
    # the move lists, which uses neither the arrows nor the level order
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def paths(code, sink):
        if code == sink:
            return 1
        moves = successors_kn(code) if isinstance(code[0], int) else successors_knn(code)
        return sum(paths(move[-1], sink) for move in moves)

    k7 = build_diagram(complete(7))
    assert count_admissible_paths(k7, k7.starts[0]) == paths(k7.starts[0], k7.sink)
    d = build_diagram(bipartite(3))
    counts = [count_admissible_paths(d, s) for s in d.starts]
    assert counts == [paths(s, d.sink) for s in d.starts]
    table = d._path_counts
    assert count_admissible_paths(d, d.starts[0]) == counts[0]
    assert d._path_counts is table  # computed once, kept with the diagram
    assert build_diagram(bipartite(3))._path_counts is not table


def test_maximal_path_lengths():
    d = build_diagram(complete(4))
    # every arrow raises the level by one and the sink is at level 6
    assert d.level(d.sink) == 6
    assert d.level((1, 2, 3, 4)) == 0


def test_start_codes_knn():
    starts = start_codes_knn(2)
    assert len(starts) == 6
    flagged = {code for code, f in starts if f}
    assert flagged == {((1, 1), (0, 0)), ((3, 3), (2, 2))}
    n1 = start_codes_knn(1)
    assert len(n1) == 2 and all(f for _, f in n1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="^party size must be positive, got"):
            start_codes_knn(n)


def test_level_sizes_match_distributions():
    for n in range(2, 7):
        sizes = build_diagram(complete(n)).level_sizes()
        assert tuple(reversed(sizes)) == f_kn(n).counts
    for n in range(1, 5):
        sizes = build_diagram(bipartite(n)).level_sizes()
        assert tuple(reversed(sizes)) == f_knn(n).counts


def test_size_guard():
    with pytest.raises(SizeGuardError):
        build_diagram(complete(40))


def test_export_dot_k2():
    text = export_dot(build_diagram(complete(2)))
    assert text.startswith("digraph sync_diagram {")
    assert '"1,2" -> "2,2" [label="n=1"];' in text


def test_exports_deterministic():
    d = build_diagram(bipartite(2))
    assert export_dot(d) == export_dot(build_diagram(bipartite(2)))
    assert export_json(d) == export_json(build_diagram(bipartite(2)))


def test_export_json_schema():
    d = build_diagram(complete(4))
    obj = json.loads(export_json(d))
    assert obj["spec"] == {"family": "kn", "n": 4}
    assert len(obj["vertices"]) == catalan(4)
    assert {"code", "level"} == set(obj["vertices"][0])
    assert {"from", "to", "site", "sign"} == set(obj["arrows"][0])
    d2 = json.loads(export_json(build_diagram(bipartite(2))))
    assert len(d2["vertices"]) == narayana_count(2)
    assert any(a["sign"] == -1 for a in d2["arrows"])


def test_build_diagram_validates_no_code(monkeypatch):
    # the codes come from enumerate_phi_n, so the moves are read unvalidated
    calls = []
    real = codes.validate_kn
    monkeypatch.setattr(codes, "validate_kn", lambda code: calls.append(code) or real(code))
    assert len(build_diagram(complete(6)).vertices) == 132
    assert calls == []


def test_arrows_pinned_hashable_and_frozen():
    # sha256 of the repr of the sorted (source, target, site, sign) arrows
    pins = {
        complete(7): "293ec83ffd81f038bac8814e1f3b95425a4c408d239e4b406b9eb86b0af618b7",
        bipartite(3): "19e10931e06c48c4bd9393977e591a0cb3de6214923483a383ef48effd305a20",
    }
    for spec, digest in pins.items():
        arrows = sorted((a.source, a.target, a.site, a.sign) for a in build_diagram(spec).arrows)
        assert hashlib.sha256(repr(arrows).encode()).hexdigest() == digest, spec
    arrow = build_diagram(complete(2)).arrows[0]
    assert {arrow: 1}[arrow] == 1
    with pytest.raises(AttributeError):
        arrow.site = 2


def test_arrows_view_pinned_in_run_order():
    # sha256 of the repr of the arrows as built, source by source
    pins = {
        complete(7): "0366d6cbf7c0e8b7a31e071f8d668634bd15ebf5f71855dab6eba0bcc500e147",
        bipartite(3): "0954305d7fa3574eecee5e1c0cef632f5037d646c8036d19ef61db0995e6bf97",
    }
    for spec, digest in pins.items():
        d = build_diagram(spec)
        assert hashlib.sha256(repr(d.arrows).encode()).hexdigest() == digest, spec
        assert d.arrows is d.arrows  # made once, on request


def test_diagrams_of_one_spec_are_equal():
    # the arrow runs follow from the spec, so they take no part in ==, hash or repr
    a, b = build_diagram(bipartite(3)), build_diagram(bipartite(3))
    assert a == b and hash(a) == hash(b)
    assert a != build_diagram(bipartite(2))
    assert repr(a) == repr(b) and "array" not in repr(a)


def test_counts_and_exports_make_no_arrow():
    d = build_diagram(complete(6))
    assert sum(count_admissible_paths(d, s) for s in d.starts) == kn_admissible_paths(6)
    export_dot(d)
    export_json(d)
    assert "arrows" not in vars(d)


def _reference_exports(d):
    """DOT and JSON from d.arrows: vertices sorted by (level, text), then each
    source's run of arrows, grouped as built, sorted by its targets' text."""
    text = {v: d.code_text(v) for v in d.vertices}
    keyed = sorted((d.level(v), text[v], v) for v in d.vertices)
    runs = {s: sorted(run, key=lambda a: text[a.target])
            for s, run in itertools.groupby(d.arrows, key=lambda a: a.source)}
    arrows = [a for _, _, v in keyed for a in runs.get(v, ())]
    dot = ["digraph sync_diagram {", *(f'  "{t}";' for _, t, _ in keyed)]
    for a in arrows:
        label = f"n={a.site}" if a.sign == 0 else f"n={a.site},q={a.sign:+d}"
        dot.append(f'  "{text[a.source]}" -> "{text[a.target]}" [label="{label}"];')
    payload = {
        "spec": {"family": d.spec.family.value, "n": d.spec.n},
        "vertices": [{"code": t, "level": level} for level, t, _ in keyed],
        "arrows": [{"from": text[a.source], "to": text[a.target], "site": a.site, "sign": a.sign}
                   for a in arrows],
    }
    return "\n".join(dot) + "\n}\n", json.dumps(payload)


@pytest.mark.parametrize(
    "spec", [complete(n) for n in range(1, 9)] + [bipartite(n) for n in range(1, 5)],
    ids=lambda spec: f"{spec.family.value}{spec.n}",
)
def test_exports_match_a_formatter_over_the_arrows(spec):
    d = build_diagram(spec)
    assert (export_dot(d), export_json(d)) == _reference_exports(d)
