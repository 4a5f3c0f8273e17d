import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncpaths.codes import (
    CODES,
    apply_edge,
    catalan,
    decode_kn,
    decode_knn,
    dyck_area,
    encode_kn,
    encode_knn,
    enumerate_phi_n,
    enumerate_phi_nn,
    kn_code_text,
    knn_code_text,
    narayana_count,
    parse_code_text,
    polyomino_area,
    to_polyomino,
    validate_kn,
    validate_knn,
    validate_polyomino,
)
from syncpaths.diagram import build_diagram
from syncpaths.errors import InvalidCodeError, NotTypicalError
from syncpaths.graphs import Configuration, Family, GraphSpec, bipartite, complete, sync_subnetwork


def test_encode_kn_examples():
    assert encode_kn(Configuration(complete(4), (0, 1, 3, 4)), 1) == (2, 2, 4, 4)
    assert encode_kn(Configuration(complete(4), (0, 10, 20, 30)), 1) == (1, 2, 3, 4)
    assert encode_kn(Configuration(complete(5), (7,) * 5), 1) == (5,) * 5


def test_encode_kn_rejects_unsorted():
    with pytest.raises(ValueError):
        encode_kn(Configuration(complete(3), (1, 0, 2)), 1)


def test_decode_kn_examples():
    assert decode_kn((2, 2, 4, 4)) == {(1, 2), (3, 4)}
    assert decode_kn((1, 2, 3, 4)) == frozenset()
    assert decode_kn((4, 4, 4, 4)) == frozenset(complete(4).edges())


def test_code_validation():
    # each refused by the same check, with the same message
    for validate, code, message in (
        (validate_kn, (2, 1, 3), "entry 2 out of range: 1"),
        (validate_kn, (1, 2, 4), "entry 3 out of range: 4"),
        (validate_knn, ((1, 1), (2, 1)), "borders not nondecreasing: (1, 1), (2, 1)"),
        (validate_knn, ((3, 3), (1, 1)), "alpha exceeds omega+1: (3, 3), (1, 1)"),
    ):
        with pytest.raises(InvalidCodeError) as refused:
            validate(code)
        assert str(refused.value) == message


@pytest.mark.parametrize(
    "validate, code",
    [
        (validate_kn, (1.0, 2.0)),
        (validate_kn, (True, 2)),
        (validate_kn, (1.5, 2)),
        (validate_kn, (np.int64(1), 2)),
        (validate_kn, ("1", 2)),
        (validate_knn, ((1.0, 2), (1, 2))),
        (validate_knn, ((1, 2), (1, True))),
        (validate_knn, ((1, 2),)),
        (validate_knn, ((1, 2), (1, 2), (9, 9))),
        (validate_kn, 5),
        (validate_knn, 5),
        (validate_knn, None),
        (validate_knn, ((1, 2), 5)),
    ],
    ids=["kn-floats", "kn-bool", "kn-fraction-valued", "kn-numpy-int", "kn-str",
         "knn-float", "knn-bool", "knn-one-vector", "knn-three-vectors",
         "kn-int", "knn-int", "knn-none", "knn-int-vector"],
)
def test_code_validation_refuses_non_int_entries_and_extra_vectors(validate, code):
    with pytest.raises(InvalidCodeError):
        validate(code)


def test_closed_form_levels_count_decoded_edges():
    for family, decode, sizes in (
        (Family.COMPLETE, decode_kn, range(1, 9)),
        (Family.BIPARTITE, decode_knn, range(1, 5)),
    ):
        record = CODES[family]
        for n in sizes:
            for code in record.codes(n):
                assert record.level(code) == len(decode(code))


def _phi_n_recursive(n):
    """The reach vectors by their recursive definition: entry i ranges over max(i, previous)..n."""
    def extend(prefix):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        for v in range(max(i + 1, prefix[-1] if prefix else 1), n + 1):
            yield from extend(prefix + [v])

    return list(extend([]))


def test_enumerate_phi_n_matches_recursive_definition():
    for n in range(1, 9):
        assert enumerate_phi_n(n) == _phi_n_recursive(n)


def test_enumerate_phi_n():
    assert enumerate_phi_n(1) == [(1,)]
    assert len(enumerate_phi_n(3)) == 5
    assert len(enumerate_phi_n(4)) == catalan(4) == 14
    codes = enumerate_phi_n(5)
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes) == catalan(5)


def test_enumerate_phi_n_matches_bruteforce():
    # independent oracle: filter all functions {1..n} -> {1..n}
    import itertools

    n = 5
    brute = [
        phi
        for phi in itertools.product(range(1, n + 1), repeat=n)
        if all(phi[i] >= i + 1 for i in range(n))
        and all(phi[i] <= phi[i + 1] for i in range(n - 1))
    ]
    assert enumerate_phi_n(n) == sorted(brute)


def test_catalan_counts():
    assert [catalan(n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    assert all(len(enumerate_phi_n(n)) == catalan(n) for n in range(1, 13))


def test_encode_knn_examples():
    cfg = Configuration(bipartite(2), (0, 3, 0.5, 3.5))
    assert encode_knn(cfg, 1) == ((1, 2), (1, 2))
    below = Configuration(bipartite(2), (0, 1, 10, 11))
    assert encode_knn(below, 1) == ((1, 1), (0, 0))
    above = Configuration(bipartite(2), (10, 11, 0, 1))
    assert encode_knn(above, 1) == ((3, 3), (2, 2))
    flat = Configuration(bipartite(3), (1,) * 6)
    assert encode_knn(flat, 1) == ((1, 1, 1), (3, 3, 3))


def test_decode_knn_examples():
    assert decode_knn(((1, 2), (1, 2))) == {(1, 3), (2, 4)}
    assert decode_knn(((1, 1), (0, 0))) == frozenset()
    assert decode_knn(((1, 1), (2, 2))) == frozenset(bipartite(2).edges())


def test_enumerate_phi_nn():
    assert sorted(enumerate_phi_nn(1)) == [((1,), (0,)), ((1,), (1,)), ((2,), (1,))]
    assert len(enumerate_phi_nn(2)) == narayana_count(2) == 20
    assert len(enumerate_phi_nn(3)) == narayana_count(3) == 175
    codes = enumerate_phi_nn(3)
    assert len(set(codes)) == len(codes)
    # only valid border pairs are built: the same list, in the same order, as
    # filtering every pair of nondecreasing vectors
    for n in range(1, 6):
        product = [
            (alpha, omega)
            for alpha in combinations_with_replacement(range(1, n + 2), n)
            for omega in combinations_with_replacement(range(n + 1), n)
            if all(a <= w + 1 for a, w in zip(alpha, omega))
        ]
        assert enumerate_phi_nn(n) == product, n


def test_narayana_closed_form():
    assert all(len(enumerate_phi_nn(n)) == narayana_count(n) for n in range(1, 7))
    for n in range(1, 8):
        assert narayana_count(n) == math.comb(2 * n + 1, n + 1) * math.comb(
            2 * n + 1, n
        ) // (2 * n + 1)


def test_polyomino_examples():
    assert to_polyomino(((1, 1), (2, 2))) == ((0, 0, 0), (3, 3, 3))
    assert polyomino_area(((0, 0, 0), (3, 3, 3))) == 9
    assert to_polyomino(((1, 2), (1, 2))) == ((0, 0, 1), (2, 3, 3))
    assert polyomino_area(((0, 0, 1), (2, 3, 3))) == 7


def test_polyomino_border_invariants_hold_for_published_example():
    # rectangular instance whose borders reach height 7 at width 14
    lower = (0, 0, 0, 0, 0, 2, 2, 2, 2, 5, 5, 5, 5, 5)
    upper = (1, 1, 1, 3, 3, 3, 5, 5, 6, 6, 6, 6, 7, 7)
    validate_polyomino((lower, upper), height=7)


def test_polyomino_injective_and_valid():
    for n in (1, 2, 3):
        images = [to_polyomino(c) for c in enumerate_phi_nn(n)]
        assert len(set(images)) == len(images)
        for borders in images:
            validate_polyomino(borders)
            assert n + 1 <= polyomino_area(borders) <= (n + 1) ** 2


def test_dyck_area():
    assert dyck_area((1, 2, 3, 4)) == 0
    assert dyck_area((4, 4, 4, 4)) == 6
    assert dyck_area((2, 2, 4, 4)) == 2


def test_code_text_roundtrip():
    assert kn_code_text((2, 2, 4, 4)) == "2,2,4,4"
    assert knn_code_text(((1, 2), (1, 2))) == "1,2|1,2"
    assert parse_code_text("2,2,4,4", Family.COMPLETE) == (2, 2, 4, 4)
    assert parse_code_text("1,2|1,2", Family.BIPARTITE) == ((1, 2), (1, 2))
    with pytest.raises(InvalidCodeError):
        parse_code_text("1,2", Family.BIPARTITE)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decode_encode_matches_subnetwork(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    values = tuple(
        sorted(
            data.draw(
                st.lists(
                    st.floats(min_value=0, max_value=10, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
        )
    )
    eps = data.draw(st.floats(min_value=0.05, max_value=3))
    cfg = Configuration(complete(n), values)
    assert decode_kn(encode_kn(cfg, eps)) == sync_subnetwork(cfg, eps)


def test_decode_encode_knn_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        x = rng.random(2 * n) * 4
        cfg = Configuration(
            bipartite(n), tuple(np.concatenate([np.sort(x[:n]), np.sort(x[n:])]))
        )
        eps = float(rng.random() * 2 + 0.05)
        assert decode_knn(encode_knn(cfg, eps)) == sync_subnetwork(cfg, eps)


@pytest.mark.parametrize(
    "family, decode, top", [(Family.COMPLETE, decode_kn, 4), (Family.BIPARTITE, decode_knn, 3)],
    ids=["kn", "knn"],
)
def test_decode_encode_exact_ties(family, decode, top):
    # on an integer grid at eps = 1 many pairs lie exactly eps apart, and the
    # closed threshold links them
    encode = CODES[family].encode
    for n in range(1, top + 1):
        parties = list(combinations_with_replacement(range(4), n))
        if family is Family.BIPARTITE:
            parties = [a + b for a in parties for b in parties]
        for values in parties:
            cfg = Configuration(GraphSpec(family, n), values)
            assert decode(encode(cfg, 1)) == sync_subnetwork(cfg, 1), values


@pytest.mark.parametrize(
    "family, decode", [(Family.COMPLETE, decode_kn), (Family.BIPARTITE, decode_knn)],
    ids=["kn", "knn"],
)
def test_decode_encode_float_rounding(family, decode):
    # on a float grid of step 0.05, 1.05 - 1.0 > 0.05 although 1.0 + 0.05 == 1.05:
    # the code must follow the rounded differences that sync_subnetwork compares
    encode = CODES[family].encode
    parties = list(combinations_with_replacement([1.0 + 0.05 * k for k in range(8)], 2))
    if family is Family.BIPARTITE:
        parties = [a + b for a in parties for b in parties]
    for values in parties:
        cfg = Configuration(GraphSpec(family, 2), values)
        for eps in (0.05, 0.1, 0.15):
            assert decode(encode(cfg, eps)) == sync_subnetwork(cfg, eps), (values, eps)


@pytest.mark.parametrize(
    "spec, decode", [(complete(5), decode_kn), (bipartite(3), decode_knn)], ids=["kn", "knn"]
)
def test_code_record_moves_agree(spec, decode):
    # each arrow must be the move apply_edge finds for the one edge the
    # decoded subnetwork gains, so the edge a move records is the decoded one
    record = CODES[spec.family]
    for arrow in build_diagram(spec).arrows:
        (edge,) = decode(arrow.target) - decode(arrow.source)
        assert apply_edge(spec.family, arrow.source, edge)[:3] == (
            arrow.site, arrow.sign, arrow.target
        )
    for n in range(1, 5):
        codes = record.codes(n)
        assert record.count(n) == len(codes)
        assert all(record.level(code) == len(decode(code)) for code in codes)
        assert set(record.starts(n)) <= set(codes) and record.sink(n) in codes
        assert all(record.level(start) == 0 for start in record.starts(n))
        assert record.level(record.sink(n)) == GraphSpec(spec.family, n).edge_count


@pytest.mark.parametrize(
    "family, code, edge",
    [
        (Family.COMPLETE, (1, 2, 3), (1, 3)),  # site 1 reaches 2 next, not 3
        (Family.COMPLETE, (2, 2, 3), (1, 3)),  # the bump would break monotonicity
        (Family.BIPARTITE, ((1, 2), (0, 1)), (1, 4)),  # column 2 borders no end of row 1
    ],
)
def test_apply_edge_rejects_non_moves(family, code, edge):
    with pytest.raises(NotTypicalError):
        apply_edge(family, code, edge)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_apply_edge_refuses_sites_outside_the_party(family):
    # sites 0, -1 and n+1 index no column: whatever the edge's other end, no
    # move is found there, none wraps round to the code's last entries, and
    # none reads past them
    n = 3
    for code in CODES[family].codes(n):
        for site in (0, -1, n + 1):
            for end in range(-2 * n - 2, 2 * n + 3):
                with pytest.raises(NotTypicalError):
                    apply_edge(family, code, (site, end))


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("site", [True, 1.0], ids=repr)
def test_apply_edge_refuses_a_site_not_an_int(family, site):
    # site 1 moves here, but a bool site would be carried into the move (and a
    # SyncEvent's JSON would write true), a float one fail to index a column;
    # both are refused before any move
    code, end = ((1, 2, 3), 2) if family is Family.COMPLETE else (((1, 2, 3), (0, 1, 2)), 4)
    assert apply_edge(family, code, (1, end))[0] == 1
    with pytest.raises(ValueError, match="site must be an int"):
        apply_edge(family, code, (site, end))


def _oracle_encode_kn(config, eps):
    """Reference reach vector: the sweep on the values as given."""
    if config.spec.family is not Family.COMPLETE:
        raise ValueError("encode_kn needs a complete-graph configuration")
    if not config.is_ordered():
        raise ValueError("configuration must be sorted ascending")
    x, reach, code = config.values, 0, []
    for m, v in enumerate(x, start=1):
        reach = max(reach, m)
        while reach < len(x) and x[reach] - v <= eps:
            reach += 1
        code.append(reach)
    return tuple(code)


def _oracle_encode_knn(config, eps):
    """Reference border pair: the sweep on the values as given."""
    if config.spec.family is not Family.BIPARTITE:
        raise ValueError("encode_knn needs a bipartite configuration")
    if not config.is_ordered():
        raise ValueError("both parties must be sorted ascending")
    first, second = config.party(1), config.party(2)
    alpha, omega, lo, hi = [], [], 0, 0
    for v in first:
        while lo < len(second) and second[lo] - v < -eps:
            lo += 1
        hi = max(hi, lo)
        while hi < len(second) and second[hi] - v <= eps:
            hi += 1
        alpha.append(lo + 1)
        omega.append(hi)
    return tuple(alpha), tuple(omega)


_ENCODERS = {
    Family.COMPLETE: (_oracle_encode_kn, encode_kn, decode_kn),
    Family.BIPARTITE: (_oracle_encode_knn, encode_knn, decode_knn),
}
_NUMBERS = {
    int: st.integers(0, 6),
    Fraction: st.builds(Fraction, st.integers(0, 24), st.integers(1, 4)),
    float: st.floats(0, 6),
    np.float64: st.floats(0, 6).map(np.float64),
}
_EPS = {
    int: st.integers(1, 3),
    Fraction: st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)),
    float: st.floats(0.05, 3),
}


def _outcome(encode, config, eps):
    try:
        return encode(config, eps)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_encoders_match_the_oracle(data):
    # rational input is swept in integer units, anything else as given, so
    # both must give the sweep's code, or its error, on the values as given
    family = data.draw(st.sampled_from(Family))
    spec = GraphSpec(family, data.draw(st.integers(1, 4)))
    kinds = data.draw(st.sampled_from([(int, Fraction), (float, np.float64), tuple(_NUMBERS)]))
    eps = data.draw(_EPS[data.draw(st.sampled_from([k for k in _EPS if k in kinds]))])
    values = [data.draw(st.sampled_from(kinds).flatmap(_NUMBERS.get))
              for _ in range(spec.vertex_count)]
    shift = data.draw(st.booleans())
    for i in range(1, len(values)):  # some pairs exactly eps apart
        if shift and data.draw(st.booleans()):
            values[i] = values[data.draw(st.integers(0, i - 1))] + eps
    if data.draw(st.booleans()):
        groups = Configuration(spec, tuple(values)).groups()
        values = [v for group in groups for v in sorted(group)]
    cfg = Configuration(spec, tuple(values))
    oracle, encode, decode = _ENCODERS[family]
    want = _outcome(oracle, cfg, eps)
    assert _outcome(encode, cfg, eps) == want
    if all(type(v) in (int, Fraction) for v in (*values, eps)) and cfg.is_ordered():
        assert decode(want) == sync_subnetwork(cfg, eps)
