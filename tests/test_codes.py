import math
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
    with pytest.raises(InvalidCodeError):
        validate_kn((2, 1, 3))
    with pytest.raises(InvalidCodeError):
        validate_kn((1, 2, 4))
    with pytest.raises(InvalidCodeError):
        validate_knn(((1, 1), (2, 1)))  # omega decreasing
    with pytest.raises(InvalidCodeError):
        validate_knn(((3, 3), (1, 1)))  # alpha > omega + 1


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
    assert all(len(enumerate_phi_n(n)) == catalan(n) for n in range(1, 9))


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


def test_narayana_closed_form():
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
