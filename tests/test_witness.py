import hashlib
import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from syncpaths.codes import (
    CODES,
    encode_kn,
    encode_knn,
    enumerate_phi_n,
    enumerate_phi_nn,
)
from syncpaths import witness
from syncpaths.errors import InvalidCodeError
from syncpaths.graphs import Family
from syncpaths.witness import (
    forest_decomposition,
    overlap_blocks,
    witness_kn,
    witness_knn,
)


def test_forest_identity():
    f = forest_decomposition((1, 2, 3, 4))
    assert f.roots == (1, 2, 3, 4)
    assert all(f.height(r) == 0 for r in f.roots)


def test_forest_two_trees():
    f = forest_decomposition((2, 2, 4, 4))
    assert f.roots == (2, 4)
    assert f.levels[2] == ((2,), (1,))
    assert f.levels[4] == ((4,), (3,))


def test_forest_single_tree():
    n = 5
    f = forest_decomposition((5,) * n)
    assert f.roots == (5,)
    assert f.height(5) == 1
    assert f.levels[5] == ((5,), (1, 2, 3, 4))


def test_forest_level_ordering():
    # deeper levels hold strictly smaller vertices
    for n in range(2, 7):
        for code in enumerate_phi_n(n):
            forest = forest_decomposition(code)
            for root, tiers in forest.levels.items():
                for shallow, deep in zip(tiers, tiers[1:]):
                    assert max(deep) < min(shallow)


def test_witness_kn_examples():
    assert witness_kn((2, 2, 4, 4), 1).values == (0, 1, 3, 4)
    assert witness_kn((1, 2, 3, 4), 1).values == (0, 2, 4, 6)
    w = witness_kn((4, 4, 4, 4), 1).values
    assert w == (0, Fraction(1, 3), Fraction(2, 3), 1)


def test_witness_kn_roundtrip_exhaustive():
    for n in range(1, 7):
        for eps in (Fraction(1), Fraction(1, 100)):
            for code in enumerate_phi_n(n):
                w = witness_kn(code, eps)
                assert w.is_ordered()
                assert encode_kn(w, eps) == code


def test_witness_coordinates_pinned():
    # the exact coordinates of every witness, not only their encodings: a
    # rewrite of either construction must reproduce them value for value
    rows = []
    for family, build, sizes in (
        (Family.COMPLETE, witness_kn, range(1, 8)),
        (Family.BIPARTITE, witness_knn, range(1, 5)),
    ):
        for n in sizes:
            for eps in (Fraction(1), Fraction(1, 100)):
                for code in CODES[family].codes(n):
                    rows.append([str(v) for v in build(code, eps).values])
    assert len(rows) == 5174
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "eb95ebe6ae702aa8b77de145a4a3d8459afd325b97e588f8ab06ad4e6aebf67c"
    )


def _coordinates_sha(build, codes, eps) -> str:
    rows = [[str(v) for v in build(code, eps).values] for code in codes]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_witness_kn8_coordinates_pinned():
    # every K8 witness at an eps whose denominator is not a power of ten
    codes = CODES[Family.COMPLETE].codes(8)
    assert len(codes) == 1430
    assert _coordinates_sha(witness_kn, codes, Fraction(3, 7)) == (
        "6dc5144a328ba2cdf364703a8fd74c21acb4368c98d35865de4207044b629268"
    )


def test_witness_knn5_sample_coordinates_pinned():
    import random

    codes = random.Random(2022).sample(CODES[Family.BIPARTITE].codes(5), 500)
    assert _coordinates_sha(witness_knn, codes, Fraction(1, 100)) == (
        "a8974c475d84aa6ffa78dea116b8373b8476ecf052c816518023d4eea454fc4f"
    )


@pytest.mark.parametrize(
    "family, build, n",
    [(Family.COMPLETE, witness_kn, 7), (Family.BIPARTITE, witness_knn, 4)],
    ids=["kn7", "knn4"],
)
def test_witness_exactly_linear_in_eps(family, build, n):
    # every coordinate is eps times the coordinate at eps = 1, exactly
    eps = Fraction(3, 7)
    for code in CODES[family].codes(n):
        assert build(code, eps).values == tuple(eps * v for v in build(code, 1).values)


@pytest.mark.parametrize(
    "eps",
    [1, 0.01, np.float64(0.01), Decimal("0.01"), np.int64(2)],
    ids=["int", "float", "numpy-float", "decimal", "numpy-int"],
)
def test_witness_reads_eps_as_its_exact_fraction(eps):
    # every accepted eps type gives the coordinates of Fraction(eps), value for value
    exact = Fraction(eps)
    for family, build, sizes in (
        (Family.COMPLETE, witness_kn, range(1, 8)),
        (Family.BIPARTITE, witness_knn, range(1, 5)),
    ):
        for n in sizes:
            for code in CODES[family].codes(n):
                assert build(code, eps).values == build(code, exact).values, (code, eps)


def test_witness_scaling():
    for code in ((2, 2, 4, 4), (3, 4, 4, 4), (1, 3, 3)):
        a = witness_kn(code, Fraction(1, 50)).values
        b = witness_kn(code, Fraction(1)).values
        assert all(x * 50 == y for x, y in zip(a, b))


def test_overlap_blocks():
    assert overlap_blocks(((1, 2), (1, 2))) == [(1, 1), (2, 2)]
    assert overlap_blocks(((1, 1), (2, 2))) == [(1, 2)]
    assert overlap_blocks(((1, 1, 3), (1, 3, 3))) == [(1, 3)]
    # empty rows always form singleton blocks
    assert overlap_blocks(((2, 2), (1, 1))) == [(1, 1), (2, 2)]
    assert overlap_blocks(((2,), (1,))) == [(1, 1)]


def test_witness_knn_validates_once(monkeypatch):
    calls = []
    real = witness.validate_knn
    monkeypatch.setattr(witness, "validate_knn", lambda code: calls.append(code) or real(code))
    witness_knn(((1, 2), (1, 2)), 1)
    assert len(calls) == 1
    # the public block splitter still validates what it is given
    with pytest.raises(InvalidCodeError):
        overlap_blocks(((3, 3), (1, 1)))
    assert len(calls) == 2


def test_witness_knn_examples():
    assert witness_knn(((1, 2), (1, 2)), 1).values == (0, 3, 0, 3)
    w = witness_knn(((1, 1), (0, 0)), 1)
    assert encode_knn(w, 1) == ((1, 1), (0, 0))


def test_witness_knn_roundtrip_exhaustive():
    for n in range(1, 5):
        for eps in (Fraction(1), Fraction(1, 100)):
            for code in enumerate_phi_nn(n):
                w = witness_knn(code, eps)
                assert w.is_ordered()
                assert encode_knn(w, eps) == code


def test_witness_knn_scaling():
    for code in (((1, 2), (1, 2)), ((1, 1, 1), (1, 3, 3))):
        a = witness_knn(code, Fraction(1, 50)).values
        b = witness_knn(code, Fraction(1)).values
        assert all(x * 50 == y for x, y in zip(a, b))


def test_witness_refuses_non_int_codes():
    with pytest.raises(InvalidCodeError):
        witness_kn((1.5, 2), 1)
    with pytest.raises(InvalidCodeError, match="^a code is a sequence of ints, got 5$"):
        witness_kn(5, 1)
    with pytest.raises(InvalidCodeError):
        witness_knn(((1, 2), (1, 2), (9, 9)), 1)


def test_witness_rejects_bad_eps():
    with pytest.raises(ValueError):
        witness_kn((1, 2), 0)
    with pytest.raises(ValueError):
        witness_knn(((1,), (1,)), Fraction(-1))
    # what does not compare with numbers is refused by the same check, not a TypeError
    for bad in ("1", None, 1j):
        for build, code in ((witness_kn, (2, 2, 3)), (witness_knn, ((1,), (1,)))):
            with pytest.raises(ValueError, match=rf"^eps must be finite and > 0, got {bad}$"):
                build(code, bad)


@pytest.mark.slow
def test_witness_roundtrips_extended_range():
    import random

    rng = random.Random(41)
    for code in enumerate_phi_n(8):  # all 1430 codes
        assert encode_kn(witness_kn(code, Fraction(1)), Fraction(1)) == code
    for n in (5, 6):
        codes = enumerate_phi_nn(n)
        for code in rng.sample(codes, 300):
            assert encode_knn(witness_knn(code, Fraction(1)), Fraction(1)) == code


def test_witness_knn_hard_ladder_cases():
    # these border pairs defeat naive uniform-ladder placements; the exact
    # constraint solve must handle them
    for code in (((1, 1, 1, 3), (1, 3, 3, 4)), ((1, 1, 3, 3), (1, 3, 3, 4))):
        w = witness_knn(code, 1)
        assert encode_knn(w, 1) == code
