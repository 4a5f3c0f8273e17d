import json
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncpaths.graphs import (
    Configuration,
    Family,
    GraphSpec,
    bipartite,
    complete,
    configuration_from_json,
    edges_to_json,
    laplacian,
    sync_subnetwork,
)


def test_spec_invariants():
    assert complete(4).vertex_count == 4
    assert complete(4).edge_count == 6
    assert bipartite(3).vertex_count == 6
    assert bipartite(3).edge_count == 9
    with pytest.raises(ValueError):
        GraphSpec(Family.COMPLETE, 0)
    for n in (2.0, True, np.int64(3)):
        with pytest.raises(ValueError, match="^n must be an int"):
            GraphSpec(Family.COMPLETE, n)
    with pytest.raises(ValueError, match="^family must be a Family"):
        GraphSpec("kn", 3)


def test_laplacian_two_vertices():
    assert laplacian(complete(2)).tolist() == [[-1, 1], [1, -1]]


def test_laplacian_bipartite_two():
    mat = laplacian(bipartite(2))
    assert all(mat[i, i] == -2 for i in range(4))
    for u, v in ((0, 2), (0, 3), (1, 2), (1, 3)):
        assert mat[u, v] == 1
    assert mat[0, 1] == 0 and mat[2, 3] == 0


def test_laplacian_complete_four():
    mat = laplacian(complete(4))
    assert all(mat[i, i] == -3 for i in range(4))
    assert np.all(mat.sum(axis=1) == 0)


def test_laplacian_kills_constants():
    for spec in (complete(5), bipartite(3)):
        mat = laplacian(spec)
        assert np.all(mat @ np.ones(spec.vertex_count) == 0)


def test_sync_subnetwork_examples():
    cfg = Configuration(complete(4), (0, 1, 3, 4))
    assert sync_subnetwork(cfg, 1) == {(1, 2), (3, 4)}

    flat = Configuration(complete(5), (2.0,) * 5)
    assert sync_subnetwork(flat, 1) == frozenset(complete(5).edges())

    b = Configuration(bipartite(2), (0, 3, 0.5, 3.5))
    assert sync_subnetwork(b, 1) == {(1, 3), (2, 4)}


def test_sync_subnetwork_rejects_bad_eps():
    cfg = Configuration(complete(2), (0, 1))
    with pytest.raises(ValueError):
        sync_subnetwork(cfg, 0)
    with pytest.raises(ValueError):
        sync_subnetwork(cfg, float("nan"))


def test_party_refuses_other_indices():
    cfg = Configuration(bipartite(2), (0, 1, 2, 3))
    assert (cfg.party(1), cfg.party(2)) == ((0, 1), (2, 3))
    for which in (0, 3, -1):
        with pytest.raises(ValueError, match="^party must be 1 or 2"):
            cfg.party(which)


def test_sync_subnetwork_never_intra_party():
    cfg = Configuration(bipartite(3), (0.0, 0.1, 0.2, 0.0, 0.1, 0.2))
    edges = sync_subnetwork(cfg, 10)
    assert all(u <= 3 < v for u, v in edges)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=7),
    st.floats(min_value=0.01, max_value=2),
    st.floats(min_value=0.01, max_value=2),
)
def test_monotone_in_eps(values, eps_a, eps_b):
    cfg = Configuration(complete(len(values)), tuple(values))
    lo, hi = sorted((eps_a, eps_b))
    assert sync_subnetwork(cfg, lo) <= sync_subnetwork(cfg, hi)


def test_predicates():
    cfg = Configuration(bipartite(2), (0, 4, 1, 3))
    assert cfg.is_ordered()
    assert cfg.is_balanced()
    assert not Configuration(bipartite(2), (0, 3, 0.5, 3.5)).is_balanced()
    assert not Configuration(complete(3), (1, 0, 2)).is_ordered()
    assert cfg.party_means() == (Fraction(2), Fraction(2))


def test_configuration_iterates_in_vertex_order():
    # __getitem__ is 1-based; iteration and membership must not go through it
    for cfg in (Configuration(complete(3), (1, 2, 3)),
                Configuration(bipartite(2), (0, Fraction(4), 1.5, 3))):
        assert list(cfg) == list(cfg.values)
        assert [cfg[v] for v in range(1, len(cfg.values) + 1)] == list(cfg)
    cfg = Configuration(complete(3), (1, 2, 3))
    assert 2 in cfg and 1 in cfg and 3 in cfg
    assert 0 not in cfg and 4 not in cfg


def test_configuration_json_roundtrip():
    cfg = Configuration(complete(3), (Fraction(1, 3), 0.5, Fraction(2)))
    back = configuration_from_json(cfg.to_json())
    assert back.spec == cfg.spec
    assert [Fraction(v) for v in back.values] == [Fraction(v) for v in cfg.values]


def test_edges_json_is_sorted():
    cfg = Configuration(complete(4), (0, 0.5, 1.0, 1.4))
    text = edges_to_json(sync_subnetwork(cfg, 1))
    pairs = json.loads(text)
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)


def test_family_keys_look_up_by_identity():
    # members hash by identity; a member named by value or sent through pickle is the
    # same singleton, so every table keyed by Family finds it
    from syncpaths.codes import CODES
    from syncpaths.distributions import DENSITY_LIMITS, DIST_LIMITS

    assert hash(Family.COMPLETE) == object.__hash__(Family.COMPLETE)
    for member in (Family("kn"), Family("knn"), pickle.loads(pickle.dumps(Family.BIPARTITE))):
        for table in (CODES, DIST_LIMITS, DENSITY_LIMITS):
            assert table[member] is table[getattr(Family, member.name)]
    assert CODES[Family("kn")].sink(2) == (2, 2) and DIST_LIMITS[Family("knn")] == 50


def test_configuration_exact_form():
    spec = complete(3)
    w = Configuration.from_units(spec, [4, 0, 4], 6)
    assert w.values == (Fraction(2, 3), 0, Fraction(2, 3)) and w.exact == ((4, 0, 4), 6)
    assert w.values[0] is w.values[2]  # one Fraction per distinct value
    plain = Configuration(spec, w.values)  # not a field: equal, same hash and repr
    assert plain == w and hash(plain) == hash(w) and repr(plain) == repr(w)
    assert plain.exact == ((2, 0, 2), 3)
    assert Configuration(spec, (0, 1, 5)).exact == ((0, 1, 5), 1)
    for values in ((0, 0.5, 1), (0, True, 1), (0, np.int64(1), 2), (0, Fraction(1, 2), 1.0)):
        assert Configuration(spec, values).exact is None, values
    for den in (0, -1):
        with pytest.raises(ValueError, match="den must be > 0"):
            Configuration.from_units(spec, [0, 1, 2], den)


def test_lazy_configuration_keeps_its_guards():
    # from_units checks its count itself, as __post_init__ does; the lazy values are
    # the only attribute __getattr__ makes, and a half-built object has none to make
    spec = complete(3)
    with pytest.raises(ValueError, match="expected 3 values, got 2"):
        Configuration.from_units(spec, [0, 1], 1)
    for den in (0, -1):
        with pytest.raises(ValueError, match="den must be > 0"):
            Configuration.from_units(spec, [0, 1, 2], den)
    w = Configuration.from_units(spec, [0, 1, 2], 2)
    assert not hasattr(w, "nope") and "values" not in vars(w)
    assert w.values == (0, Fraction(1, 2), 1)
    half = object.__new__(Configuration)
    for name in ("values", "exact", "__setstate__"):
        with pytest.raises(AttributeError):
            getattr(half, name)
