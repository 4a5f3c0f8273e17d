import hashlib
import itertools
import json
import random
from fractions import Fraction as F

from syncpaths import ratlp


def solve_feasibility(*args, **kwargs):
    """The LP's point as Fractions, read from its (numerators, d) form."""
    point = ratlp.solve_feasibility(*args, **kwargs)
    if point is None:
        return None
    nums, d = point
    assert d > 0
    return [F(v, d) for v in nums]


def _holds(x, ge, eq):
    return all(sum(c * v for c, v in zip(cs, x)) >= b for cs, b in ge) and all(
        sum(c * v for c, v in zip(cs, x)) == b for cs, b in eq
    )


def test_simple_feasible():
    x = solve_feasibility(2, ge_rows=[([F(1), F(-1)], F(1)), ([F(0), F(1)], F(3))])
    assert x is not None and _holds(x, [([F(1), F(-1)], F(1)), ([F(0), F(1)], F(3))], [])


def test_simple_infeasible():
    assert solve_feasibility(1, ge_rows=[([F(1)], F(1)), ([F(-1)], F(0))]) is None


def test_equality_rows():
    ge = [([F(1), F(-1)], F(1))]
    eq = [([F(1), F(1)], F(4))]
    x = solve_feasibility(2, ge_rows=ge, eq_rows=eq)
    assert x is not None and _holds(x, ge, eq)


def test_infeasible_equality():
    assert (
        solve_feasibility(1, ge_rows=[([F(1)], F(3))], eq_rows=[([F(1)], F(1))]) is None
    )


def test_no_rows():
    assert solve_feasibility(3) == [0, 0, 0]


def test_point_is_integers_over_one_denominator():
    # (numerators, d) with d > 0 the tableau's denominator; no Fraction built
    nums, d = ratlp.solve_feasibility(2, ge_rows=[([F(1, 3), F(-1, 7)], F(2, 5))])
    assert all(type(v) is int for v in (*nums, d)) and d > 0
    assert ratlp.solve_feasibility(3) == ([0, 0, 0], 1)


def test_fractional_data():
    ge = [([F(1, 3), F(-1, 7)], F(2, 5))]
    x = solve_feasibility(2, ge_rows=ge)
    assert x is not None and _holds(x, ge, [])


def test_against_grid_bruteforce():
    rng = random.Random(12)
    grid = [F(k, 2) for k in range(0, 17)]
    for _ in range(250):
        nv = rng.randint(1, 3)
        ge = [
            ([F(rng.randint(-3, 3)) for _ in range(nv)], F(rng.randint(-4, 4)))
            for _ in range(rng.randint(0, 4))
        ]
        eq = [
            ([F(rng.randint(-2, 2)) for _ in range(nv)], F(rng.randint(-2, 2)))
            for _ in range(rng.randint(0, 1))
        ]
        got = solve_feasibility(nv, ge, eq)
        if got is not None:
            assert all(v >= 0 for v in got)
            assert _holds(got, ge, eq)
        else:
            # no grid point may satisfy the system
            for pt in itertools.product(grid, repeat=nv):
                assert not _holds(pt, ge, eq)


def test_mixed_denominators_exact_point():
    # every row has its own denominators (common scale 1260); the point is
    # pinned exactly, as the rational tableau's Bland pivots produce it
    ge = [
        ([F(1, 3), F(1, 7), 0], F(2, 5)),
        ([F(-1, 2), F(3, 4), F(1, 9)], F(5, 6)),
    ]
    eq = [([F(1, 4), F(1, 6), F(-2, 3)], F(1, 10))]
    x = solve_feasibility(3, ge_rows=ge, eq_rows=eq)
    assert x == [F(1434, 2455), F(3528, 2455), F(2103, 4910)]
    assert _holds(x, ge, eq)


def test_redundant_equality_exact_point():
    # the second equality is -2 times the first, so one artificial is still
    # basic (at zero) when phase 1 ends; the point is read around it
    ge = [([0, 2], 1)]
    eq = [([3, 2], 1), ([-6, -4], -2)]
    x = solve_feasibility(2, ge_rows=ge, eq_rows=eq)
    assert x == [F(0), F(1, 2)]
    assert _holds(x, ge, eq)
    # Fraction input gives the same point as int input
    as_fractions = [[([F(v) for v in c], F(b)) for c, b in rows] for rows in (ge, eq)]
    assert solve_feasibility(2, *as_fractions) == x


def test_random_corpus_points_pinned():
    # 400 seeded problems with mixed denominators, some with a redundant
    # equality row; the exact points (None when infeasible) are those of the
    # rational tableau's Bland pivots.  The realizability LPs alone do not
    # tell Bland's entering rule from Dantzig's; this corpus does.
    rng = random.Random(5)

    def val():
        return F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 5, 7]))

    outs = []
    for _ in range(400):
        nv = rng.randint(1, 5)
        ge = [([val() for _ in range(nv)], val()) for _ in range(rng.randint(0, 5))]
        eq = [([val() for _ in range(nv)], val()) for _ in range(rng.randint(0, 2))]
        if eq and rng.random() < 0.3:
            c, b = eq[0]
            eq.append(([2 * v for v in c], 2 * b))
        x = solve_feasibility(nv, ge_rows=ge, eq_rows=eq)
        assert x is None or (all(v >= 0 for v in x) and _holds(x, ge, eq))
        outs.append(None if x is None else [str(v) for v in x])
    assert sum(o is None for o in outs) == 218
    digest = hashlib.sha256(json.dumps(outs).encode()).hexdigest()
    assert digest == "38b5684d0f52477d2dfbf20a34503d6e185984197d463eea3511a124c3bab6c6"
