import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from syncpaths import ratlp


def primal_feasibility(num_vars, ge_rows=(), eq_rows=()):
    """Reference oracle, the primal form: a point of {x >= 0 : a.x >= b for (a, b) in
    ge_rows, a.x = b for (a, b) in eq_rows} as (numerators, d), d > 0, or None.

    A cold phase-1 simplex with Bland's rule on one fraction-free tableau (Edmonds
    1967, Bareiss 1968): the rows, scaled to integers by the lcm of every
    denominator, then one surplus column per ge row (a +1 slack, basic, where the
    row is flipped for b < 0), and an unstored artificial for every other row,
    ranked after every surplus column.  Each entry T stands for T/d; a pivot on
    p > 0 keeps its row and maps every other row to (T*p - T[e]*T_pivot) // d.
    """
    rows = [*ge_rows, *eq_rows]
    n_ge, n_cols = len(ge_rows), num_vars + len(ge_rows)
    scale = math.lcm(*(F(v).denominator for coeffs, b in rows for v in (*coeffs, b)))
    tab, basis = [], []
    for i, (coeffs, b) in enumerate(rows):
        row = [int(v * scale) for v in coeffs] + [0] * n_ge + [int(b * scale)]
        flip = row[-1] < 0
        if flip:
            row = [-v for v in row]
        if i < n_ge:
            row[num_vars + i] = 1 if flip else -1
        basis.append(num_vars + i if i < n_ge and flip else n_cols + i)
        tab.append(row)
    m = len(tab)
    # objective row: minus the sum of the artificial rows, its rhs minus the objective
    art_rows = [row for row, bv in zip(tab, basis) if bv >= n_cols]
    tab.append([-sum(col) for col in zip(*art_rows)] if art_rows else [0] * (n_cols + 1))
    d = 1
    while True:
        obj = tab[m]
        enter = next((j for j in range(n_cols) if obj[j] < 0), None)
        if enter is None:
            break
        leave = -1
        for i in range(m):
            row = tab[i]
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, num, den = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], a
        prow = tab[leave]
        p = prow[enter]
        for i, row in enumerate(tab):
            f = row[enter]
            if f and i != leave:
                tab[i] = [(a * p - f * b) // d for a, b in zip(row, prow)]
            elif not f and p != d:
                tab[i] = [a * p // d for a in row]
        d, basis[leave] = p, enter
    if tab[m][-1] != 0:
        return None
    # artificials still basic here sit at zero, so no coordinate of x depends on them
    x = [0] * num_vars
    for i in range(m):
        if basis[i] < num_vars:
            x[basis[i]] = tab[i][-1]
    return x, d


def solve_feasibility(*args, **kwargs):
    """The oracle's point as Fractions, read from its (numerators, d) form."""
    point = primal_feasibility(*args, **kwargs)
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
    nums, d = primal_feasibility(2, ge_rows=[([F(1, 3), F(-1, 7)], F(2, 5))])
    assert all(type(v) is int for v in (*nums, d)) and d > 0
    assert primal_feasibility(3) == ([0, 0, 0], 1)


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




# ---------------------------------------------------------------------------
# the cone that ratlp solves: {x >= 0 : r.x >= 1 strict rows, e.x = 0 equalities}
# ---------------------------------------------------------------------------


def _cone_holds(point, strict, eq):
    """Every row exactly, in the point's integer units: r.x >= 1, e.x = 0 and x >= 0."""
    nums, d = point

    def dot(row):
        return sum(c * v for c, v in zip(row, nums))

    return (d > 0 and all(v >= 0 for v in nums) and all(dot(r) >= d for r in strict)
            and all(dot(e) == 0 for e in eq))


def _cone_rows(nv, max_size):
    return st.lists(st.lists(st.integers(-3, 3), min_size=nv, max_size=nv), max_size=max_size)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_warm_solve_equals_cold(data):
    # a solved cone, copied and given more rows, must reach the cold verdict on
    # the union, with a point that satisfies every row exactly; an empty cone stays
    # empty; a redundant equality changes nothing; the copy must not disturb the
    # cone it came from
    nv = data.draw(st.integers(1, 4))
    strict1, eq1, strict2, eq2 = (data.draw(_cone_rows(nv, k)) for k in (4, 2, 3, 2))
    if eq1 and data.draw(st.booleans()):
        data.draw(st.sampled_from([eq1, eq2])).append([2 * v for v in eq1[0]])
    parent = ratlp.Cone(nv)
    parent.add(strict1, eq1)
    first = parent.solve()
    assert first == ratlp.solve_feasibility(nv, strict1, eq1)
    assert first is None or _cone_holds(first, strict1, eq1)
    state = (list(parent.cols), list(parent.inv), parent.obj, list(parent.basis), parent.d)
    child = parent.copy()
    child.add(strict2, eq2)
    got = child.solve()
    strict, eq = strict1 + strict2, eq1 + eq2
    assert (got is None) == (ratlp.solve_feasibility(nv, strict, eq) is None)
    assert got is None or (first is not None and _cone_holds(got, strict, eq))
    assert (parent.cols, parent.inv, parent.obj, parent.basis, parent.d) == state
    assert parent.solve() == first


def test_cone_against_primal_and_grid():
    # seeded cones with strict rows (r.x > 0), non-strict rows (r.x >= 0, each
    # given to the cone as r.x - s = 0 with a slack s >= 0 of its own) and
    # equalities: the cone's verdict is the primal oracle's, its point satisfies
    # every row exactly, and no grid point lies in a cone it finds empty
    rng = random.Random(37)
    verdicts = []
    for _ in range(300):
        nv = rng.randint(1, 3)
        strict, weak, eq = ([[rng.randint(-3, 3) for _ in range(nv)] for _ in range(k)]
                            for k in (rng.randint(0, 4), rng.randint(0, 2), rng.randint(0, 1)))
        pad = [0] * len(weak)
        slack = [[-int(i == k) for i in range(len(weak))] for k in range(len(weak))]
        point = ratlp.solve_feasibility(
            nv + len(weak), ge_rows=[r + pad for r in strict],
            eq_rows=[r + s for r, s in zip(weak, slack)] + [e + pad for e in eq])
        primal = primal_feasibility(nv, [(r, 1) for r in strict] + [(r, 0) for r in weak],
                                    [(e, 0) for e in eq])
        assert (point is None) == (primal is None)
        verdicts.append(point is None)
        if point is not None:
            nums, d = point
            assert _cone_holds(point, [r + pad for r in strict], [])
            assert _cone_holds((nums[:nv], d), strict, eq)
            assert all(sum(c * v for c, v in zip(r, nums)) >= 0 for r in weak)
            continue
        for pt in itertools.product(range(5), repeat=nv):
            def dot(row):
                return sum(c * v for c, v in zip(row, pt))
            assert not (all(dot(r) > 0 for r in strict) and all(dot(r) >= 0 for r in weak)
                        and all(dot(e) == 0 for e in eq))
    assert 50 < sum(verdicts) < 250


def test_cone_with_no_rows_is_the_origin():
    assert ratlp.solve_feasibility(3) == ([0, 0, 0], 1)
    assert ratlp.solve_feasibility(2, ge_rows=[[1, -1], [-1, 1]]) is None
    assert ratlp.solve_feasibility(2, ge_rows=[[1, 0]], eq_rows=[[1, -1]]) == ([1, 1], 1)
