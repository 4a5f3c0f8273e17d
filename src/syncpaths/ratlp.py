"""Exact linear feasibility (phase-1 simplex by fraction-free integer pivoting).

Decides whether {x >= 0 : A x >= b, C x = f} is nonempty and returns a
rational point when it is.  Bland's rule guarantees termination.  Problems
here are tiny (tens of rows/columns), so a dense tableau is fine; all
arithmetic is exact, there is no floating point anywhere.  The point comes
back as integer numerators over the tableau's own common denominator d > 0
(below), so no Fraction is built; callers that need rationals make them.

The input (ints or Fractions) is scaled by L, the lcm of every denominator,
so the tableau starts in integers (int rows are taken as given, L = 1);
slack and artificial entries stay +-1.
For the LP this is only a positive rescaling of the slack and artificial
variables and of the phase-1 objective, so every reduced-cost sign, every
ratio-test argmin and the structural point are those of the rational
tableau.  The tableau is kept as integers T with one common denominator
d > 0 (each real entry is T/d).  A pivot on p = T[r][e] (Edmonds 1967,
Bareiss 1968) leaves row r as it is and replaces every other row by
(T[i]*p - T[i][e]*T[r]) // d, a division that is always exact because each
entry is a minor of the initial matrix; then d = p, which stays positive
because the ratio test pivots on positive entries only.  Artificial columns
are never read after phase 1 starts (they cannot re-enter), so they are not
stored.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Row = tuple[Sequence[int | Fraction], int | Fraction]


def solve_feasibility(
    num_vars: int,
    ge_rows: Sequence[Row] = (),
    eq_rows: Sequence[Row] = (),
) -> tuple[list[int], int] | None:
    """A point of {x >= 0 : ge rows hold with >=, eq rows with =}, or None.

    The point is (numerators, d): coordinate j is numerators[j] / d, d > 0.
    """
    given = list(ge_rows)
    n_ge = len(given)
    given += eq_rows
    m = len(given)
    if m == 0:
        return [0] * num_vars, 1
    ints = all({type(b), *map(type, coeffs)} == {int} for coeffs, b in given)
    scale = 1 if ints else math.lcm(*(v.denominator for coeffs, b in given for v in (*coeffs, b)))

    # Columns: structural x, then one surplus per ge row (-1, or a +1 slack
    # when the row is flipped for rhs < 0), then the rhs.  Rows whose slack
    # is not usable get an (unstored) artificial, numbered after the surplus
    # columns so that Bland's tie-break on basis indices is unchanged.
    n_cols = num_vars + n_ge
    tab: list[list[int]] = []
    basis: list[int] = []
    next_art = n_cols
    for i, (coeffs, b) in enumerate(given):
        row = list(coeffs) if ints else [v.numerator * (scale // v.denominator) for v in coeffs]
        row += [0] * (n_cols - len(row))
        row.append(b if ints else b.numerator * (scale // b.denominator))
        flip = row[-1] < 0
        if flip:
            row = [-v for v in row]
        if i < n_ge:
            row[num_vars + i] = 1 if flip else -1
        if i < n_ge and flip:
            basis.append(num_vars + i)
        else:
            basis.append(next_art)
            next_art += 1
        tab.append(row)

    # Objective row (last row of tab): minimize the sum of artificials.
    # Reduced costs times d; its rhs entry is minus the objective times d.
    art_rows = [row for row, bv in zip(tab, basis) if bv >= n_cols]
    tab.append([-sum(col) for col in zip(*art_rows)] if art_rows else [0] * (n_cols + 1))

    d = 1
    while True:
        obj = tab[m]
        enter = next((j for j in range(n_cols) if obj[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave, num, den = i, tab[i][-1], a
                    continue
                lhs, rhs = tab[i][-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, tab[i][-1], a
        if leave < 0:
            # Unbounded in phase 1 cannot happen (objective bounded below by 0);
            # defensive guard.
            raise RuntimeError("phase-1 simplex unbounded")
        d = _pivot(tab, leave, enter, d)
        basis[leave] = enter

    if obj[-1] != 0:
        return None

    # Artificials still basic here sit at zero.  Pivoting them out (on any
    # nonzero entry of their row) would be degenerate: their rhs is 0, so no
    # basic value, and hence no coordinate of x, would change.
    x = [0] * num_vars
    for i in range(m):
        if basis[i] < num_vars:
            x[basis[i]] = tab[i][-1]
    return x, d


def _pivot(tab: list[list[int]], leave: int, enter: int, d: int) -> int:
    """Integer pivot on tab[leave][enter] > 0; returns the new common denominator."""
    prow = tab[leave]
    p = prow[enter]
    for i, row in enumerate(tab):
        if i == leave:
            continue
        f = row[enter]
        if f:
            tab[i] = [(a * p - f * b) // d for a, b in zip(row, prow)]
        elif p != d:
            tab[i] = [a * p // d for a in row]
    return p
