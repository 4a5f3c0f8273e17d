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

A ``Tableau`` takes rows after a solve, each written in the current basis
as d*a - sum a[B_i]*T_i (a row of the enlarged system's Bareiss tableau, so
its entries are minors too), and re-solves from there.  Each phase 1 sums
every basic artificial, those left basic at zero before included, since
such a row may pin variables to zero.  A fresh tableau runs the one-shot
simplex bit for bit: rows as given, artificials after every surplus column.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Row = tuple[Sequence[int | Fraction], int | Fraction]


# artificials are numbered from here up, so they rank after every surplus
# column in Bland's tie-break however many rows are added later
_ART = 1 << 62


class Tableau:
    """Phase-1 tableau of {x >= 0 : the added rows hold}; ``pivots`` counts
    the pivots made to reach it, those before its ``copy()`` included."""

    __slots__ = ("num_vars", "n_cols", "tab", "basis", "d", "next_art", "pivots")

    def __init__(self, num_vars: int) -> None:
        self.num_vars = self.n_cols = num_vars
        self.tab: list[list[int]] = []   # n_cols entries, then the rhs
        self.basis: list[int] = []
        self.d, self.next_art, self.pivots = 1, _ART, 0

    def copy(self) -> Tableau:
        new = Tableau(self.num_vars)
        new.n_cols, new.d, new.next_art = self.n_cols, self.d, self.next_art
        new.tab, new.basis = list(self.tab), list(self.basis)  # rows are replaced, never changed
        new.pivots = self.pivots
        return new

    def add(self, ge_rows: Sequence[Row] = (), eq_rows: Sequence[Row] = ()) -> None:
        """Add rows (ge rows with >=, eq rows with =), written in the current basis."""
        given = list(ge_rows)
        n_ge = len(given)
        given += eq_rows
        if not given:
            return
        ints = all({type(b), *map(type, coeffs)} == {int} for coeffs, b in given)
        scale = 1 if ints else math.lcm(*(v.denominator for cs, b in given for v in (*cs, b)))

        # Columns: structural x, then one surplus per ge row (-d, or a +d slack
        # when the row is flipped for rhs < 0), then the rhs.  Rows whose slack
        # is not usable get an (unstored) artificial.
        d, tab, basis, nv = self.d, self.tab, self.basis, self.num_vars
        n_old = self.n_cols
        n_cols = self.n_cols = n_old + n_ge
        if tab and n_ge:
            tab[:] = [row[:-1] + [0] * n_ge + row[-1:] for row in tab]
        # a row a is written in the basis as d*a - sum a[B_i]*T_i over basic structurals
        reduce = [(bv, row) for bv, row in zip(basis, tab) if bv < nv] if tab else ()
        next_art = self.next_art
        for i, (coeffs, b) in enumerate(given):
            row = list(coeffs) if ints else [v.numerator * (scale // v.denominator) for v in coeffs]
            row += [0] * (n_cols - len(row))
            row.append(b if ints else b.numerator * (scale // b.denominator))
            if reduce:
                a, row = row, [v * d for v in row]
                for bv, t in reduce:
                    if a[bv]:
                        row = [v - a[bv] * w for v, w in zip(row, t)]
            flip = row[-1] < 0
            if flip:
                row = [-v for v in row]
            if i < n_ge:
                row[n_old + i] = d if flip else -d
            if i < n_ge and flip:
                basis.append(n_old + i)
            else:
                basis.append(next_art)
                next_art += 1
            tab.append(row)
        self.next_art = next_art

    def solve(self) -> tuple[list[int], int] | None:
        """A point of the rows added so far, as (numerators, d), or None."""
        tab, basis, n_cols = self.tab, self.basis, self.n_cols
        m = len(tab)
        # Objective row (appended last): minimize the sum of the basic
        # artificials, those left basic at zero by an earlier solve included.
        # Reduced costs times d; its rhs entry is minus the objective times d.
        art_rows = [row for row, bv in zip(tab, basis) if bv >= _ART]
        tab.append([-sum(col) for col in zip(*art_rows)] if art_rows else [0] * (n_cols + 1))

        d = self.d
        while True:
            obj = tab[m]
            for enter in range(n_cols):
                if obj[enter] < 0:
                    break
            else:
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
            if leave < 0:
                # Unbounded in phase 1 cannot happen (objective bounded below
                # by 0); defensive guard.
                raise RuntimeError("phase-1 simplex unbounded")
            # Integer pivot on p = tab[leave][enter] > 0; p is the new d.
            prow = tab[leave]
            p = prow[enter]
            for i, row in enumerate(tab):
                f = row[enter]
                if f and i != leave:
                    tab[i] = [(a * p - f * b) // d for a, b in zip(row, prow)]
                elif not f and p != d:
                    tab[i] = [a * p // d for a in row]
            d, basis[leave] = p, enter
            self.pivots += 1
        tab.pop()
        self.d = d

        if obj[-1] != 0:
            return None

        # Artificials still basic here sit at zero.  Pivoting them out (on any
        # nonzero entry of their row) would be degenerate: their rhs is 0, so
        # no basic value, and hence no coordinate of x, would change.
        x = [0] * self.num_vars
        for i in range(m):
            if basis[i] < self.num_vars:
                x[basis[i]] = tab[i][-1]
        return x, d


def solve_feasibility(num_vars: int, ge_rows: Sequence[Row] = (), eq_rows: Sequence[Row] = ()):
    """A point of {x >= 0 : ge rows hold with >=, eq rows with =}, or None.

    The point is (numerators, d): coordinate j is numerators[j] / d, d > 0.
    """
    lp = Tableau(num_vars)
    lp.add(ge_rows, eq_rows)
    return lp.solve()

