"""Exact feasibility of an open cone, decided through its Gordan/Motzkin alternative.

The cone is {x >= 0 : r.x >= 1 for each strict row r, e.x = 0 for each
equality row e}, rows of ints; it is homogeneous, so "r.x > 0" scales to
"r.x >= 1".  By the transposition theorem (Gordan; Motzkin for the non-strict
x >= 0; Schrijver, *Theory of Linear and Integer Programming*, 1986) it
is empty exactly when some lambda >= 0 has A lambda = b = (0, ..., 0, 1),
where A has dim + 1 rows and one column per strict row, (r, 1), per variable's
x_i >= 0, (u_i, 0), and per sign of an equality row, (+-e, 0).

``Cone`` solves that as a phase-1 simplex with Bland's rule, starting from the
artificial basis of A lambda + a = b; artificials rank first in Bland's order,
and one that leaves never re-enters.  It is the revised form: only D*B^-1 is
kept (B^-1 b is its last column, as b is the last unit vector), D = det B > 0,
with the objective row y = c_B (D*B^-1) over the artificial block; a column is
priced when it is needed, and enters when y.col > 0.  A pivot on
p = (D*B^-1 col)[r] > 0 (Edmonds 1967, Bareiss 1968) keeps row r and replaces
every other row, y included, by (row*p - row.col * row_r) // D, an exact
division (the rows become the new adj B, and y c_B times it); then D = p.

The solve stops when no column prices out.  If the objective y[dim] is then 0,
the basic lambda solves the alternative: the cone is empty.  Otherwise
y.col <= 0 for every column, so x = -y[:dim] / y[dim] has r.x >= 1, x >= 0 and
e.x = 0 exactly: that witness comes back as integer numerators over
y[dim] > 0, with no Fraction built.  Rows added after a solve are new columns:
the basis stays feasible, and the next solve goes on from it.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

Row = Sequence[int]


class Cone:
    """Phase-1 state of one cone; ``pivots`` counts the pivots made to reach it, those
    before its ``copy()`` included."""

    __slots__ = ("cols", "inv", "obj", "basis", "d", "priced", "pivots")

    def __init__(self, dim: int) -> None:
        unit = [tuple(int(i == j) for j in range(dim + 1)) for i in range(dim + 1)]
        self.cols, self.inv = unit[:dim], unit   # the columns of x_i >= 0; D*B^-1 = I
        self.obj = (1,) * (dim + 1)      # every artificial basic
        self.basis = [-1] * (dim + 1)    # -1: an artificial, ranked first in Bland's order
        self.d, self.priced, self.pivots = 1, 0, 0   # columns below priced are known not to enter

    def copy(self) -> Cone:
        new = Cone.__new__(Cone)         # inv and obj are replaced, never changed
        new.inv, new.obj, new.d = self.inv, self.obj, self.d
        new.priced, new.pivots = self.priced, self.pivots
        new.cols, new.basis = list(self.cols), list(self.basis)
        return new

    def add(self, strict: Sequence[Row] = (), eq: Sequence[Row] = ()) -> None:
        """Add strict rows (r.x >= 1) and equality rows (e.x = 0) as columns."""
        self.cols += [(*r, 1) for r in strict]
        self.cols += [col for e in eq for col in ((*e, 0), (*(-v for v in e), 0))]

    def solve(self) -> tuple[list[int], int] | None:
        """A point of the cone as (numerators, d), d > 0, or None when it is empty."""
        cols, inv, obj, basis, d = self.cols, self.inv, self.obj, self.basis, self.d
        j = self.priced
        while True:
            for j in range(j, len(cols)):    # Bland: the first column that prices out
                if (f := sum(map(mul, obj, cols[j]))) > 0:
                    break
            else:
                break
            t = [sum(map(mul, row, cols[j])) for row in inv]
            r = -1
            for i, a in enumerate(t):        # ratio test on rhs = the last column of D*B^-1
                if a > 0 and (r < 0 or (lhs := inv[i][-1] * p) < (rhs := inv[r][-1] * a)
                              or lhs == rhs and basis[i] < basis[r]):
                    r, p = i, a
            if r < 0:  # the phase-1 objective is bounded below by 0; defensive guard
                raise RuntimeError("phase-1 simplex unbounded")
            prow = inv[r]
            inv = [prow if i == r else [(a * p - ti * b) // d for a, b in zip(row, prow)]
                   for i, (row, ti) in enumerate(zip(inv, t))]
            obj = [(a * p - f * b) // d for a, b in zip(obj, prow)]
            d, basis[r], j = p, j, 0
            self.pivots += 1
        self.inv, self.obj, self.d, self.priced = inv, obj, d, len(cols)
        if obj[-1] == 0:
            return None
        return [-v for v in obj[:-1]], obj[-1]


def solve_feasibility(num_vars: int, ge_rows: Sequence[Row] = (), eq_rows: Sequence[Row] = ()):
    """One cold solve of {x >= 0 : r.x >= 1 for r in ge_rows, e.x = 0 for e in eq_rows}:
    (numerators, d), coordinate j being numerators[j] / d, or None when it is empty."""
    cone = Cone(num_vars)
    cone.add(ge_rows, eq_rows)
    return cone.solve()
