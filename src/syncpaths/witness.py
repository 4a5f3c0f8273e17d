"""Constructive inverses of the encodings: configurations realizing a code.

Complete family: vertex k points at its reach code[k-1] >= k, so the code
is a forest of directed trees rooted at its fixed points.  As the code is
nondecreasing, a tree is the index interval (previous root, root], each of
its tiers is a contiguous index range (deeper tiers at lower indices), and
the kids of one parent are a contiguous run of their tier.  One sweep from
k = n down to 1 gives every vertex its depth and every parent its number of
kids; a second places every vertex after its parent and its right
neighbour, with no sorting or grouping.  Each tree hangs below its root on
an eps-ladder with sub-eps offsets, and consecutive roots are spaced far
enough for the next tree's deepest vertex to clear the previous root.

Bipartite family: rows are partitioned into maximal blocks of consecutively
overlapping column intervals, blocks are spaced 3*eps apart, and inside a
block the first-party positions solve a small difference-constraint system
("rows sharing a column within 2*eps, rows sandwiching a column more than
2*eps apart") by Bellman-Ford longest paths; second-party positions are
then placed greedily inside their per-column windows.  Both builders read
eps once, as its integer ratio, count every coordinate in integers of a unit
fixed before placement, and hand them with their denominator to
``Configuration.from_units``: the witness's ``exact`` form, which the encoders
and ``verify_witness`` read; its Fractions are made on the first read of ``values``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .codes import KnCode, KnnCode, validate_kn, validate_knn
from .errors import SyncPathsError
from .graphs import _RATIONAL, Configuration, bipartite, check_positive, complete

_complete, _bipartite = lru_cache(complete), lru_cache(bipartite)  # specs are frozen: one per n


@dataclass(frozen=True)
class WitnessForest:
    """Directed forest of a complete-family code: vertex k points at code[k-1]."""

    roots: tuple[int, ...]
    # per root: levels[0] is (root,), levels[l] the vertices at distance l
    levels: dict[int, tuple[tuple[int, ...], ...]]

    def height(self, root: int) -> int:
        return len(self.levels[root]) - 1


def _depths_and_kids(code: KnCode) -> tuple[list[int], list[int]]:
    """Every vertex's depth below its root and every parent's number of kids
    (1-based), from one sweep down from k = n: a parent's index is higher."""
    depth, kids = [0] * (len(code) + 1), [0] * (len(code) + 1)
    for k in range(len(code), 0, -1):
        p = code[k - 1]
        if p != k:
            depth[k] = depth[p] + 1
            kids[p] += 1
    return depth, kids


def forest_decomposition(code: KnCode) -> WitnessForest:
    code = validate_kn(code)
    depth, _ = _depths_and_kids(code)
    roots = tuple(k for k, p in enumerate(code, start=1) if p == k)
    # the tree of a root is (previous root, root], its tiers contiguous and deepest first
    return WitnessForest(roots, {
        r: tuple(tuple(v for v in range(lo + 1, r + 1) if depth[v] == d)
                 for d in range(depth[lo + 1] + 1))
        for lo, r in zip((0, *roots), roots)
    })


def _eps_ratio(eps) -> tuple[int, int]:
    """eps's integer ratio, read once; ``check_positive`` tests an int or Fraction's numerator."""
    ratio = eps.as_integer_ratio() if type(eps) in _RATIONAL else None
    check_positive(eps, unit=ratio and ratio[0])
    return ratio or Fraction(eps).as_integer_ratio()


def witness_kn(code: KnCode, eps) -> Configuration:
    """Ordered configuration whose encoding is exactly the given code.

    The trees of ``forest_decomposition`` are placed in root order; a root
    sits (height of its tree + 2) * eps above the previous root, so that its
    lowest vertex clears that root by more than eps.  A vertex of tree level
    l sits at its root - l*eps plus a sub-eps offset.  The kids of a parent
    are a contiguous run of their tier (the code is nondecreasing) and share
    out evenly the offsets from their parent's up to the next vertex's in
    the tier (or up to eps), so that each kid's linked range in the level
    above ends exactly at its parent.  Coordinates count units of eps/D, D
    the product of the sibling-run lengths, so every share divides exactly.
    """
    code = validate_kn(code)
    num, den = _eps_ratio(eps)
    n = len(code)
    depth, kids = _depths_and_kids(code)
    unit = prod(filter(None, kids))  # eps in units
    x = [0] * (n + 1)
    anchor = 0  # the current tree's root, placed from the last tree down
    for k in range(n, 0, -1):
        p = code[k - 1]
        if p == k:
            if k < n:
                anchor -= (depth[k + 1] + 2) * unit  # below the tree (k, next root]
            x[k] = anchor
        elif code[k] == p != k + 1:  # the kid above is a sibling
            x[k] = x[k + 1] - share
        else:  # the top kid of p: its run shares out p's offsets up to upper
            same_tier = code[p - 1] != p and depth[p + 1] == depth[p]
            upper = x[p + 1] if same_tier else anchor - (depth[p] - 1) * unit
            share = (upper - x[p]) // kids[p]
            x[k] = upper - unit - share
    shift = depth[1] * unit - anchor  # first root: its tree's height * eps up
    return Configuration.from_units(_complete(n), [(v + shift) * num for v in x[1:]], den * unit)


# ---------------------------------------------------------------------------
# bipartite witness
# ---------------------------------------------------------------------------

def _blocks(alpha, omega) -> list[tuple[int, int]]:
    """Maximal runs of rows whose consecutive column intervals intersect."""
    # the borders rise, so (1-based) row meets row + 1 iff the next row's
    # alpha[row] is at most omega[row - 1]; a block ends where they miss
    n = len(alpha)
    ends = [row for row in range(1, n) if alpha[row] > omega[row - 1]] + [n]
    return list(zip([1] + [end + 1 for end in ends[:-1]], ends))


def _block_positions(spans, lo: int, hi: int, k: int):
    """First-party offsets of a block in units u = eps/2**(3+k), or None if margin 2u is too large.

    spans[j] = (s, r): the rows s..r covering the block's j-th column.
    Difference constraints: rows are nondecreasing with a strict bump at
    every column boundary; rows sandwiching a column lie at least
    2*eps + margin apart; rows sharing a column lie at most 2*eps apart.
    Solved as a longest-path problem (Bellman-Ford); a positive cycle means
    the strict margins do not fit and the caller retries smaller.
    """
    size = hi - lo + 1
    margin, two_eps = 2, 1 << (4 + k)
    edges: list[tuple[int, int, int]] = []  # p[v] >= p[u] + w
    bumps = [0] * size
    for s, r in dict.fromkeys(spans):  # equal spans give equal edges
        s, r = s - lo, r - lo
        if s > 0:
            bumps[s] = margin
        if r < size - 1:
            bumps[r + 1] = margin
            if s > 0:
                edges.append((s - 1, r + 1, two_eps + margin))
        if s < r:  # s == r would be a loop of negative weight, never binding
            edges.append((r, s, -two_eps))
    edges += [(i - 1, i, bumps[i]) for i in range(1, size)]

    pos = [0] * size
    for _sweep in range(size + 1):
        changed = False
        for u, v, w in edges:
            if pos[u] + w > pos[v]:
                pos[v] = pos[u] + w
                changed = True
        if not changed:
            shift = pos[0]  # the least entry, as every row lies at or above the one before
            return [p - shift for p in pos]
    return None  # positive cycle: margins too large for this block


def witness_knn(code: KnnCode, eps) -> Configuration:
    """Party-ordered configuration whose border-pair encoding is the given code.

    One pass over the blocks reads each block's column spans off the
    borders and solves its offsets; a second places the rows, then the
    columns, block by block, and the columns no row covers in between.
    """
    alpha, omega = validate_knn(code)
    num, den = _eps_ratio(eps)
    n = len(alpha)
    solved, top = [], 0  # per block: (rows lo..hi, retries k, row offsets, column spans)
    for lo, hi in _blocks(alpha, omega):
        k, pos, spans = 0, [0], None  # a single row has nothing to solve
        if lo < hi:
            # the borders rise, so column m is covered by the rows from the first
            # with omega >= m to the last with alpha <= m, all inside this block
            spans = [(bisect_left(omega, m) + 1, bisect_right(alpha, m))
                     for m in range(alpha[lo - 1], omega[hi - 1] + 1)]
            while (pos := _block_positions(spans, lo, hi, k)) is None:
                k += 1
                if k > 60:
                    raise SyncPathsError(f"no feasible ladder for block {lo}..{hi}")
            top = k if k > top else top
        solved.append((lo, hi, k, pos, spans))
    # every block is placed in the finest unit, eps/2**(3+k) for the largest k
    unit = 1 << (3 + top)  # eps in units

    x, y = [0] * (n + 1), [0] * (n + 1)  # first party by row, second by column; 1-based
    base, col = 0, 1  # col: the first column not yet placed
    for lo, hi, k, pos, spans in solved:
        half = 1 << (top - k)  # half this block's margin: its own unit
        x[lo:hi + 1] = [base + p * half for p in pos]
        base = x[hi] + 3 * unit
        first = alpha[lo - 1]
        y[col:first] = [x[lo] - 3 * unit // 2] * (first - col)  # uncovered: 3*eps/2 below
        col = omega[hi - 1] + 1  # past the block's columns first..col-1
        if spans is None:  # the columns of a single row sit exactly on the row
            y[first:col] = [x[lo]] * (col - first)
            continue
        prev = x[lo] - unit  # each column's window reads only this block's rows
        for m, (s, r) in enumerate(spans, first):
            lower, upper = x[r] - unit, x[s] + unit
            lower = lower if lower > prev else prev
            if s > lo and lower < (v := x[s - 1] + unit + half):
                lower = v
            if r < hi and upper > (v := x[r + 1] - unit - half):
                upper = v
            if lower > upper:
                raise SyncPathsError(f"empty window for column {m}")
            y[m] = prev = lower
    y[col:] = [x[n] + 3 * unit // 2] * (n + 1 - col)  # uncovered: 3*eps/2 above the last block

    return Configuration.from_units(_bipartite(n), [v * num for v in x[1:] + y[1:]], unit * den)
