"""Constructive inverses of the encodings: configurations realizing a code.

Complete family: vertex k points at its reach code[k-1] >= k, so the code
is a forest of directed trees rooted at its fixed points.  One sweep from
k = n down to 1 gives every vertex its root and depth from its parent's.
Each tree hangs below its root on an eps-ladder with sub-eps offsets, and
consecutive roots are spaced far enough for the next tree's deepest vertex
to clear the previous root.

Bipartite family: rows are partitioned into maximal blocks of consecutively
overlapping column intervals, blocks are spaced 3*eps apart, and inside a
block the first-party positions solve a small difference-constraint system
("rows sharing a column within 2*eps, rows sandwiching a column more than
2*eps apart") by Bellman-Ford longest paths; second-party positions are
then placed greedily inside their per-column windows.  Both builders count
every coordinate in integers of a unit fixed before placement, and turn it
into an exact ``Fraction`` once, at the output.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import lcm, prod

from .codes import KnCode, KnnCode, validate_kn, validate_knn
from .errors import SyncPathsError
from .graphs import Configuration, bipartite, check_positive, complete


@dataclass(frozen=True)
class WitnessForest:
    """Directed forest of a complete-family code: vertex k points at code[k-1]."""

    roots: tuple[int, ...]
    # per root: levels[0] is (root,), levels[l] the vertices at distance l
    levels: dict[int, tuple[tuple[int, ...], ...]]

    def height(self, root: int) -> int:
        return len(self.levels[root]) - 1


def forest_decomposition(code: KnCode) -> WitnessForest:
    code = validate_kn(code)
    n = len(code)
    place = [(0, 0)] * (n + 1)  # 1-based (root, depth)
    for k in range(n, 0, -1):
        parent = code[k - 1]
        root, depth = place[parent]
        place[k] = (k, 0) if parent == k else (root, depth + 1)
    # a stable sort keeps each tier in increasing index, the BFS order
    vertices = sorted(range(1, n + 1), key=place.__getitem__)
    levels: dict[int, list[tuple[int, ...]]] = {}
    for (root, _depth), tier in groupby(vertices, key=place.__getitem__):
        levels.setdefault(root, []).append(tuple(tier))
    return WitnessForest(tuple(levels), {r: tuple(t) for r, t in levels.items()})


def witness_kn(code: KnCode, eps) -> Configuration:
    """Ordered configuration whose encoding is exactly the given code.

    The trees of ``forest_decomposition`` are placed in root order; a root
    sits (height of its tree + 2) * eps above the previous root, so that its
    lowest vertex clears that root by more than eps.  A vertex of tree level
    l sits at its root - l*eps plus a sub-eps offset.  The kids of a parent
    are a contiguous run of their tier (the code is nondecreasing) and share
    out evenly the offsets from their parent's up to the next parent's in
    the tier (or up to eps), so that each kid's linked range in the level
    above ends exactly at its parent.  Coordinates count units of eps/D,
    D the product over tree levels of the lcm of their sibling-run lengths.
    """
    forest = forest_decomposition(code)
    check_positive(eps)
    eps = Fraction(eps)
    parent = (0, *code).__getitem__  # 1-based
    # every tier below a root as its sibling runs (parent, kids), grouped once
    runs = {root: [[(p, tuple(kids)) for p, kids in groupby(tier, key=parent)]
                   for tier in tiers[1:]]
            for root, tiers in forest.levels.items()}
    unit = prod(lcm(*(len(kids) for _, kids in tier))
                for tiers in runs.values() for tier in tiers)  # eps in units
    x = [0] * (len(code) + 1)  # 1-based
    anchor = -2 * unit  # so that the first root sits at its tree's height * eps
    for root in forest.roots:
        anchor += (forest.height(root) + 2) * unit
        x[root] = anchor
        for l, (parents, tier) in enumerate(zip(forest.levels[root], runs[root])):
            following = dict(zip(parents, parents[1:]))
            for p, kids in tier:
                # the last parent of a tier shares out offsets up to eps
                upper = x[following[p]] if p in following else anchor - (l - 1) * unit
                share = (upper - x[p]) // len(kids)
                for i, v in enumerate(kids):
                    x[v] = x[p] - unit + i * share
    num, den = eps.numerator, unit * eps.denominator
    return Configuration(complete(len(code)), tuple(Fraction(v * num, den) for v in x[1:]))


# ---------------------------------------------------------------------------
# bipartite witness
# ---------------------------------------------------------------------------

def overlap_blocks(code: KnnCode) -> list[tuple[int, int]]:
    """Maximal runs of rows whose consecutive column intervals intersect."""
    return _blocks(*validate_knn(code))


def _blocks(alpha, omega) -> list[tuple[int, int]]:
    # the borders rise, so (1-based) row meets row + 1 iff the next row's
    # alpha[row] is at most omega[row - 1]; a block ends where they miss
    n = len(alpha)
    ends = [row for row in range(1, n) if alpha[row] > omega[row - 1]] + [n]
    return list(zip([1] + [end + 1 for end in ends[:-1]], ends))


def _column_ranges(alpha, omega, lo_row: int, hi_row: int):
    """Covered columns of a block, ascending, with their row ranges [s, r].

    The row intervals chain and both borders rise, so column m is covered by
    the rows from the first with omega >= m to the last with alpha <= m;
    rows of other blocks never match, as block intervals do not meet.
    """
    return {
        m: (bisect_left(omega, m) + 1, bisect_right(alpha, m))
        for m in range(alpha[lo_row - 1], omega[hi_row - 1] + 1)
    }


def _block_positions(ranges, lo_row: int, hi_row: int, k: int):
    """First-party offsets of a block in units u = eps/2**(3+k), or None if margin 2u is too large.

    Difference constraints: rows are nondecreasing with a strict bump at
    every column boundary; rows sandwiching a column lie at least
    2*eps + margin apart; rows sharing a column lie at most 2*eps apart.
    Solved as a longest-path problem (Bellman-Ford); a positive cycle means
    the strict margins do not fit and the caller retries smaller.
    """
    size = hi_row - lo_row + 1
    margin, two_eps = 2, 1 << (4 + k)
    edges: list[tuple[int, int, int]] = []  # p[v] >= p[u] + w
    bumps = [0] * size
    for m, (s, r) in ranges.items():
        if s > lo_row:
            bumps[s - lo_row] = margin
        if r < hi_row:
            bumps[r + 1 - lo_row] = margin
            if s > lo_row:
                edges.append((s - 1 - lo_row, r + 1 - lo_row, two_eps + margin))
        edges.append((r - lo_row, s - lo_row, -two_eps))
    for i in range(1, size):
        edges.append((i - 1, i, bumps[i]))

    pos = [0] * size
    for _sweep in range(size + 1):
        changed = False
        for u, v, w in edges:
            if pos[u] + w > pos[v]:
                pos[v] = pos[u] + w
                changed = True
        if not changed:
            shift = min(pos)
            return [p - shift for p in pos]
    return None  # positive cycle: margins too large for this block


def witness_knn(code: KnnCode, eps) -> Configuration:
    """Party-ordered configuration whose border-pair encoding is the given code."""
    alpha, omega = validate_knn(code)
    check_positive(eps)
    eps = Fraction(eps)
    n = len(alpha)
    blocks = _blocks(alpha, omega)
    solved = []  # per block: (column ranges, retries k, row offsets)
    for lo_row, hi_row in blocks:
        ranges = _column_ranges(alpha, omega, lo_row, hi_row)
        k = 0
        while (pos := _block_positions(ranges, lo_row, hi_row, k)) is None:
            k += 1
            if k > 60:
                raise SyncPathsError(f"no feasible ladder for block {lo_row}..{hi_row}")
        solved.append((ranges, k, pos))
    # every block is placed in the finest unit, eps/2**(3+k) for the largest k
    top = max(k for _, k, _ in solved)
    unit = 1 << (3 + top)  # eps in units

    x = [0] * (n + 1)   # first party, 1-based
    y: list[int | None] = [None] * (n + 1)  # second party by column, 1-based
    base = 0
    for (lo_row, hi_row), (ranges, k, pos) in zip(blocks, solved):
        half = 1 << (top - k)  # half this block's margin: its own unit
        for row in range(lo_row, hi_row + 1):
            x[row] = base + pos[row - lo_row] * half
        base = x[hi_row] + 3 * unit
        # each column's window reads only this block's rows
        prev = None
        for m, (s, r) in ranges.items():
            # the columns of a single row sit exactly on the row
            lower = x[r] - unit if lo_row < hi_row else x[r]
            if s > lo_row:
                lower = max(lower, x[s - 1] + unit + half)
            if prev is not None:
                lower = max(lower, prev)
            upper = x[s] + unit
            if r < hi_row:
                upper = min(upper, x[r + 1] - unit - half)
            if lower > upper:
                raise SyncPathsError(f"empty window for column {m}")
            y[m] = prev = lower

    # columns covered by no row: 3*eps/2 beyond the nearest block
    for m in range(1, n + 1):
        if y[m] is not None:
            continue
        above = next((lo for lo, _hi in blocks if alpha[lo - 1] > m), None)
        if above is not None:
            y[m] = x[above] - 3 * unit // 2
        else:
            y[m] = x[blocks[-1][1]] + 3 * unit // 2

    num, den = eps.numerator, unit * eps.denominator
    return Configuration(bipartite(n), tuple(Fraction(v * num, den) for v in x[1:] + y[1:]))
