"""Constructive inverses of the encodings: configurations realizing a code.

Complete family: the code is decomposed into a forest of directed trees
rooted at its fixed points (vertex k points at its reach).  Each tree hangs
below its root on an eps-ladder with sub-eps offsets, and consecutive roots
are spaced far enough for the next tree's deepest vertex to clear the
previous root.

Bipartite family: rows are partitioned into maximal blocks of consecutively
overlapping column intervals, blocks are spaced 3*eps apart, and inside a
block the first-party positions solve a small difference-constraint system
("rows sharing a column within 2*eps, rows sandwiching a column more than
2*eps apart") by exact Bellman-Ford longest paths; second-party positions
are then placed greedily inside their per-column windows.  All output
coordinates are exact rationals when eps is rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codes import KnCode, KnnCode, validate_kn, validate_knn
from .errors import SyncPathsError
from .graphs import Configuration, bipartite, complete


@dataclass(frozen=True)
class WitnessForest:
    """Directed forest of a complete-family code: vertex k points at code[k]."""

    roots: tuple[int, ...]
    # per root: levels[0] is (root,), levels[l] the vertices at distance l
    levels: dict[int, tuple[tuple[int, ...], ...]]
    leaves: dict[int, tuple[int, ...]]

    def height(self, root: int) -> int:
        return len(self.levels[root]) - 1

    def width(self, root: int) -> int:
        return len(self.leaves[root])

    def path_length(self, vertex: int) -> int:
        for root, levels in self.levels.items():
            for l, members in enumerate(levels):
                if vertex in members:
                    return l
        raise KeyError(vertex)


def forest_decomposition(code: KnCode) -> WitnessForest:
    code = validate_kn(code)
    n = len(code)
    roots = tuple(i for i in range(1, n + 1) if code[i - 1] == i)
    levels: dict[int, tuple[tuple[int, ...], ...]] = {}
    leaves: dict[int, tuple[int, ...]] = {}
    image = set(code[i - 1] for i in range(1, n + 1) if code[i - 1] != i)
    for root in roots:
        tiers = [(root,)]
        frontier = (root,)
        while True:
            nxt = tuple(
                k for k in range(1, n + 1) if k != root and code[k - 1] in frontier
            )
            if not nxt:
                break
            tiers.append(nxt)
            frontier = nxt
        levels[root] = tuple(tiers)
        members = [v for tier in tiers for v in tier]
        leaves[root] = tuple(sorted(v for v in members if v not in image))
    return WitnessForest(roots, levels, leaves)


def witness_kn(code: KnCode, eps) -> Configuration:
    """Ordered configuration whose encoding is exactly the given code.

    Root spacing uses the height of the next tree (its lowest vertex must
    clear the previous root by more than eps).  Inside each tree, vertices
    of tree level l sit at root - l*eps plus a sub-eps offset; a vertex's
    offset is confined to [parent offset, next-parent offset) so that its
    linked range in the level above is exactly up to its parent.
    """
    code = validate_kn(code)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = len(code)
    forest = forest_decomposition(code)
    x: list[Fraction | None] = [None] * (n + 1)  # 1-based

    anchor = forest.height(forest.roots[0]) * eps
    root_pos = {}
    for idx, root in enumerate(forest.roots):
        if idx:
            anchor = root_pos[forest.roots[idx - 1]] + (forest.height(root) + 2) * eps
        root_pos[root] = anchor

    for root in forest.roots:
        tiers = forest.levels[root]
        offset = {root: Fraction(0)}
        for l in range(1, len(tiers)):
            parents = tiers[l - 1]
            bound = {p: (offset[parents[i + 1]] if i + 1 < len(parents) else eps)
                     for i, p in enumerate(parents)}
            children: dict[int, list[int]] = {}
            for v in tiers[l]:
                children.setdefault(code[v - 1], []).append(v)
            for p, kids in children.items():
                width = bound[p] - offset[p]
                for i, v in enumerate(sorted(kids)):
                    offset[v] = offset[p] + i * width / len(kids)
        for l, tier in enumerate(forest.levels[root]):
            for v in tier:
                x[v] = root_pos[root] - l * eps + offset[v]

    values = tuple(x[1:])
    if any(v is None for v in values):
        raise SyncPathsError(f"witness for {code} left a vertex unplaced")
    return Configuration(complete(n), values)


# ---------------------------------------------------------------------------
# bipartite witness
# ---------------------------------------------------------------------------

def overlap_blocks(code: KnnCode) -> list[tuple[int, int]]:
    """Maximal runs of rows whose consecutive column intervals intersect."""
    alpha, omega = validate_knn(code)
    n = len(alpha)
    blocks = []
    start = 1
    for row in range(1, n):
        # overlap of [alpha[row-1], omega[row-1]] and the next row's interval
        lo = max(alpha[row - 1], alpha[row])
        hi = min(omega[row - 1], omega[row])
        if lo > hi:
            blocks.append((start, row))
            start = row + 1
    blocks.append((start, n))
    return blocks


def _column_ranges(alpha, omega, lo_row: int, hi_row: int):
    """Covered columns of a block with their row ranges [s, r]."""
    ranges = {}
    for row in range(lo_row, hi_row + 1):
        for m in range(alpha[row - 1], omega[row - 1] + 1):
            s, r = ranges.get(m, (row, row))
            ranges[m] = (min(s, row), max(r, row))
    return ranges


def _block_positions(ranges, lo_row: int, hi_row: int, eps: Fraction, margin: Fraction):
    """First-party offsets within one block, or None if the margin is too large.

    Difference constraints: rows are nondecreasing with a strict bump at
    every column boundary; rows sandwiching a column lie at least
    2*eps + margin apart; rows sharing a column lie at most 2*eps apart.
    Solved exactly as a longest-path problem (Bellman-Ford); a positive
    cycle means the strict margins do not fit and the caller retries
    smaller.
    """
    size = hi_row - lo_row + 1
    edges: list[tuple[int, int, Fraction]] = []  # p[v] >= p[u] + w
    bumps = [Fraction(0)] * size
    for m, (s, r) in ranges.items():
        if s > lo_row:
            bumps[s - lo_row] = margin
        if r < hi_row:
            bumps[r + 1 - lo_row] = margin
            if s > lo_row:
                edges.append((s - 1 - lo_row, r + 1 - lo_row, 2 * eps + margin))
        edges.append((r - lo_row, s - lo_row, -2 * eps))
    for i in range(1, size):
        edges.append((i - 1, i, bumps[i]))

    pos = [Fraction(0)] * size
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
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = len(alpha)
    blocks = overlap_blocks((alpha, omega))

    x = [Fraction(0)] * (n + 1)   # first party, 1-based
    y: list[Fraction | None] = [None] * (n + 1)  # second party by column, 1-based
    block_meta = []

    base = Fraction(0)
    for lo_row, hi_row in blocks:
        ranges = _column_ranges(alpha, omega, lo_row, hi_row)
        margin = eps / 4
        pos = _block_positions(ranges, lo_row, hi_row, eps, margin)
        retries = 0
        while pos is None:
            margin /= 2
            retries += 1
            if retries > 60:
                raise SyncPathsError(f"no feasible ladder for block {lo_row}..{hi_row}")
            pos = _block_positions(ranges, lo_row, hi_row, eps, margin)
        for row in range(lo_row, hi_row + 1):
            x[row] = base + pos[row - lo_row]
        block_meta.append((lo_row, hi_row, ranges, margin))
        base = x[hi_row] + 3 * eps

    for lo_row, hi_row, ranges, margin in block_meta:
        if lo_row == hi_row:
            # single row: its covered columns sit exactly on the row
            for m in ranges:
                y[m] = x[lo_row]
            continue
        prev = None
        for m in sorted(ranges):
            s, r = ranges[m]
            lower = x[r] - eps
            if s > lo_row:
                lower = max(lower, x[s - 1] + eps + margin / 2)
            if prev is not None:
                lower = max(lower, prev)
            upper = x[s] + eps
            if r < hi_row:
                upper = min(upper, x[r + 1] - eps - margin / 2)
            if lower > upper:
                raise SyncPathsError(f"empty window for column {m}")
            y[m] = lower
            prev = lower

    # columns covered by no row: 3*eps/2 beyond the nearest block
    for m in range(1, n + 1):
        if y[m] is not None:
            continue
        above = next((lo for lo, _hi in blocks if alpha[lo - 1] > m), None)
        if above is not None:
            y[m] = x[above] - 3 * eps / 2
        else:
            y[m] = x[blocks[-1][1]] + 3 * eps / 2

    values = tuple(x[1:]) + tuple(y[1:])
    return Configuration(bipartite(n), values)
