"""Transition diagrams: all codes as vertices, single-edge-addition arrows.

Vertices are codes; level(code) = number of decoded edges, and every arrow goes
level k -> k+1.  ``build_diagram`` orders both once, by level, from the code table,
and keeps each source's arrows as one run of small integer arrays (target vertex
indices, sites, signs); ``Arrow`` tuples are made only when ``arrows`` is read.
Path counting is exact big-integer dynamic programming one level at a time, from
the top down, so every target is counted before its sources.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from typing import NamedTuple

import numpy as np

from .codes import CODES, Code
from .codes import start_codes_knn, successors_kn  # noqa: F401  (perfbench calls them via diagram)
from .errors import SizeGuardError
from .graphs import GraphSpec, complete

# kn13 (742,900 codes) builds and counts paths in 2.2 s at 0.50 GB peak RSS on a
# 2-core VM, and its DOT export takes 7 s at 1.58 GB; each step of n costs 3.6x,
# so kn14 and knn7 would need about 1.8 GB to build and 5.7 GB to export
SIZE_GUARD = 10**6


class Arrow(NamedTuple):
    source: Code
    target: Code
    site: int
    sign: int  # 0 for the complete family


@dataclass(frozen=True)
class TransitionDiagram:
    """Made only by ``build_diagram``: vertices by level (stable, so lexicographic
    within a level; the sink, alone at the top, last), arrows source by source in
    that order.  Vertex i's arrows are the run offsets[i]:offsets[i + 1] of targets
    (vertex indices), sites and signs; ``arrows`` makes them Arrow tuples on request.
    level_starts holds the first vertex index of each level.  The runs and starts
    follow from spec, so they take no part in ==, hash or repr."""

    spec: GraphSpec
    vertices: tuple
    starts: tuple
    sink: Code
    offsets: np.ndarray = field(compare=False, repr=False)
    targets: np.ndarray = field(compare=False, repr=False)
    sites: np.ndarray = field(compare=False, repr=False)
    signs: np.ndarray = field(compare=False, repr=False)
    level_starts: np.ndarray = field(compare=False, repr=False)

    def level(self, code) -> int:
        return CODES[self.spec.family].level(code)

    def level_sizes(self) -> list[int]:
        sizes = np.diff(self.level_starts, append=len(self.vertices)).tolist()
        assert len(sizes) == self.spec.edge_count + 1, "an arrow climbs one level: none is empty"
        return sizes

    def code_text(self, code) -> str:
        return CODES[self.spec.family].text(code)

    @cached_property
    def arrows(self) -> tuple[Arrow, ...]:
        """Every arrow, in run order, of the diagram's own vertex objects and int labels."""
        v = self.vertices
        sources = chain.from_iterable(map(repeat, v, np.diff(self.offsets).tolist()))
        return tuple(map(tuple.__new__, repeat(Arrow), zip(
            sources, map(v.__getitem__, self.targets.tolist()),
            self.sites.tolist(), self.signs.tolist())))

    @cached_property
    def _path_counts(self) -> dict:
        """Paths to the sink from every vertex; one DP, kept with this diagram, level by
        level from the top down (a target is one level up, so its count is final): each
        source sums its run of its targets' counts, exact Python ints, with ``reduceat``."""
        off, starts = self.offsets, self.level_starts.tolist()
        paths = np.zeros(len(self.vertices), object)
        paths[-1] = 1
        for lo, hi in zip(starts[-2::-1], starts[:0:-1]):
            runs = off[lo:hi + 1] - off[lo]
            sums = np.add.reduceat(np.append(paths[self.targets[off[lo]:off[hi]]], 0), runs[:-1])
            sums[runs[1:] == runs[:-1]] = 0  # empty runs; the trailing 0 keeps starts in range
            paths[lo:hi] = sums
        return dict(zip(self.vertices, paths.tolist()))


def guarded_code_count(spec: GraphSpec) -> int:
    """The number of codes, which is the diagram's size; refused above the guard."""
    total = CODES[spec.family].count(spec.n)
    if total > SIZE_GUARD:
        raise SizeGuardError(f"{total} codes exceeds the size guard {SIZE_GUARD}")
    return total


def build_diagram(spec: GraphSpec) -> TransitionDiagram:
    """Materialize the full diagram for the family (guarded by code count).
    The family's move rule, read on ``table.T``, masks the rows that make each move.
    Each table column moves by one step (its sign, or +1) and adds one edge, so steps
    times entries is the level up to a constant.  Mixed-radix keys (base n + 2) ascend
    down the lexicographic table and a move adds its step's weight, so ``searchsorted``
    finds each target's row, and the level order's inverse its vertex index."""
    guarded_code_count(spec)
    family = CODES[spec.family]
    table = family.table(spec.n)
    base, width = spec.n + 2, table.shape[1]
    assert base**width <= np.iinfo(np.int64).max, "row keys must fit in int64"
    site, sign, column, masks = map(np.array, zip(*family.moves(table.T, range(1, spec.n + 1))))
    step = np.where(sign, sign, 1)
    order = np.argsort(key := table[:, column] @ step, kind="stable")
    level_starts = np.flatnonzero(np.diff(key[order], prepend=key.min() - 1))
    index = np.empty(len(order), np.int32)  # the guard keeps vertex indices small
    index[order] = np.arange(len(order))
    weight = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    keys, delta, movable = table @ weight, step * weight[column], masks.T[order]

    def run(lo):  # sources lo:lo + 1024: whole-diagram int64 temporaries grew the heap
        src, kind = np.nonzero(movable[lo:lo + 1024])  # source by source, moves in table order
        targets = index[np.searchsorted(keys, keys[order[src + lo]] + delta[kind])]
        return targets, kind.astype(np.int8)

    targets, kind = map(np.concatenate, zip(*map(run, range(0, len(order), 1024))))
    offsets = np.concatenate(([0], np.cumsum(movable.sum(1))))
    vertices = tuple(family.rows(table[order]))
    return TransitionDiagram(spec, vertices, tuple(family.starts(spec.n)), family.sink(spec.n),
                             offsets, targets, site.astype(np.int8)[kind],
                             sign.astype(np.int8)[kind], level_starts)


def count_admissible_paths(diagram: TransitionDiagram, source) -> int:
    """Exact number of directed paths from source, read by the family's validator, to the sink.

    The path-count DP runs once per diagram object and answers every source.
    """
    source = CODES[diagram.spec.family].validate(source)
    paths = diagram._path_counts
    if source not in paths:
        raise ValueError("source is not a vertex of the diagram")
    return paths[source]


def kn_admissible_paths(n: int) -> int:
    """Paths from the identity code to the sink of K_n: the standard Young tableaux
    of the staircase (n-1, ..., 1), (n(n-1)/2)! over the hooks 2(n-i-j)+1 of its cells."""
    complete(n)  # GraphSpec's rule for n: exactly an int, >= 1
    hooks = math.prod(2 * (n - i - j) + 1 for i in range(1, n) for j in range(1, n - i + 1))
    return math.factorial(n * (n - 1) // 2) // hooks


def _export_order(diagram: TransitionDiagram):
    """Each code's text, computed once; (level, text, index) per vertex, sorted once;
    then the arrows as (source text, target text, site, sign), each source's run in
    that order and sorted by its targets' text: they share a level, so by their rank."""
    vertices = diagram.vertices
    keyed = sorted(zip(map(diagram.level, vertices), map(diagram.code_text, vertices), count()))
    texts = np.array([t for _, t, _ in keyed], object)
    rank = np.empty(len(keyed), np.int64)
    rank[[i for _, _, i in keyed]] = np.arange(len(keyed))
    sources = np.repeat(rank, np.diff(diagram.offsets))
    targets = rank[diagram.targets]
    order = np.argsort(sources * len(keyed) + targets, kind="stable")
    return keyed, zip(texts[sources[order]].tolist(), texts[targets[order]].tolist(),
                      diagram.sites[order].tolist(), diagram.signs[order].tolist())


def export_dot(diagram: TransitionDiagram) -> str:
    """Deterministic DOT rendering; node ids are code texts."""
    keyed, arrows = _export_order(diagram)
    lines = ["digraph sync_diagram {"]
    lines += [f'  "{t}";' for _, t, _ in keyed]
    for source, target, site, sign in arrows:
        label = f"n={site}" if sign == 0 else f"n={site},q={sign:+d}"
        lines.append(f'  "{source}" -> "{target}" [label="{label}"];')
    lines += ["}", ""]  # the last line's newline, without copying the joined text
    return "\n".join(lines)


def export_json(diagram: TransitionDiagram) -> str:
    keyed, arrows = _export_order(diagram)
    vertices = [{"code": t, "level": level} for level, t, _ in keyed]
    arrows = [
        {"from": source, "to": target, "site": site, "sign": sign}
        for source, target, site, sign in arrows
    ]
    return json.dumps(
        {
            "spec": {"family": diagram.spec.family.value, "n": diagram.spec.n},
            "vertices": vertices,
            "arrows": arrows,
        }
    )
