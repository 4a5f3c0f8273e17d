"""Transition diagrams: all codes as vertices, single-edge-addition arrows.

Vertices are codes; level(code) = number of decoded edges, and every arrow goes
level k -> k+1.  ``build_diagram`` orders both once, by level, from the code table;
path counting is exact big-integer dynamic programming that reads the arrows
backwards, one source at a time, so every target is counted before its sources.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .codes import CODES, Code
from .codes import start_codes_knn, successors_kn  # noqa: F401  (perfbench calls them via diagram)
from .errors import SizeGuardError
from .graphs import GraphSpec, complete

# kn13 (742,900 codes) builds and counts paths in 8 s at 0.63 GB peak RSS on a
# 2-core VM, and its DOT export takes 18 s at 1.85 GB; each step of n costs 3.6x,
# so kn14 and knn7 would need about 2.3 GB to build and 6.7 GB to export
SIZE_GUARD = 10**6


class Arrow(NamedTuple):
    source: Code
    target: Code
    site: int
    sign: int  # 0 for the complete family


@dataclass(frozen=True)
class TransitionDiagram:
    """Made only by ``build_diagram``: vertices by level (stable, so lexicographic
    within a level), arrows source by source in that order.  Each source's arrows
    are contiguous and sources come in nondecreasing level."""

    spec: GraphSpec
    vertices: tuple
    arrows: tuple[Arrow, ...]
    starts: tuple
    sink: Code

    def level(self, code) -> int:
        return CODES[self.spec.family].level(code)

    def level_sizes(self) -> list[int]:
        sizes = [0] * (self.spec.edge_count + 1)
        for v in self.vertices:
            sizes[self.level(v)] += 1
        return sizes

    def code_text(self, code) -> str:
        return CODES[self.spec.family].text(code)

    @cached_property
    def _path_counts(self) -> dict:
        """Paths to the sink from every vertex; one DP, kept with this diagram.
        The arrows read backwards, one source at a time: a target is one level
        up, so its count is final before any of its sources is reached."""
        paths = {self.sink: 1}
        for source, group in groupby(reversed(self.arrows), key=itemgetter(0)):
            paths[source] = sum(map(paths.__getitem__, map(itemgetter(1), group)))
        return paths


def guarded_code_count(spec: GraphSpec) -> int:
    """The number of codes, which is the diagram's size; refused above the guard."""
    total = CODES[spec.family].count(spec.n)
    if total > SIZE_GUARD:
        raise SizeGuardError(f"{total} codes exceeds the size guard {SIZE_GUARD}")
    return total


def build_diagram(spec: GraphSpec) -> TransitionDiagram:
    """Materialize the full diagram for the family (guarded by code count).
    Each table column moves by one step (its sign, or +1) and adds one edge, so steps
    times entries is the level up to a constant.  Mixed-radix keys (base n + 2) ascend
    within a level and a move adds its step's weight, so ``searchsorted`` in the next
    level finds each target.  Arrows hold vertex objects; they are made level by level."""
    guarded_code_count(spec)
    family = CODES[spec.family]
    table = family.table(spec.n)
    base, width = spec.n + 2, table.shape[1]
    assert base**width <= np.iinfo(np.int64).max, "row keys must fit in int64"
    site, sign, column, masks = map(np.array, zip(*family.table_moves(table)))
    step = np.where(sign, sign, 1)
    level = table[:, column] @ step
    order = np.argsort(level, kind="stable")
    table, movable, level = table[order], masks.T[order], level[order]
    weight = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    keys, delta = table @ weight, step * weight[column]
    vertices = tuple(family.rows(table))
    objects = np.fromiter(vertices, object, len(vertices))  # gathers vertices by index
    ends = [0, *(np.flatnonzero(np.diff(level)) + 1).tolist(), len(vertices)]
    del table, masks, order, level

    def runs():  # sources lo:mid, one level; its targets mid:hi, the next
        for lo, mid, hi in zip(ends, ends[1:], ends[2:]):
            src, kind = np.nonzero(movable[lo:mid])
            src += lo
            tgt = mid + np.searchsorted(keys[mid:hi], keys[src] + delta[kind])
            yield map(tuple.__new__, repeat(Arrow), zip(
                objects[src].tolist(), objects[tgt].tolist(),
                site[kind].tolist(), sign[kind].tolist()))

    arrows = tuple(chain.from_iterable(runs()))
    starts = tuple(family.starts(spec.n))
    return TransitionDiagram(spec, vertices, arrows, starts, family.sink(spec.n))


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
    """Each code's text, computed once; (level, text, code) per vertex, sorted once;
    then each source's run of arrows, in that order, sorted by its targets' text."""
    text = {v: diagram.code_text(v) for v in diagram.vertices}
    keyed = sorted((diagram.level(v), text[v], v) for v in diagram.vertices)
    runs = {source: list(run) for source, run in groupby(diagram.arrows, key=itemgetter(0))}
    return text, keyed, (a for _, _, v in keyed
                         for a in sorted(runs.pop(v, ()), key=lambda a: text[a.target]))


def export_dot(diagram: TransitionDiagram) -> str:
    """Deterministic DOT rendering; node ids are code texts."""
    text, keyed, arrows = _export_order(diagram)
    lines = ["digraph sync_diagram {"]
    lines += [f'  "{t}";' for _, t, _ in keyed]
    for a in arrows:
        label = f"n={a.site}" if a.sign == 0 else f"n={a.site},q={a.sign:+d}"
        lines.append(f'  "{text[a.source]}" -> "{text[a.target]}" [label="{label}"];')
    lines += ["}", ""]  # the last line's newline, without copying the joined text
    return "\n".join(lines)


def export_json(diagram: TransitionDiagram) -> str:
    text, keyed, arrows = _export_order(diagram)
    vertices = [{"code": t, "level": level} for level, t, _ in keyed]
    arrows = [
        {"from": text[a.source], "to": text[a.target], "site": a.site, "sign": a.sign}
        for a in arrows
    ]
    return json.dumps(
        {
            "spec": {"family": diagram.spec.family.value, "n": diagram.spec.n},
            "vertices": vertices,
            "arrows": arrows,
        }
    )
