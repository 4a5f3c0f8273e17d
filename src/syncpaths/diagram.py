"""Transition diagrams: all codes as vertices, single-edge-addition arrows.

Vertices are deduplicated codes; level(code) = number of decoded edges, and
every arrow goes level k -> k+1.  ``build_diagram`` orders both once, by level;
path counting is exact big-integer dynamic programming that reads the arrows
backwards, one source at a time, so every target is counted before its sources.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .codes import CODES, Code
from .codes import start_codes_knn, successors_kn  # noqa: F401  (perfbench calls them via diagram)
from .errors import SizeGuardError
from .graphs import GraphSpec

# kn13 (742,900 codes) builds and counts paths in 24 s at 1.4 GB peak RSS on a
# 2-core VM; each step of n costs 3.5x, so kn14 and knn7 need about 5 GB
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
    """Materialize the full diagram for the family (guarded by code count)."""
    guarded_code_count(spec)
    family = CODES[spec.family]
    vertices = tuple(sorted(family.codes(spec.n), key=family.level))
    sites = range(1, spec.n + 1)
    arrows = tuple(
        Arrow(v, tgt, site, sign) for v in vertices for site, sign, tgt, _ in family.moves(v, sites)
    )
    starts = tuple(family.starts(spec.n))
    return TransitionDiagram(spec, vertices, arrows, starts, family.sink(spec.n))


def count_admissible_paths(diagram: TransitionDiagram, source) -> int:
    """Exact number of directed paths from source to the sink.

    The path-count DP runs once per diagram object and answers every source.
    """
    paths = diagram._path_counts
    if source not in paths:
        raise ValueError("source is not a vertex of the diagram")
    return paths[source]


def kn_admissible_paths(n: int) -> int:
    """Paths from the identity code to the sink of K_n: the standard Young tableaux
    of the staircase (n-1, ..., 1), (n(n-1)/2)! over the hooks 2(n-i-j)+1 of its cells."""
    hooks = math.prod(2 * (n - i - j) + 1 for i in range(1, n) for j in range(1, n - i + 1))
    return math.factorial(n * (n - 1) // 2) // hooks


def _export_order(diagram: TransitionDiagram):
    """Each code's text, computed once; (level, text, code) per vertex by level,
    then text; the arrows by the rank of their source, then their target's text."""
    text = {v: diagram.code_text(v) for v in diagram.vertices}
    keyed = sorted((diagram.level(v), text[v], v) for v in diagram.vertices)
    rank = {v: i for i, (_, _, v) in enumerate(keyed)}
    return text, keyed, sorted(diagram.arrows, key=lambda a: (rank[a.source], text[a.target]))


def export_dot(diagram: TransitionDiagram) -> str:
    """Deterministic DOT rendering; node ids are code texts."""
    text, keyed, arrows = _export_order(diagram)
    lines = ["digraph sync_diagram {"]
    lines += [f'  "{t}";' for _, t, _ in keyed]
    for a in arrows:
        label = f"n={a.site}" if a.sign == 0 else f"n={a.site},q={a.sign:+d}"
        lines.append(f'  "{text[a.source]}" -> "{text[a.target]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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
