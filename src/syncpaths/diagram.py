"""Transition diagrams: all codes as vertices, single-edge-addition arrows.

Vertices are deduplicated codes; level(code) = number of decoded edges, and
every arrow goes level k -> k+1.  Path counting is exact big-integer dynamic
programming in reverse topological (level) order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .codes import CODES, Code
from .codes import start_codes_knn, successors_kn  # noqa: F401  (still importable from here)
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
        """Paths to the sink from every vertex; one DP, kept with this diagram."""
        outgoing: dict = {v: [] for v in self.vertices}
        for source, target, _, _ in self.arrows:
            outgoing[source].append(target)
        paths = {self.sink: 1}
        for v in sorted(self.vertices, key=CODES[self.spec.family].level, reverse=True):
            if v != self.sink:
                paths[v] = sum(map(paths.__getitem__, outgoing[v]))
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
    vertices, sites = tuple(family.codes(spec.n)), range(1, spec.n + 1)
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


def _sorted_vertices(diagram: TransitionDiagram):
    return sorted(diagram.vertices, key=lambda v: (diagram.level(v), diagram.code_text(v)))


def _sorted_arrows(diagram: TransitionDiagram):
    return sorted(
        diagram.arrows,
        key=lambda a: (
            diagram.level(a.source), diagram.code_text(a.source), diagram.code_text(a.target)
        ),
    )


def export_dot(diagram: TransitionDiagram) -> str:
    """Deterministic DOT rendering; node ids are code texts."""
    lines = ["digraph sync_diagram {"]
    for v in _sorted_vertices(diagram):
        lines.append(f'  "{diagram.code_text(v)}";')
    for a in _sorted_arrows(diagram):
        label = f"n={a.site}" if a.sign == 0 else f"n={a.site},q={a.sign:+d}"
        lines.append(
            f'  "{diagram.code_text(a.source)}" -> "{diagram.code_text(a.target)}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(diagram: TransitionDiagram) -> str:
    vertices = [
        {"code": diagram.code_text(v), "level": diagram.level(v)}
        for v in _sorted_vertices(diagram)
    ]
    arrows = [
        {
            "from": diagram.code_text(a.source),
            "to": diagram.code_text(a.target),
            "site": a.site,
            "sign": a.sign,
        }
        for a in _sorted_arrows(diagram)
    ]
    return json.dumps(
        {
            "spec": {"family": diagram.spec.family.value, "n": diagram.spec.n},
            "vertices": vertices,
            "arrows": arrows,
        }
    )
