"""Transition diagrams: all codes as vertices, single-edge-addition arrows.

Vertices are deduplicated codes; level(code) = number of decoded edges, and
every arrow goes level k -> k+1.  Path counting is exact big-integer dynamic
programming in reverse topological (level) order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .codes import (
    KnCode,
    KnnCode,
    decode_kn,
    decode_knn,
    enumerate_phi_n,
    enumerate_phi_nn,
    catalan,
    kn_code_text,
    knn_code_text,
    narayana_count,
    validate_kn,
    validate_knn,
)
from .errors import SizeGuardError
from .graphs import Family, GraphSpec

SIZE_GUARD = 10**7


@dataclass(frozen=True)
class Arrow:
    source: KnCode | KnnCode
    target: KnCode | KnnCode
    site: int
    sign: int  # 0 for the complete family


@dataclass(frozen=True)
class TransitionDiagram:
    spec: GraphSpec
    vertices: tuple
    arrows: tuple[Arrow, ...]
    starts: tuple
    sink: KnCode | KnnCode

    def level(self, code) -> int:
        if self.spec.family is Family.COMPLETE:
            return sum(v - i for i, v in enumerate(code, start=1))
        alpha, omega = code
        return sum(w - a + 1 for a, w in zip(alpha, omega) if w >= a)

    def level_sizes(self) -> list[int]:
        top = (
            self.spec.n * (self.spec.n - 1) // 2
            if self.spec.family is Family.COMPLETE
            else self.spec.n**2
        )
        sizes = [0] * (top + 1)
        for v in self.vertices:
            sizes[self.level(v)] += 1
        return sizes

    def code_text(self, code) -> str:
        if self.spec.family is Family.COMPLETE:
            return kn_code_text(code)
        return knn_code_text(code)

    @cached_property
    def _path_counts(self) -> dict:
        """Paths to the sink from every vertex; one DP, kept with this diagram."""
        outgoing: dict = {v: [] for v in self.vertices}
        for a in self.arrows:
            outgoing[a.source].append(a.target)
        paths = {self.sink: 1}
        for v in sorted(self.vertices, key=self.level, reverse=True):
            if v != self.sink:
                paths[v] = sum(paths[w] for w in outgoing[v])
        return paths


def successors_kn(code: KnCode) -> list[tuple[int, KnCode]]:
    """Single-site bumps (site, new code); exactly the sites with code[n] < code[n+1]."""
    code = validate_kn(code)
    out = []
    for i in range(len(code) - 1):
        if code[i] < code[i + 1]:
            out.append((i + 1, code[: i] + (code[i] + 1,) + code[i + 1 :]))
    return out


def successors_knn(code: KnnCode) -> list[tuple[int, int, KnnCode]]:
    """Single-site moves (site, sign, new code) staying inside the code family."""
    alpha, omega = validate_knn(code)
    n = len(alpha)
    out = []
    for i in range(n):
        if alpha[i] > 1 and (i == 0 or alpha[i] - 1 >= alpha[i - 1]):
            out.append((i + 1, -1, (alpha[: i] + (alpha[i] - 1,) + alpha[i + 1 :], omega)))
        if omega[i] < n and (i == n - 1 or omega[i] + 1 <= omega[i + 1]):
            out.append((i + 1, +1, (alpha, omega[: i] + (omega[i] + 1,) + omega[i + 1 :])))
    return out


def start_codes_knn(n: int) -> list[tuple[KnnCode, bool]]:
    """Empty-subnetwork codes with a flag for balance-incompatible ones.

    The two flagged codes encode party layouts whose party means are forced
    apart (one party entirely below the other).
    """
    starts = []
    flagged = {
        tuple([1] * n),
        tuple([n + 1] * n),
    }

    def alphas(prefix: list[int]) -> None:
        if len(prefix) == n:
            alpha = tuple(prefix)
            starts.append(((alpha, tuple(a - 1 for a in alpha)), alpha in flagged))
            return
        for v in range(prefix[-1] if prefix else 1, n + 2):
            prefix.append(v)
            alphas(prefix)
            prefix.pop()

    alphas([])
    return starts


def build_diagram(spec: GraphSpec) -> TransitionDiagram:
    """Materialize the full diagram for the family (guarded by code count)."""
    if spec.family is Family.COMPLETE:
        total = catalan(spec.n)
    else:
        total = narayana_count(spec.n)
    if total > SIZE_GUARD:
        raise SizeGuardError(f"{total} codes exceeds the size guard {SIZE_GUARD}")

    if spec.family is Family.COMPLETE:
        vertices = tuple(enumerate_phi_n(spec.n))
        arrows = tuple(
            Arrow(v, tgt, site, 0) for v in vertices for site, tgt in successors_kn(v)
        )
        starts: tuple = (tuple(range(1, spec.n + 1)),)
        sink = tuple([spec.n] * spec.n)
    else:
        vertices = tuple(enumerate_phi_nn(spec.n))
        arrows = tuple(
            Arrow(v, tgt, site, sign)
            for v in vertices
            for site, sign, tgt in successors_knn(v)
        )
        starts = tuple(code for code, _ in start_codes_knn(spec.n))
        sink = (tuple([1] * spec.n), tuple([spec.n] * spec.n))
    return TransitionDiagram(spec, vertices, arrows, starts, sink)


def count_admissible_paths(diagram: TransitionDiagram, source) -> int:
    """Exact number of directed paths from source to the sink.

    The path-count DP runs once per diagram object and answers every source.
    """
    paths = diagram._path_counts
    if source not in paths:
        raise ValueError("source is not a vertex of the diagram")
    return paths[source]


def _sorted_vertices(diagram: TransitionDiagram):
    return sorted(diagram.vertices, key=lambda v: (diagram.level(v), diagram.code_text(v)))


def export_dot(diagram: TransitionDiagram) -> str:
    """Deterministic DOT rendering; node ids are code texts."""
    lines = ["digraph sync_diagram {"]
    for v in _sorted_vertices(diagram):
        lines.append(f'  "{diagram.code_text(v)}";')
    def arrow_key(a: Arrow):
        return (
            diagram.level(a.source),
            diagram.code_text(a.source),
            diagram.code_text(a.target),
        )
    for a in sorted(diagram.arrows, key=arrow_key):
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
        for a in sorted(
            diagram.arrows,
            key=lambda a: (
                diagram.level(a.source),
                diagram.code_text(a.source),
                diagram.code_text(a.target),
            ),
        )
    ]
    return json.dumps(
        {
            "spec": {"family": diagram.spec.family.value, "n": diagram.spec.n},
            "vertices": vertices,
            "arrows": arrows,
        }
    )
