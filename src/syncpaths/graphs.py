"""Graph families, Laplacian matrices, and threshold-synchronized subnetworks.

Two families are supported: the complete graph on ``n`` vertices and the
complete bipartite graph with two parties of ``n`` vertices each.  Vertices
are 1-based everywhere in the public API; for the bipartite family party one
is ``1..n`` and party two is ``n+1..2n``.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

Number = int | float | Fraction
Edge = tuple[int, int]


class Family(enum.Enum):
    COMPLETE = "kn"
    BIPARTITE = "knn"


@dataclass(frozen=True)
class GraphSpec:
    """A graph family instance: K_n or K_{n,n} with party size n."""

    family: Family
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise ValueError(f"family must be a Family, got {self.family!r}")
        if type(self.n) is not int:
            raise ValueError(f"n must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"party size must be positive, got {self.n}")

    @property
    def vertex_count(self) -> int:
        return self.n if self.family is Family.COMPLETE else 2 * self.n

    @property
    def edge_count(self) -> int:
        if self.family is Family.COMPLETE:
            return self.n * (self.n - 1) // 2
        return self.n * self.n

    def edges(self) -> Iterator[Edge]:
        """All edges as 1-based pairs (u, v) with u < v, lexicographic."""
        if self.family is Family.COMPLETE:
            for u in range(1, self.n + 1):
                for v in range(u + 1, self.n + 1):
                    yield (u, v)
        else:
            for u in range(1, self.n + 1):
                for v in range(self.n + 1, 2 * self.n + 1):
                    yield (u, v)


def complete(n: int) -> GraphSpec:
    return GraphSpec(Family.COMPLETE, n)

def bipartite(n: int) -> GraphSpec:
    return GraphSpec(Family.BIPARTITE, n)


@dataclass(frozen=True)
class Configuration:
    """Vertex positions (radians when driving the Kuramoto flow).

    Values may be floats or exact ``Fraction``s; predicates below compare
    exactly whichever representation is used.
    """

    spec: GraphSpec
    values: tuple[Number, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.spec.vertex_count:
            raise ValueError(
                f"expected {self.spec.vertex_count} values, got {len(self.values)}"
            )

    def __getitem__(self, vertex: int) -> Number:
        """Position of a 1-based vertex."""
        if not 1 <= vertex <= len(self.values):
            raise IndexError(f"vertex {vertex} outside 1..{len(self.values)}")
        return self.values[vertex - 1]

    def __iter__(self):
        """Positions in vertex order; Python would otherwise index ``__getitem__`` from 0."""
        return iter(self.values)

    def party(self, which: int) -> tuple[Number, ...]:
        n = self.spec.n
        if self.spec.family is Family.COMPLETE:
            raise ValueError("complete graphs have a single party")
        if which not in (1, 2):
            raise ValueError(f"party must be 1 or 2, got {which}")
        return self.values[:n] if which == 1 else self.values[n:]

    def groups(self) -> tuple[tuple[Number, ...], ...]:
        """The whole configuration (complete) or its two parties (bipartite)."""
        if self.spec.family is Family.COMPLETE:
            return (self.values,)
        return self.party(1), self.party(2)

    def party_means(self) -> tuple[Fraction, Fraction]:
        p1, p2 = self.party(1), self.party(2)
        n = self.spec.n
        return (
            Fraction(sum(Fraction(v) for v in p1), n),
            Fraction(sum(Fraction(v) for v in p2), n),
        )

    def is_ordered(self) -> bool:
        """Nondecreasing within each group (see groups)."""
        return all(all(a <= b for a, b in zip(s, s[1:])) for s in self.groups())

    def is_balanced(self) -> bool:
        """Equal party means (bipartite only); exact comparison."""
        m1, m2 = self.party_means()
        return m1 == m2

    def as_array(self) -> np.ndarray:
        return np.asarray([float(v) for v in self.values], dtype=np.float64)

    def to_json(self) -> str:
        vals = [
            str(v) if isinstance(v, Fraction) else v for v in self.values
        ]
        return json.dumps(
            {"family": self.spec.family.value, "n": self.spec.n, "values": vals}
        )


def configuration_from_json(text: str) -> Configuration:
    """Inverse of ``Configuration.to_json``; a malformed body raises ValueError."""
    obj = json.loads(text)
    values = obj.get("values") if isinstance(obj, dict) else None
    if not (
        isinstance(values, list)
        and type(obj.get("n")) is int
        and all(type(v) in (int, float, str) for v in values)
    ):
        raise ValueError('configuration JSON needs {"family", "n": int, "values": [number or "p/q"]}')
    try:
        values = tuple(Fraction(v) if isinstance(v, str) else v for v in values)
    except ZeroDivisionError:
        raise ValueError("configuration values must be finite") from None
    return Configuration(GraphSpec(Family(obj.get("family")), obj["n"]), values)


def laplacian(spec: GraphSpec) -> np.ndarray:
    """Coupling matrix of the linear flow: symmetric, zero row sums, -degree diagonal."""
    size = spec.vertex_count
    mat = np.zeros((size, size), dtype=np.int64)
    for u, v in spec.edges():
        mat[u - 1, v - 1] = 1
        mat[v - 1, u - 1] = 1
    for i in range(size):
        mat[i, i] = -mat[i].sum()
    return mat


def check_positive(value: Number, name: str = "eps", unit: Number | None = None) -> None:
    """Refuse value unless finite, > 0 and not a bool: the rule of every entry taking
    eps, and of the Kuramoto sigma and step.  unit, if given, is tested in value's
    place (the rational encoder's eps in integer units: same sign, always finite).
    A value that does not compare with numbers (a str, None, a complex) is refused alike."""
    v = value if unit is None else unit
    try:
        ok = type(value) is not bool and (
            v > 0 if type(v) in (int, Fraction) else 0 < v < math.inf)
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def sync_subnetwork(config: Configuration, eps: Number) -> frozenset[Edge]:
    """Edges whose endpoint positions are within eps of each other (closed inequality)."""
    check_positive(eps)
    x = config.values
    return frozenset(
        (u, v) for u, v in config.spec.edges() if abs(x[u - 1] - x[v - 1]) <= eps
    )


def edges_to_json(edges: frozenset[Edge] | set[Edge]) -> str:
    """Canonical JSON rendering: [u, v] pairs with u < v, sorted lexicographically."""
    return json.dumps(sorted([list(e) for e in edges]))
