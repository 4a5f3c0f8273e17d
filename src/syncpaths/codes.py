"""Combinatorial codes for synchronized subnetworks.

A subnetwork of the complete graph compatible with an ordered configuration
is encoded by a nondecreasing "reach" vector ``phi`` with ``n <= phi[n] <= N``:
``phi[n]`` is the last vertex within threshold of vertex ``n``.  There are
Catalan-many such codes.

For the complete bipartite graph the encoding is a border pair ``(alpha,
omega)``: row ``n`` of party one is linked exactly to party-two columns
``alpha[n] .. omega[n]``.  Sentinels ``alpha = n+1`` / ``omega = 0`` encode
empty rows.  Border pairs biject with staircase polyominoes counted by
Narayana numbers.

Encoding is a binary search on the sorted parties: ``phi[n]`` and ``omega[n]`` count
the coordinates up to ``x[n] + eps``, ``alpha[n] - 1`` those below ``x[n] - eps``.

``CODES`` maps each family to one record of its code operations, so callers
look an operation up instead of branching on the family.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import combinations_with_replacement
from typing import Callable, NamedTuple, Sequence

from .errors import InvalidCodeError, NotTypicalError
from .graphs import Configuration, Edge, Family

KnCode = tuple[int, ...]
KnnCode = tuple[tuple[int, ...], tuple[int, ...]]
Code = KnCode | KnnCode
Move = tuple[int, int, Code]  # (site, sign, new code); sign 0 for the complete family


# ---------------------------------------------------------------------------
# validation and text format
# ---------------------------------------------------------------------------

def validate_kn(code: Sequence[int]) -> KnCode:
    code = tuple(code)
    n = len(code)
    if n < 1:
        raise InvalidCodeError("empty code")
    for i, v in enumerate(code, start=1):
        if not (i <= v <= n):
            raise InvalidCodeError(f"entry {i} out of range: {v}")
    if any(a > b for a, b in zip(code, code[1:])):
        raise InvalidCodeError(f"code not nondecreasing: {code}")
    return code


def validate_knn(code: tuple[Sequence[int], Sequence[int]]) -> KnnCode:
    alpha, omega = tuple(code[0]), tuple(code[1])
    n = len(alpha)
    if n < 1 or len(omega) != n:
        raise InvalidCodeError("border vectors must be nonempty and equal-length")
    if any(not (1 <= a <= n + 1) for a in alpha):
        raise InvalidCodeError(f"alpha out of range: {alpha}")
    if any(not (0 <= w <= n) for w in omega):
        raise InvalidCodeError(f"omega out of range: {omega}")
    if any(a > b for a, b in zip(alpha, alpha[1:])) or any(
        a > b for a, b in zip(omega, omega[1:])
    ):
        raise InvalidCodeError(f"borders not nondecreasing: {alpha}, {omega}")
    if any(a > w + 1 for a, w in zip(alpha, omega)):
        raise InvalidCodeError(f"alpha exceeds omega+1: {alpha}, {omega}")
    return alpha, omega


def kn_code_text(code: KnCode) -> str:
    return ",".join(str(v) for v in code)


def knn_code_text(code: KnnCode) -> str:
    alpha, omega = code
    return ",".join(map(str, alpha)) + "|" + ",".join(map(str, omega))


def parse_code_text(text: str, family: Family) -> KnCode | KnnCode:
    if family is Family.COMPLETE:
        return validate_kn([int(t) for t in text.split(",")])
    left, _, right = text.partition("|")
    if not right:
        raise InvalidCodeError("bipartite code text needs 'alpha|omega'")
    return validate_knn(
        ([int(t) for t in left.split(",")], [int(t) for t in right.split(",")])
    )


# ---------------------------------------------------------------------------
# complete graph
# ---------------------------------------------------------------------------

def encode_kn(config: Configuration, eps) -> KnCode:
    """Reach vector of an ordered configuration: last index within eps of each vertex."""
    if config.spec.family is not Family.COMPLETE:
        raise ValueError("encode_kn needs a complete-graph configuration")
    if not config.is_ordered():
        raise ValueError("configuration must be sorted ascending")
    x = config.values
    return tuple(bisect_right(x, v + eps) for v in x)


def decode_kn(code: KnCode) -> frozenset[Edge]:
    """Edges {m, n} with m < n <= code[m]."""
    code = validate_kn(code)
    return frozenset(
        (m, n)
        for m in range(1, len(code) + 1)
        for n in range(m + 1, code[m - 1] + 1)
    )


def enumerate_phi_n(n: int) -> list[KnCode]:
    """All reach vectors for party size n, lexicographically sorted."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out: list[KnCode] = []

    def extend(prefix: list[int]) -> None:
        i = len(prefix)
        if i == n:
            out.append(tuple(prefix))
            return
        lo = max(i + 1, prefix[-1] if prefix else 1)
        for v in range(lo, n + 1):
            prefix.append(v)
            extend(prefix)
            prefix.pop()

    extend([])
    return out


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _kn_level(code: KnCode) -> int:
    return sum(v - i for i, v in enumerate(code, start=1))


def dyck_area(code: KnCode) -> int:
    """Number of edges of the decoded subnetwork: sum of code[n] - n."""
    return _kn_level(validate_kn(code))


def successors_kn(code: KnCode) -> list[tuple[int, KnCode]]:
    """Single-site bumps (site, new code); exactly the sites with code[n] < code[n+1]."""
    code = validate_kn(code)
    out = []
    for i in range(len(code) - 1):
        if code[i] < code[i + 1]:
            out.append((i + 1, code[: i] + (code[i] + 1,) + code[i + 1 :]))
    return out


def apply_edge_kn(code: KnCode, edge: Edge) -> tuple[int, int, KnCode]:
    """(site, sign, new code) after the edge joins; edges must arrive in reach order."""
    u, v = edge
    if code[u - 1] != v - 1:
        raise NotTypicalError(f"edge {edge} is not the next reach step of {code}")
    return u, 0, code[: u - 1] + (v,) + code[u:]


# ---------------------------------------------------------------------------
# complete bipartite graph
# ---------------------------------------------------------------------------

def encode_knn(config: Configuration, eps) -> KnnCode:
    """Border pair of a party-ordered configuration."""
    if config.spec.family is not Family.BIPARTITE:
        raise ValueError("encode_knn needs a bipartite configuration")
    if not config.is_ordered():
        raise ValueError("both parties must be sorted ascending")
    first, second = config.party(1), config.party(2)
    # a row reaching no column gets alpha = n+1 and omega = 0, the sentinels
    alpha = tuple(bisect_left(second, v - eps) + 1 for v in first)
    omega = tuple(bisect_right(second, v + eps) for v in first)
    return alpha, omega


def decode_knn(code: KnnCode) -> frozenset[Edge]:
    """Edges {n, N+m} with alpha[n] <= m <= omega[n]."""
    alpha, omega = validate_knn(code)
    n = len(alpha)
    return frozenset(
        (row, n + m)
        for row in range(1, n + 1)
        for m in range(alpha[row - 1], omega[row - 1] + 1)
    )


def enumerate_phi_nn(n: int) -> list[KnnCode]:
    """All border pairs for party size n, lexicographic in (alpha, omega)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [
        (alpha, omega)
        for alpha in combinations_with_replacement(range(1, n + 2), n)
        for omega in combinations_with_replacement(range(n + 1), n)
        if all(a <= w + 1 for a, w in zip(alpha, omega))
    ]


def narayana_count(n: int) -> int:
    """Cardinality of the border-pair family: T(2n+1, n+1)."""
    return math.comb(2 * n + 1, n + 1) * math.comb(2 * n + 1, n) // (2 * n + 1)


def _knn_level(code: KnnCode) -> int:
    alpha, omega = code
    return sum(w - a + 1 for a, w in zip(alpha, omega) if w >= a)


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


def apply_edge_knn(code: KnnCode, edge: Edge) -> tuple[int, int, KnnCode]:
    """(site, sign, new code): the new column must extend one end of its row."""
    alpha, omega = code
    row, col = edge[0], edge[1] - len(alpha)
    if col == alpha[row - 1] - 1:
        return row, -1, (alpha[: row - 1] + (col,) + alpha[row:], omega)
    if col == omega[row - 1] + 1:
        return row, +1, (alpha, omega[: row - 1] + (col,) + omega[row:])
    raise NotTypicalError(f"edge {edge} does not border row {row} of {code}")


def start_codes_knn(n: int) -> list[tuple[KnnCode, bool]]:
    """Empty-subnetwork codes with a flag for balance-incompatible ones.

    The two flagged codes encode party layouts whose party means are forced
    apart (one party entirely below the other).
    """
    flagged = {(1,) * n, (n + 1,) * n}
    return [
        ((alpha, tuple(a - 1 for a in alpha)), alpha in flagged)
        for alpha in combinations_with_replacement(range(1, n + 2), n)
    ]


# ---------------------------------------------------------------------------
# staircase polyominoes
# ---------------------------------------------------------------------------

def to_polyomino(code: KnnCode) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lower/upper border functions (L, U) on columns 1..n+1 for a border pair."""
    alpha, omega = validate_knn(code)
    n = len(alpha)
    lower = (0,) + tuple(a - 1 for a in alpha)
    upper = tuple(w + 1 for w in omega) + (n + 1,)
    return lower, upper


def polyomino_area(borders: tuple[Sequence[int], Sequence[int]]) -> int:
    lower, upper = borders
    return sum(u - l for l, u in zip(lower, upper))


def validate_polyomino(
    borders: tuple[Sequence[int], Sequence[int]], height: int | None = None
) -> None:
    """Check the border-function invariants; raises InvalidCodeError.

    height defaults to the width (the square lattice produced by
    to_polyomino); rectangular lattices pass it explicitly.
    """
    lower, upper = tuple(borders[0]), tuple(borders[1])
    p = len(lower)
    if height is None:
        height = p
    if len(upper) != p or p < 2:
        raise InvalidCodeError("borders must be equal-length, at least two columns")
    if lower[0] != 0:
        raise InvalidCodeError("lower border must start at 0")
    if upper[-1] != height:
        raise InvalidCodeError("upper border must end at the lattice height")
    if any(a > b for a, b in zip(lower, lower[1:])) or any(
        a > b for a, b in zip(upper, upper[1:])
    ):
        raise InvalidCodeError("borders must be nondecreasing")
    if any(lower[i] >= upper[i - 1] for i in range(1, p)):
        raise InvalidCodeError("connectivity violated: lower[n] must stay below upper[n-1]")


# ---------------------------------------------------------------------------
# one record of code operations per family
# ---------------------------------------------------------------------------

class CodeFamily(NamedTuple):
    """The code operations that callers choose by graph family."""

    encode: Callable[[Configuration, object], Code]
    text: Callable[[Code], str]
    level: Callable[[Code], int]  # decoded edge count; the code is not validated
    apply_edge: Callable[[Code, Edge], Move]
    successors: Callable[[Code], list[Move]]
    codes: Callable[[int], list[Code]]  # every code for party size n
    count: Callable[[int], int]  # len(codes(n)), in closed form
    starts: Callable[[int], list[Code]]  # the empty-subnetwork codes
    sink: Callable[[int], Code]  # the complete-subnetwork code


CODES: dict[Family, CodeFamily] = {
    Family.COMPLETE: CodeFamily(
        encode=encode_kn,
        text=kn_code_text,
        level=_kn_level,
        apply_edge=apply_edge_kn,
        successors=lambda code: [(site, 0, nxt) for site, nxt in successors_kn(code)],
        codes=enumerate_phi_n,
        count=catalan,
        starts=lambda n: [tuple(range(1, n + 1))],
        sink=lambda n: (n,) * n,
    ),
    Family.BIPARTITE: CodeFamily(
        encode=encode_knn,
        text=knn_code_text,
        level=_knn_level,
        apply_edge=apply_edge_knn,
        successors=successors_knn,
        codes=enumerate_phi_nn,
        count=narayana_count,
        starts=lambda n: [code for code, _flag in start_codes_knn(n)],
        sink=lambda n: ((1,) * n, (n,) * n),
    ),
}
