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

Encoding sweeps each sorted party once, comparing ``w - x[n]`` with eps.
Rational input (ints and Fractions) is compared in integer units of one common
denominator, exactly; float input as ``sync_subnetwork`` compares it, since
``w <= x[n] + eps`` can round otherwise.

Each family's single-site moves are written once (``_kn_moves``, ``_knn_moves``):
the diagram's arrows, the event replay (``apply_edge``) and the path walk read them.
``CODES`` maps each family to one record of its code operations, so callers
look an operation up instead of branching on the family.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InvalidCodeError, NotTypicalError
from .graphs import Configuration, Edge, Family

KnCode = tuple[int, ...]
KnnCode = tuple[tuple[int, ...], tuple[int, ...]]
Code = KnCode | KnnCode
Move = tuple[int, int, Code, Edge]  # (site, sign, new code, added edge); sign 0 for K_n
_RATIONAL = (int, Fraction)  # input of exactly these types is swept in integer units


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
    if list(code) != sorted(code):
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
    if list(alpha) != sorted(alpha) or list(omega) != sorted(omega):
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


def _sweep_input(config: Configuration, eps, unsorted: str) -> tuple[Sequence, object]:
    """config.groups() and eps, checked sorted and positive; all-rational input
    as ints in units of 1/lcm."""
    groups, unit = config.groups(), eps
    if type(eps) in _RATIONAL and all(type(v) in _RATIONAL for v in config.values):
        scale = math.lcm(eps.denominator, *(v.denominator for v in config.values))
        unit = eps.numerator * (scale // eps.denominator)
        groups = [[v.numerator * (scale // v.denominator) for v in g] for g in groups]
    if not unit > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not all(a <= b for g in groups for a, b in zip(g, g[1:])):
        raise ValueError(unsorted)
    return groups, unit


# ---------------------------------------------------------------------------
# complete graph
# ---------------------------------------------------------------------------

def encode_kn(config: Configuration, eps) -> KnCode:
    """Reach vector of an ordered configuration: last index within eps of each vertex."""
    if config.spec.family is not Family.COMPLETE:
        raise ValueError("encode_kn needs a complete-graph configuration")
    (x,), eps = _sweep_input(config, eps, "configuration must be sorted ascending")
    reach, code = 0, []
    for m, v in enumerate(x, start=1):
        reach = max(reach, m)  # m reaches itself; w - v falls as v rises, so no fallback
        while reach < len(x) and x[reach] - v <= eps:
            reach += 1
        code.append(reach)
    return tuple(code)


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


def _kn_moves(code: KnCode, sites: Iterable[int]) -> list[Move]:
    """The bumps at sites: code[s] + 1 joins s, wherever code[s] < code[s + 1]."""
    out = []
    for s in sites:
        if 0 < s < len(code) and code[s - 1] < code[s]:
            new = list(code)  # a list copy builds faster than tuple slices
            new[s - 1] += 1
            out.append((s, 0, tuple(new), (s, new[s - 1])))
    return out


def successors_kn(code: KnCode) -> list[tuple[int, KnCode]]:
    """Single-site bumps (site, new code); exactly the sites with code[n] < code[n+1]."""
    code = validate_kn(code)
    return [(site, nxt) for site, _, nxt, _ in _kn_moves(code, range(1, len(code)))]


# ---------------------------------------------------------------------------
# complete bipartite graph
# ---------------------------------------------------------------------------

def encode_knn(config: Configuration, eps) -> KnnCode:
    """Border pair of a party-ordered configuration."""
    if config.spec.family is not Family.BIPARTITE:
        raise ValueError("encode_knn needs a bipartite configuration")
    (first, second), eps = _sweep_input(config, eps, "both parties must be sorted ascending")
    # a row reaching no column gets alpha = n+1 and omega = 0, the sentinels
    alpha, omega, lo, hi = [], [], 0, 0
    for v in first:  # as in encode_kn, neither border falls back
        while lo < len(second) and second[lo] - v < -eps:
            lo += 1
        hi = max(hi, lo)  # a column below lo has w - v < -eps, so it counts here too
        while hi < len(second) and second[hi] - v <= eps:
            hi += 1
        alpha.append(lo + 1)
        omega.append(hi)
    return tuple(alpha), tuple(omega)


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


def _knn_moves(code: KnnCode, sites: Iterable[int]) -> list[Move]:
    """Row s gains the column below alpha (sign -1) or above omega (+1), borders monotone."""
    alpha, omega = code
    n, out = len(alpha), []
    for s in sites:
        if 0 < s <= n:
            a, w = alpha[s - 1], omega[s - 1]
            if a > 1 and (s == 1 or a > alpha[s - 2]):
                new = list(alpha)
                new[s - 1] = a - 1
                out.append((s, -1, (tuple(new), omega), (s, n + a - 1)))
            if w < n and (s == n or w < omega[s]):
                new = list(omega)
                new[s - 1] = w + 1
                out.append((s, +1, (alpha, tuple(new)), (s, n + w + 1)))
    return out


def successors_knn(code: KnnCode) -> list[tuple[int, int, KnnCode]]:
    """Single-site moves (site, sign, new code) staying inside the code family."""
    code = validate_knn(code)
    return [(s, q, nxt) for s, q, nxt, _ in _knn_moves(code, range(1, len(code[0]) + 1))]


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
    moves: Callable[[Code, Iterable[int]], list[Move]]  # the moves at the sites; not validated
    codes: Callable[[int], list[Code]]  # every code for party size n
    count: Callable[[int], int]  # len(codes(n)), in closed form
    starts: Callable[[int], list[Code]]  # the empty-subnetwork codes
    sink: Callable[[int], Code]  # the complete-subnetwork code


CODES: dict[Family, CodeFamily] = {
    Family.COMPLETE: CodeFamily(
        encode=encode_kn,
        text=kn_code_text,
        level=_kn_level,
        moves=_kn_moves,
        codes=enumerate_phi_n,
        count=catalan,
        starts=lambda n: [tuple(range(1, n + 1))],
        sink=lambda n: (n,) * n,
    ),
    Family.BIPARTITE: CodeFamily(
        encode=encode_knn,
        text=knn_code_text,
        level=_knn_level,
        moves=_knn_moves,
        codes=enumerate_phi_nn,
        count=narayana_count,
        starts=lambda n: [code for code, _flag in start_codes_knn(n)],
        sink=lambda n: ((1,) * n, (n,) * n),
    ),
}


def apply_edge(family: Family, code: Code, edge: Edge) -> Move:
    """The move of code that adds edge, whose first end is the move's site."""
    for move in CODES[family].moves(code, (edge[0],)):
        if move[3] == edge:
            return move
    raise NotTypicalError(f"edge {edge} is not a single-site move of {code}")
