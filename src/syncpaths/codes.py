"""Combinatorial codes for synchronized subnetworks.

A subnetwork of the complete graph compatible with an ordered configuration
is encoded by a nondecreasing "reach" vector ``phi`` with ``n <= phi[n] <= N``:
``phi[n]`` is the last vertex within threshold of vertex ``n``.  There are
Catalan-many such codes.

For the complete bipartite graph the encoding is a border pair ``(alpha,
omega)``: row ``n`` of party one is linked exactly to party-two columns
``alpha[n] .. omega[n]``.  An empty row has ``omega = alpha - 1``: columns
1..omega lie below it.  Border pairs biject with staircase polyominoes counted
by Narayana numbers.

Encoding sweeps each sorted party once, comparing ``w - x[n]`` with eps.
Rational input (ints and Fractions) is compared in integer units of one common
denominator, exactly; float input as ``sync_subnetwork`` compares it, since
``w <= x[n] + eps`` can round otherwise.

Each family's codes are one integer table, whose rows the enumerators return as tuples.
Its single-site move rule (``_kn_moves``, ``_knn_moves``) is written once, over the
table's columns: on one code's entries it says which moves exist (``CodeFamily.code_moves``
makes them: ``apply_edge``, the path walk, ``successors_*``), on ``table.T`` which rows
make each move (the diagram's arrows).  ``CODES`` maps each family to one record of
its code operations, so callers look an operation up instead of branching on the family.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import le, sub
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidCodeError, NotTypicalError
from .graphs import Configuration, Edge, Family, check_positive, complete

KnCode = tuple[int, ...]
KnnCode = tuple[tuple[int, ...], tuple[int, ...]]
Code = KnCode | KnnCode
Move = tuple[int, int, Code, Edge]  # (site, sign, new code, added edge); sign 0 for K_n
_RATIONAL = {int, Fraction}  # input of exactly these types is swept in integer units


# ---------------------------------------------------------------------------
# validation and text format
# ---------------------------------------------------------------------------

def validate_kn(code: Sequence[int]) -> KnCode:
    try:
        code = tuple(code)
    except TypeError:
        raise InvalidCodeError(f"a code is a sequence of ints, got {code!r}") from None
    n = len(code)
    if n < 1:
        raise InvalidCodeError("empty code")
    if {*map(type, code)} != {int}:
        raise InvalidCodeError(f"code entries must be ints: {code}")
    for i, v in enumerate(code, start=1):
        if not (i <= v <= n):
            raise InvalidCodeError(f"entry {i} out of range: {v}")
    if list(code) != sorted(code):
        raise InvalidCodeError(f"code not nondecreasing: {code}")
    return code


def validate_knn(code: tuple[Sequence[int], Sequence[int]]) -> KnnCode:
    try:
        if len(code) != 2:
            raise InvalidCodeError("a bipartite code is exactly two border vectors")
        alpha, omega = tuple(code[0]), tuple(code[1])
    except TypeError:
        raise InvalidCodeError(f"a bipartite code is two sequences of ints, got {code!r}") from None
    n = len(alpha)
    if n < 1 or len(omega) != n:
        raise InvalidCodeError("border vectors must be nonempty and equal-length")
    if {*map(type, alpha), *map(type, omega)} != {int}:
        raise InvalidCodeError(f"border entries must be ints: {alpha}, {omega}")
    if min(alpha) < 1 or max(alpha) > n + 1:
        raise InvalidCodeError(f"alpha out of range: {alpha}")
    if min(omega) < 0 or max(omega) > n:
        raise InvalidCodeError(f"omega out of range: {omega}")
    if list(alpha) != sorted(alpha) or list(omega) != sorted(omega):
        raise InvalidCodeError(f"borders not nondecreasing: {alpha}, {omega}")
    if max(map(sub, alpha, omega)) > 1:
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


def _code_table(n: int, width: int, bounds) -> np.ndarray:
    """Every code as a row of the smallest signed dtype, lexicographic: each prefix row is
    repeated once per value lo..hi of column j, (lo, hi) = bounds(prefixes, j), in order."""
    complete(n)  # GraphSpec's rule for n: exactly an int, >= 1
    table = np.zeros((1, 0), np.min_scalar_type(-n - 2))
    for j in range(width):
        lo, hi = bounds(table, j)
        runs = (hi + 1 - lo).astype(np.intp)
        column = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs - lo, runs)
        table = np.column_stack((np.repeat(table, runs, axis=0), column.astype(table.dtype)))
    return table


def _sweep_input(config: Configuration, eps, unsorted: str) -> tuple[Sequence, object]:
    """config.groups() and eps, checked sorted and by ``check_positive``;
    all-rational input as ints in units of 1/lcm, scaled in one list."""
    values, unit, n = config.values, eps, config.spec.n
    if {type(eps), *map(type, values)} <= _RATIONAL:
        (p, q), ratios = eps.as_integer_ratio(), [v.as_integer_ratio() for v in values]
        scale = math.lcm(q, *[d for _, d in ratios])
        unit, values = p * (scale // q), [v * (scale // d) for v, d in ratios]
    check_positive(eps, unit=unit)
    groups = (values,) if len(values) == n else (values[:n], values[n:])  # one per party
    for g in groups:
        if not all(map(le, g, g[1:])):
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
    size, reach, code = len(x), 0, []
    for m, v in enumerate(x, start=1):
        reach = reach if reach > m else m  # m reaches itself; w - v falls as v rises: no fallback
        while reach < size and x[reach] - v <= eps:
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


def _kn_table(n: int) -> np.ndarray:
    """Every reach vector as a row: entry j+1 runs over max(j+1, entry j)..n."""
    return _code_table(n, n, lambda t, j: (t[:, j - 1:j].max(1, initial=j + 1), n))


def _kn_rows(table: np.ndarray) -> list[KnCode]:
    return list(zip(*table.T.tolist()))


def enumerate_phi_n(n: int) -> list[KnCode]:
    """All reach vectors for party size n, lexicographically sorted."""
    return _kn_rows(_kn_table(n))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _kn_level(code: KnCode) -> int:
    return sum(code) - len(code) * (len(code) + 1) // 2


def dyck_area(code: KnCode) -> int:
    """Number of edges of the decoded subnetwork: sum of code[n] - n."""
    return _kn_level(validate_kn(code))


def _kn_moves(cols, sites: Iterable[int]) -> list:
    """The bumps at sites in 1..n: code[s] + 1 joins s where code[s] < code[s + 1] (or n),
    as (site, 0, column s - 1, a bool on one code's entries, a row mask on ``table.T``)."""
    n, out = len(cols), []
    for s in sites:
        if 0 < s <= n:
            out.append((s, 0, s - 1, cols[s - 1] < (cols[s] if s < n else n)))
    return out


def successors_kn(code: KnCode) -> list[tuple[int, KnCode]]:
    """Single-site bumps (site, new code); exactly the sites with code[n] < code[n+1]."""
    code = validate_kn(code)
    moves = CODES[Family.COMPLETE].code_moves(code, range(1, len(code)))
    return [(site, nxt) for site, _, nxt, _ in moves]


# ---------------------------------------------------------------------------
# complete bipartite graph
# ---------------------------------------------------------------------------

def encode_knn(config: Configuration, eps) -> KnnCode:
    """Border pair of a party-ordered configuration."""
    if config.spec.family is not Family.BIPARTITE:
        raise ValueError("encode_knn needs a bipartite configuration")
    (first, second), eps = _sweep_input(config, eps, "both parties must be sorted ascending")
    # a row reaching no column gets omega = alpha - 1: columns 1..omega lie below it
    alpha, omega, lo, hi, size, below = [], [], 0, 0, len(second), -eps
    for v in first:  # as in encode_kn, neither border falls back
        while lo < size and second[lo] - v < below:
            lo += 1
        hi = hi if hi > lo else lo  # a column below lo has w - v < -eps, so it counts here too
        while hi < size and second[hi] - v <= eps:
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


def _knn_table(n: int) -> np.ndarray:
    """Every border pair as a row: alpha, nondecreasing over 1..n+1, then omega,
    nondecreasing over max(alpha - 1, previous omega)..n."""
    return _code_table(n, 2 * n, lambda t, j: (
        (t[:, j - 1:j].max(1, initial=1), n + 1) if j < n
        else (np.maximum(t[:, j - n] - 1, t[:, max(n, j - 1):j].max(1, initial=0)), n)))


def _knn_rows(table: np.ndarray) -> list[KnnCode]:
    columns, n = table.T.tolist(), table.shape[1] // 2
    return list(zip(zip(*columns[:n]), zip(*columns[n:])))


def enumerate_phi_nn(n: int) -> list[KnnCode]:
    """All border pairs for party size n, lexicographic in (alpha, omega)."""
    return _knn_rows(_knn_table(n))


def narayana_count(n: int) -> int:
    """Cardinality of the border-pair family: T(2n+1, n+1)."""
    return math.comb(2 * n + 1, n + 1) * math.comb(2 * n + 1, n) // (2 * n + 1)


def _knn_level(code: KnnCode) -> int:
    alpha, omega = code  # every row's w - a + 1 is >= 0, as alpha <= omega + 1
    return sum(omega) - sum(alpha) + len(alpha)


def _knn_moves(cols, sites: Iterable[int]) -> list:
    """Row s gains the column below alpha (sign -1) or above omega (+1), borders monotone.
    On alpha + omega as in ``_kn_moves``: per site in 1..n, alpha's column s - 1 falls,
    then omega's column n + s - 1 rises."""
    n, out = len(cols) // 2, []
    for s in sites:
        if 0 < s <= n:
            out += ((s, -1, s - 1, cols[s - 1] > (cols[s - 2] if s > 1 else 1)),
                    (s, 1, n + s - 1, cols[n + s - 1] < (cols[n + s] if s < n else n)))
    return out


def successors_knn(code: KnnCode) -> list[tuple[int, int, KnnCode]]:
    """Single-site moves (site, sign, new code) staying inside the code family."""
    code = validate_knn(code)
    moves = CODES[Family.BIPARTITE].code_moves(code, range(1, len(code[0]) + 1))
    return [(s, q, nxt) for s, q, nxt, _ in moves]


def start_codes_knn(n: int) -> list[tuple[KnnCode, bool]]:
    """Empty-subnetwork codes with a flag for balance-incompatible ones.

    The two flagged codes encode party layouts whose party means are forced
    apart (one party entirely below the other).
    """
    complete(n)  # GraphSpec's rule for n: exactly an int, >= 1
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
    # decoded edge count, in closed form; the code is not validated, and the
    # bipartite form is exact only where alpha <= omega + 1 (every valid code)
    level: Callable[[Code], int]
    validate: Callable[[object], Code]  # the code as tuples, or InvalidCodeError
    # the move rule at the sites over table columns: (site, sign, column, movable) per
    # move, movable a bool on one code's entries, a mask on table.T; not validated
    moves: Callable[[Sequence, Iterable[int]], list]
    codes: Callable[[int], list[Code]]  # every code for party size n, lexicographic
    table: Callable[[int], np.ndarray]  # the same codes as rows
    rows: Callable[[np.ndarray], list[Code]]  # the codes of table rows
    columns: Callable[[Code], Sequence[int]]  # a code's entries, as its table row
    from_columns: Callable[[list[int]], Code]  # the code of a row's entries
    parties: int  # a row holds n entries per party; an edge ends in the last party
    count: Callable[[int], int]  # len(codes(n)), in closed form
    starts: Callable[[int], list[Code]]  # the empty-subnetwork codes
    sink: Callable[[int], Code]  # the complete-subnetwork code

    def code_moves(self, code: Code, sites: Iterable[int], end: int | None = None) -> list[Move]:
        """The moves of code at sites (with end, only the one whose edge ends there), not
        validated: each column the rule moves steps by its sign (+1 for sign 0) and adds
        the edge from the site to its new value, numbered past the parties before the
        last (K_n: 0, K_{n,n}: n)."""
        cols, out = self.columns(code), []
        offset = len(cols) - len(cols) // self.parties
        for site, sign, column, movable in self.moves(cols, sites):
            if movable:
                value = cols[column] + (sign or 1)
                if end is None or end == offset + value:
                    new = list(cols)
                    new[column] = value
                    out.append((site, sign, self.from_columns(new), (site, offset + value)))
        return out


CODES: dict[Family, CodeFamily] = {
    Family.COMPLETE: CodeFamily(
        encode=encode_kn,
        text=kn_code_text,
        level=_kn_level,
        validate=validate_kn,
        moves=_kn_moves,
        codes=enumerate_phi_n,
        table=_kn_table,
        rows=_kn_rows,
        columns=tuple,
        from_columns=tuple,
        parties=1,
        count=catalan,
        starts=lambda n: [tuple(range(1, n + 1))],
        sink=lambda n: (n,) * n,
    ),
    Family.BIPARTITE: CodeFamily(
        encode=encode_knn,
        text=knn_code_text,
        level=_knn_level,
        validate=validate_knn,
        moves=_knn_moves,
        codes=enumerate_phi_nn,
        table=_knn_table,
        rows=_knn_rows,
        columns=lambda code: code[0] + code[1],
        from_columns=lambda cols: (tuple(cols[:len(cols) // 2]), tuple(cols[len(cols) // 2:])),
        parties=2,
        count=narayana_count,
        starts=lambda n: [code for code, _flag in start_codes_knn(n)],
        sink=lambda n: ((1,) * n, (n,) * n),
    ),
}


def apply_edge(family: Family, code: Code, edge: Edge) -> Move:
    """The move of code that adds edge, whose first end is the move's site, exactly an
    int (True is not 1, nor 1.0): else ValueError before any move."""
    if type(edge[0]) is not int:
        raise ValueError(f"an edge's site must be an int, got {edge[0]!r}")
    for move in CODES[family].code_moves(code, (edge[0],), edge[1]):
        return move
    raise NotTypicalError(f"edge {edge} is not a single-site move of {code}")
