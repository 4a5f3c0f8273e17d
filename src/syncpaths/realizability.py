"""Realizability of event orderings via exact rational feasibility.

An admissible path prescribes a strict order on pairwise increments (complete
family) or on signed cross-difference magnitudes (bipartite family).  Whether
some configuration actually produces that order is a linear feasibility
question over an open homogeneous cone; strict inequalities are normalized to
slack-1 form and decided exactly (see ``ratlp``), so every "feasible" verdict
carries an exact rational witness.

Both families enumerate their orders with one generator, ``_chains``: a
depth-first extension "which item is next smallest", pruned by interval
containment (a nested window is forced smaller, ``_open_items``) and by exact
feasibility of each prefix, whose LP puts only the containment-minimal open
items above it.  Its root witness is powers-of-two gaps when neither a prefix
nor an equality row constrains it, else one cold root LP; a witness,
integers in units of 1/d, is reused down the tree until a choice disagrees
with it; then the LP re-solves warm from the last tableau on the path.
Counting feasible full orders for the complete graph counts combinatorial
classes of Golomb rulers; the worker pool splits that search at depth two
with the same child rule.

Only one member of each symmetry orbit is searched.  A symmetry is a vertex
map that keeps every magnitude: the reflection x'_i = -x_{n+1-i}, which on
K_n maps (a, k) to (n+1-a-k, k) and on K_{n,n} maps (r, c, q) to
(n+1-r, n+1-c, -q), and on K_{n,n} the party swap (r, c, q) -> (c, r, -q).
It maps the feasible chains of one search onto those of its image, item by
item, so the image's chains are the representative's renamed by an item
permutation.  On K_n the first-item branches c > mirror(c) are mirrors of
searched ones (and count as them); on K_{n,n} every arrangement after the
first of its orbit, in ``arrangements`` order, reuses that one's chains.
``_chains`` extends in increasing item order, so it yields its chains in
lexicographic order, and ``sorted`` puts renamed chains back in exactly the
order a search of the image would yield them.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import ratlp
from .codes import CODES, KnCode, KnnCode, Move, validate_kn, validate_knn
from .errors import NotTypicalError, SizeGuardError, SyncPathsError
from .graphs import Configuration, Family, bipartite, complete

# Literature values for the number of Golomb-ruler classes (OEIS A237749).
GOLOMB_TABLE = {
    1: 1,
    2: 1,
    3: 2,
    4: 10,
    5: 114,
    6: 2608,
    7: 107498,
    8: 7325650,
    9: 771505180,
}

KnLabel = tuple[int, int]          # (n, k): increment x_{n+k} - x_n
KnnLabel = tuple[int, int, int]    # (n, m, q): |x_{N+m} - x_n| with sign q


@dataclass(frozen=True)
class IncrementOrder:
    """Labels listed in strictly increasing magnitude."""

    family: Family
    n: int
    labels: tuple[KnLabel, ...] | tuple[KnnLabel, ...]

    def to_json(self) -> str:
        import json

        return json.dumps([list(lab) for lab in self.labels])

    def __post_init__(self) -> None:
        size, labels, complete = self.n, self.labels, self.family is Family.COMPLETE
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        if len(labels) > (size * (size - 1) // 2 if complete else size**2):
            raise ValueError("too many labels for the family")
        if complete:
            for n, k in labels:
                if not (1 <= n and 1 <= k and n + k <= size):
                    raise ValueError(f"label out of range: {(n, k)}")
        else:
            for n, m, q in labels:
                if not (1 <= n <= size and 1 <= m <= size and q in (-1, 1)):
                    raise ValueError(f"label out of range: {(n, m, q)}")


# ---------------------------------------------------------------------------
# interval chains over gap variables (shared by both families)
# ---------------------------------------------------------------------------

class _ChainSpace(NamedTuple):
    """Feasibility context: items are windows over strict (slack-1) gaps."""

    windows: tuple[tuple[int, int], ...]   # half-open gap-index windows (lo, hi)
    n_gaps: int
    eq_rows: tuple[tuple[tuple[int, ...], int], ...]


def _window_row(space: _ChainSpace, a: int, b: int):
    """Coefficients/rhs of magnitude(b) - magnitude(a) >= 1 in shifted vars."""
    coeffs = [0] * space.n_gaps
    lo, hi = space.windows[b]
    coeffs[lo:hi] = [1] * (hi - lo)
    lo_a, hi_a = space.windows[a]
    for i in range(lo_a, hi_a):
        coeffs[i] -= 1
    return coeffs, 1 - (hi - lo) + (hi_a - lo_a)


def _solve_chain(space: _ChainSpace, lp: ratlp.Tableau, chain: tuple[int, ...], k: int,
                 tails: Iterable[int], eq_rows=()):
    """Add to lp the rows of the chain's consecutive pairs from chain[k] on and of
    every tail above its last item; solve: gaps (gaps, d) in units of 1/d, or None."""
    pairs = [*zip(chain[k:], chain[k + 1 :]), *((chain[-1], t) for t in tails)]
    lp.add([_window_row(space, a, b) for a, b in pairs], eq_rows)
    point = lp.solve()
    if point is None:
        return None
    y, d = point
    return [v + d for v in y], d


def _magnitudes(space: _ChainSpace, gaps: Sequence[int]) -> list[int]:
    """Every item's window sum over the witness gaps, from one prefix-sum pass."""
    prefix = list(accumulate(gaps, initial=0))
    return [prefix[hi] - prefix[lo] for lo, hi in space.windows]


def _containment_masks(windows: Sequence[tuple[int, int]]) -> list[int]:
    """mask[i] = bitset of items whose window is strictly inside window i."""
    masks = [0] * len(windows)
    for i, (lo_i, hi_i) in enumerate(windows):
        for j, (lo_j, hi_j) in enumerate(windows):
            if i != j and lo_i <= lo_j and hi_j <= hi_i:
                masks[i] |= 1 << j
    return masks


def _open_items(masks: Sequence[int], remaining: int) -> Iterator[int]:
    """Items that may come next: still open, with no open item nested inside."""
    for c in range(len(masks)):
        if remaining >> c & 1 and not masks[c] & remaining:
            yield c


def _chains(space: _ChainSpace, prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Feasible full chains extending prefix, depth first in item order.

    The root witness is powers-of-two gaps (distinct window sums for free)
    when neither a prefix nor an equality row constrains it, else one cold
    LP.  A node's witness is reused for any extension it already satisfies,
    so the LP runs only when the next-smallest choice disagrees with it.  The
    witness travels as its item magnitudes, integers in units of 1/d, so
    "at least 1 larger" reads "at least d larger".  Only the open tail items
    (``_open_items``) are constrained: any other tail item contains one of
    them, and with every gap at least 1 it is then larger by at least 1.

    A node carries the tableau of the last LP on its path, solved for
    chain[:k] with chain[k] among its tails.  A child's LP copies it, adds
    the pairs from chain[k] on and the child's tail rows, and re-solves warm.
    The rows it keeps of older tails are implied by the child's (containment,
    gaps >= 1), so the region and the verdict are the child's.
    """
    masks = _containment_masks(space.windows)
    remaining = (1 << len(space.windows)) - 1
    for c in prefix:
        remaining &= ~(1 << c)
    lp = ratlp.Tableau(space.n_gaps)
    if prefix or space.eq_rows:
        tails = _open_items(masks, remaining) if prefix else ()
        root = _solve_chain(space, lp, prefix, 0, tails, space.eq_rows)
        if root is None:
            return
    else:
        root = [2**i for i in range(space.n_gaps)], 1

    def extend(chain, remaining, m, d, lp, k) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield chain
            return
        for c in _open_items(masks, remaining):
            rest = remaining & ~(1 << c)
            tails = list(_open_items(masks, rest))
            above = m[c] + d
            if (chain and m[c] < m[chain[-1]] + d) or any(m[j] < above for j in tails):
                child, longer = lp.copy(), chain + (c,)
                w = _solve_chain(space, child, longer, k, tails)
                if w is None:
                    continue
                gaps, w_d = w
                yield from extend(longer, rest, _magnitudes(space, gaps), w_d, child, len(longer))
            else:
                yield from extend(chain + (c,), rest, m, d, lp, k)

    gaps, d = root
    yield from extend(prefix, remaining, _magnitudes(space, gaps), d, lp, len(prefix))


def _mapped(chains: Iterable[tuple[int, ...]], perm: Sequence[int]) -> list[tuple[int, ...]]:
    """The chains with every item renamed by perm, in the search's (lexicographic) order."""
    return sorted(tuple(perm[i] for i in chain) for chain in chains)


def _item_permutation(pairs: Sequence[tuple[int, int]], vertex) -> list[int]:
    """perm[i] = index of the image of item i, a vertex pair, under the vertex map."""
    index = {frozenset(p): i for i, p in enumerate(pairs)}
    return [index[frozenset(map(vertex, p))] for p in pairs]


# ---------------------------------------------------------------------------
# complete graph: orderings, Golomb counting
# ---------------------------------------------------------------------------

def kn_labels(n: int) -> list[KnLabel]:
    return [(a, k) for a in range(1, n) for k in range(1, n - a + 1)]


def _kn_space(n: int) -> tuple[_ChainSpace, list[KnLabel]]:
    labels = kn_labels(n)
    windows = tuple((a - 1, a - 1 + k) for a, k in labels)
    return _ChainSpace(windows, n - 1, ()), labels


def _kn_mirror(n: int) -> list[int]:
    """The reflection x'_i = -x_{n+1-i} on kn_labels(n): (a, k) -> (n+1-a-k, k)."""
    return _item_permutation([(a, a + k) for a, k in kn_labels(n)], lambda v: n + 1 - v)


def enumerate_realizable_orderings_kn(n: int) -> list[tuple[KnLabel, ...]]:
    """All feasible strict orders on the pairwise increments, deterministic order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return [()]
    space, labels = _kn_space(n)
    masks, mirror = _containment_masks(space.windows), _kn_mirror(n)
    branches: dict[int, list[tuple[int, ...]]] = {}
    for c in _open_items(masks, (1 << len(labels)) - 1):
        m = mirror[c]
        branches[c] = list(_chains(space, (c,))) if c <= m else _mapped(branches[m], mirror)
    return [tuple(labels[i] for i in chain) for chains in branches.values() for chain in chains]


def _count_branch(args) -> int:
    n, prefix = args
    space, _ = _kn_space(n)
    return sum(1 for _chain in _chains(space, prefix))


# n=7 (107498 classes) is the largest count measured to finish, in 109 s on one
# core and 48 s with two (2026-10-19, 2-core VM, CPython 3.11; the VM's speed
# varies up to 1.8x); n=8 has 68 times as many classes, so its search runs for hours
COUNT_LIMIT = 7


def count_realizable_paths_kn(n: int, jobs: int | None = None) -> int:
    """Number of feasible full increment orders = number of Golomb-ruler classes.

    Only the branches whose first item c has c <= mirror(c) are searched; a
    branch with a distinct mirror counts twice.  jobs worker processes split
    the search (default os.cpu_count()); the pool never starts more than
    os.cpu_count(), since every worker is forked at once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > COUNT_LIMIT:
        raise SizeGuardError(f"counting is guarded to n <= {COUNT_LIMIT}")
    if n <= 2:
        return 1
    cpus = os.cpu_count() or 1
    jobs = cpus if jobs is None else min(jobs, cpus)
    space, _ = _kn_space(n)
    masks, mirror = _containment_masks(space.windows), _kn_mirror(n)
    full = (1 << len(masks)) - 1
    firsts = [(c, 1 if c == mirror[c] else 2) for c in _open_items(masks, full) if c <= mirror[c]]
    if jobs <= 1 or n <= 4:
        return sum(w * _count_branch((n, (c,))) for c, w in firsts)
    # split the search at depth two; workers feasibility-check their prefix
    prefixes, weights = [], []
    for c1, w in firsts:
        for c2 in _open_items(masks, full & ~(1 << c1)):
            prefixes.append((n, (c1, c2)))
            weights.append(w)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return sum(w * k for w, k in zip(weights, pool.map(_count_branch, prefixes)))


class GolombBounds(NamedTuple):
    lower: int            # (n-1)!
    upper_factorial: int  # C(n,2)!
    upper_thrall: int


def golomb_bounds(n: int) -> GolombBounds:
    """Exact bounds on the Golomb class count."""
    if n < 2:
        raise ValueError("n must be >= 2")
    lower = math.factorial(n - 1)
    upper_factorial = math.factorial(math.comb(n, 2))
    num = math.prod(math.factorial(k) for k in range(1, n))
    den = math.prod(math.factorial(2 * k - 1) for k in range(1, n + 1))
    thrall = num * math.factorial(n * (n + 1) // 2) // den
    return GolombBounds(lower, upper_factorial, thrall)


def knn_path_upper_bound(n: int) -> int:
    """(C(2n, n) - 2) * Golomb(2n); degenerate (zero) at n = 1.

    Golomb(2n) comes from GOLOMB_TABLE, so n >= 5 raises SizeGuardError.
    """
    if 2 * n not in GOLOMB_TABLE:
        raise SizeGuardError(
            f"the interleaving bound at n={n} needs Golomb({2 * n}), "
            f"known only up to Golomb({max(GOLOMB_TABLE)})"
        )
    return (math.comb(2 * n, n) - 2) * GOLOMB_TABLE[2 * n]


# ---------------------------------------------------------------------------
# bipartite family: coordinate arrangements and signed orderings
# ---------------------------------------------------------------------------

def arrangements(n: int) -> list[tuple[int, ...]]:
    """All interleavings of the two (internally ordered) parties, as vertex ids."""
    out = []
    for first_positions in combinations(range(2 * n), n):
        p1, p2 = iter(range(1, n + 1)), iter(range(n + 1, 2 * n + 1))
        out.append(tuple(next(p1) if pos in first_positions else next(p2) for pos in range(2 * n)))
    return out


def _knn_space(n: int, arr: tuple[int, ...], balanced: bool):
    pos = {v: i for i, v in enumerate(arr)}
    labels = []
    windows = []
    for row in range(1, n + 1):
        for col in range(1, n + 1):
            a, b = pos[row], pos[n + col]
            labels.append((row, col, 1 if b > a else -1))
            windows.append((min(a, b), max(a, b)))
    eq_rows: tuple = ()
    if balanced:
        # party-sum equality in shifted gap vars: sum_i c_i (y_i + 1) = 0
        coeffs = [sum(1 if v <= n else -1 for v in arr[i + 1 :]) for i in range(2 * n - 1)]
        eq_rows = ((tuple(coeffs), -sum(coeffs)),)
    return _ChainSpace(tuple(windows), 2 * n - 1, eq_rows), labels


def _knn_symmetries(n: int):
    """(arrangement map, item permutation) of the party swap, of the reflection
    x' = -x with each party relabelled in reverse, and of their product.

    Each is an involution on the vertices that keeps every magnitude, so it
    maps the feasible chains of an arrangement onto those of its image; the
    items are the (row, col) pairs in ``_knn_space`` order.
    """
    def swap(v):
        return v - n if v > n else v + n

    def reflect(v):
        return 3 * n + 1 - v if v > n else n + 1 - v

    def arrangement_map(vertex, reverse):
        return lambda arr: tuple(map(vertex, reversed(arr) if reverse else arr))

    pairs = [(row, n + col) for row in range(1, n + 1) for col in range(1, n + 1)]
    return [
        (arrangement_map(vertex, reverse), _item_permutation(pairs, vertex))
        for vertex, reverse in ((swap, False), (reflect, True), (lambda v: swap(reflect(v)), True))
    ]


# `count --family knn` reports orderings up to here: n=3 (20 interleavings of
# 9 magnitudes, 7 of them searched) took 0.33-0.34 s end to end (2026-10-19,
# 2 cores, CPython 3.11), and n=4 has 70 interleavings of 16 magnitudes
ORDERING_LIMIT_KNN = 3


def enumerate_realizable_orderings_knn(
    n: int, balanced: bool = False
) -> list[tuple[tuple[int, ...], tuple[KnnLabel, ...]]]:
    """Feasible (arrangement, signed magnitude order) pairs for the bipartite family.

    Iterates the C(2n, n) party interleavings; for each, enumerates strict
    total orders on the cross-difference magnitudes feasible by exact LP,
    with signs fixed by the arrangement.  balanced adds the exact party-mean
    equality (which at n = 2 forces magnitude ties, leaving no strictly
    orderable configuration; see the README section "Reference-table
    discrepancies").
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ORDERING_LIMIT_KNN:
        raise SizeGuardError(
            f"bipartite ordering enumeration is guarded to n <= {ORDERING_LIMIT_KNN}"
        )
    symmetries = _knn_symmetries(n)
    solved: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    out: list[tuple[tuple[int, ...], tuple[KnnLabel, ...]]] = []
    for arr in arrangements(n):
        space, labels = _knn_space(n, arr, balanced)
        # the first arrangement of its orbit is searched; the others rename its chains
        for arrange, perm in symmetries:
            if (image := arrange(arr)) in solved:
                chains = _mapped(solved[image], perm)
                break
        else:
            chains = solved[arr] = list(_chains(space))
        out.extend((arr, tuple(labels[i] for i in chain)) for chain in chains)
    return out


# ---------------------------------------------------------------------------
# feasibility of a single IncrementOrder
# ---------------------------------------------------------------------------

def feasible(order: IncrementOrder, balanced: bool = False) -> Configuration | None:
    """Exact-rational witness configuration for the order, or None if infeasible."""
    if order.family is Family.COMPLETE:
        if balanced:
            raise ValueError("balanced applies to the bipartite family only")
        return _feasible_kn(order)
    return _feasible_knn(order, balanced)


def _feasible_kn(order: IncrementOrder) -> Configuration | None:
    n = order.n
    space, labels = _kn_space(n)
    index = {lab: i for i, lab in enumerate(labels)}
    chain = [index[lab] for lab in order.labels]
    ge = [_window_row(space, a, b) for a, b in zip(chain, chain[1:])]
    point = ratlp.solve_feasibility(space.n_gaps, ge_rows=ge)
    if point is None:
        return None
    y, d = point
    values = accumulate((v + d for v in y), initial=0)
    return Configuration(complete(n), tuple(Fraction(v, d) for v in values))


def _feasible_knn(order: IncrementOrder, balanced: bool) -> Configuration | None:
    n = order.n
    # vars: party-one gaps (n-1), party-two gaps (n-1), offset+ , offset-
    ng = n - 1
    nv = 2 * ng + 2

    def delta_coeffs(row: int, col: int):
        # x_{N+col} - x_row = offset + sum(g2[:col-1]) - sum(g1[:row-1])
        c = [0] * nv
        for i in range(col - 1):
            c[ng + i] += 1
        for i in range(row - 1):
            c[i] -= 1
        c[2 * ng] += 1
        c[2 * ng + 1] -= 1
        return c

    ge_rows = []
    prev = None
    for row, col, q in order.labels:
        c = [q * v for v in delta_coeffs(row, col)]
        ge_rows.append((c, 1))  # sign consistency, slack-1
        if prev is not None:
            ge_rows.append(([a - b for a, b in zip(c, prev)], 1))
        prev = c
    eq_rows = []
    if balanced:
        coeffs = [0] * nv
        for i in range(ng):
            coeffs[i] = -(n - 1 - i)      # party-one gaps
            coeffs[ng + i] = n - 1 - i    # party-two gaps
        coeffs[2 * ng] = n
        coeffs[2 * ng + 1] = -n
        eq_rows.append((coeffs, 0))
    point = ratlp.solve_feasibility(nv, ge_rows=ge_rows, eq_rows=eq_rows)
    if point is None:
        return None
    y, d = point
    x1 = accumulate(y[:ng], initial=0)
    x2 = accumulate(y[ng : 2 * ng], initial=y[2 * ng] - y[2 * ng + 1])
    return Configuration(bipartite(n), tuple(Fraction(v, d) for v in (*x1, *x2)))


def verify_witness(order: IncrementOrder, config: Configuration) -> bool:
    """Substitute the witness, a configuration of the order's own graph, and check
    the claimed strict order exactly."""
    if (config.spec.family, config.spec.n) != (order.family, order.n) or not config.is_ordered():
        return False
    vals = config.values
    mags = []
    if order.family is Family.COMPLETE:
        for a, k in order.labels:
            mags.append(vals[a + k - 1] - vals[a - 1])
    else:
        n = order.n
        for row, col, q in order.labels:
            d = vals[n + col - 1] - vals[row - 1]
            if (d > 0) != (q > 0) or d == 0:
                return False
            mags.append(abs(d))
    return all(a < b for a, b in zip(mags, mags[1:])) and all(m > 0 for m in mags)


# ---------------------------------------------------------------------------
# paths -> orderings, configurations -> rulers
# ---------------------------------------------------------------------------

def _walk(family: Family, code, steps: Sequence[tuple[int, int]]) -> list[Move]:
    """The moves of a (site, sign) path from code; an inadmissible step raises."""
    rule, moves = CODES[family].moves, []
    for site, sign in steps:
        for move in rule(code, (site,)):
            if move[1] == sign:
                break
        else:
            raise SyncPathsError(f"inadmissible move ({site}, {sign}) from {code}")
        moves.append(move)
        code = move[2]
    return moves


def path_to_ordering_kn(initial: KnCode, sites: Sequence[int]) -> IncrementOrder:
    """Translate a jump-site path into its increment order; rejects inadmissible paths."""
    code = validate_kn(initial)
    moves = _walk(Family.COMPLETE, code, [(site, 0) for site in sites])
    return IncrementOrder(Family.COMPLETE, len(code), tuple((u, v - u) for *_, (u, v) in moves))


def path_to_ordering_knn(initial: KnnCode, moves: Sequence[tuple[int, int]]) -> IncrementOrder:
    """Translate (site, sign) moves into a signed cross-difference order."""
    code = validate_knn(initial)
    n = len(code[0])
    walked = _walk(Family.BIPARTITE, code, moves)
    return IncrementOrder(Family.BIPARTITE, n, tuple((r, v - n, q) for _, q, _, (r, v) in walked))


def ruler_from_configuration(config: Configuration) -> tuple[int, ...]:
    """Integer ruler inducing the same increment order as a typical configuration.

    Scales by the smallest integer p with p * min(e1, e2/4) > 1, where e1 is
    the least increment and e2 the least gap between increments (over those
    that exist: n = 2 has no gap; n = 1 has no increment and takes p = 1),
    then floors.
    """
    if config.spec.family is not Family.COMPLETE:
        raise ValueError("rulers are defined for the complete family")
    if not config.is_ordered():
        raise ValueError("configuration must be sorted ascending")
    vals = [Fraction(v) for v in config.values]
    incs = []
    n = len(vals)
    for a in range(n):
        for b in range(a + 1, n):
            incs.append(vals[b] - vals[a])
    if any(i == 0 for i in incs):
        raise NotTypicalError("zero increment")
    diffs = [abs(p - q) for p, q in combinations(incs, 2)]
    if any(d == 0 for d in diffs):
        raise NotTypicalError("tied increments")
    bound = min([*incs, *(d / 4 for d in diffs)], default=None)
    p = 1 if bound is None else int(1 / bound) + 1
    return tuple(math.floor(p * v) for v in vals)
