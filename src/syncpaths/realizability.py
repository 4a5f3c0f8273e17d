"""Realizability of event orderings via exact rational feasibility.

An admissible path prescribes a strict order on pairwise increments (complete
family) or on signed cross-difference magnitudes (bipartite family).  Whether
some configuration actually produces that order is a linear feasibility
question over an open homogeneous cone, decided exactly through its Gordan
alternative (see ``ratlp``), so every "feasible" verdict carries an exact
rational witness.

Both families enumerate their orders with one generator, ``_chains``: a
depth-first extension "which item is next smallest", pruned by interval
containment (a nested window is forced smaller, ``_open_items``) and by exact
feasibility of each prefix, whose LP puts only the containment-minimal open
items above it.  Its root witness is powers-of-two gaps when neither a prefix
nor an equality row constrains it, else one cold root LP; a witness,
integers in units of 1/d, is reused down the tree until a choice disagrees
with it; then the new rows join the last LP on the path as columns of its
cone, and the solve goes on from that LP's basis.
Counting feasible full orders for the complete graph counts combinatorial
classes of Golomb rulers.

Before an LP, a two-pair exchange may refute the order outright.  Items I, J,
K, L whose windows sum alike (I + J = K + L as forms of the gaps, as in
x_b - x_a + x_d - x_c = x_d - x_a + x_b - x_c, the distinct-differences
condition of Golomb rulers) cannot have I below K and J below L: that gives
m(I) + m(J) < m(K) + m(L) strictly.  In the chain search the chain's items
are ranked in order and every item off the chain ties above them all (an
open tail is above the chain by its LP row, any other item contains one);
two tied items are never below one another.  ``feasible`` on K_n applies the
same test to an order's own items, ranked by position, every other item ranked
nan: below and above nothing.  A refuted node is skipped as an infeasible LP
would be, so every remaining solve is unchanged.

``_orbit_search`` runs ``_chains`` on one member of each symmetry orbit.  A
symmetry is a vertex map that keeps every magnitude: the reflection
x'_i = -x_{n+1-i}, which on K_n maps (a, k) to (n+1-a-k, k) and on K_{n,n}
maps (r, c, q) to (n+1-r, n+1-c, -q), and on K_{n,n} the party swap
(r, c, q) -> (c, r, -q); it maps the chains below a prefix onto those below
its image.  An item is a graph edge and a search space a vertex arrangement
(``_space``): K_n has one, 1..n; K_{n,n} has one per interleaving of its
parties, and one with an earlier orbit member (``arrangements`` order) renames
its chains.  A node (space, prefix) has as stabilizer the symmetries that map
the space onto itself and fix every prefix item.  While that is not empty, the
node branches only on open items least in their orbit under it: the others'
chains are a representative's renamed, and a count weights it by the orbit's
size.  Then, or at a full prefix (whose LP it checks), ``_chains`` searches
plainly; a parallel count splits each such search one item deeper.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import ratlp
from .codes import CODES, KnCode, KnnCode, Move, validate_kn, validate_knn
from .errors import NotTypicalError, SizeGuardError, SyncPathsError
from .graphs import Configuration, Family, GraphSpec, bipartite, complete

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
        GraphSpec(self.family, self.n)  # the family and n rules of the order's graph
        size, labels, complete = self.n, self.labels, self.family is Family.COMPLETE
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        if len(labels) > (size * (size - 1) // 2 if complete else size**2):
            raise ValueError("too many labels for the family")
        if complete:
            for n, k in labels:  # exactly ints: True is not 1, nor 1.0
                if not (type(n) is type(k) is int and 1 <= n and 1 <= k and n + k <= size):
                    raise ValueError(f"label not ints in range: {(n, k)}")
        else:
            for n, m, q in labels:
                if not (type(n) is type(m) is type(q) is int
                        and 1 <= n <= size and 1 <= m <= size and q in (-1, 1)):
                    raise ValueError(f"label not ints in range: {(n, m, q)}")


# ---------------------------------------------------------------------------
# interval chains over gap variables (shared by both families)
# ---------------------------------------------------------------------------

class _ChainSpace(NamedTuple):
    """Feasibility context: items are windows over strictly positive gaps."""

    windows: tuple[tuple[int, int], ...]   # half-open gap-index windows (lo, hi)
    n_gaps: int
    eq_rows: tuple[tuple[int, ...], ...]


def _window_row(space: _ChainSpace, a: int, b: int) -> list[int]:
    """Coefficients of magnitude(b) - magnitude(a) over the gaps."""
    coeffs = [0] * space.n_gaps
    lo, hi = space.windows[b]
    coeffs[lo:hi] = [1] * (hi - lo)
    lo_a, hi_a = space.windows[a]
    for i in range(lo_a, hi_a):
        coeffs[i] -= 1
    return coeffs


def _gap_rows(space: _ChainSpace) -> list[list[int]]:
    """The rows g_i > 0 of every gap."""
    return [[int(i == j) for j in range(space.n_gaps)] for i in range(space.n_gaps)]


def _solve_chain(space: _ChainSpace, lp: ratlp.Cone, chain: tuple[int, ...], k: int,
                 tails: Iterable[int]):
    """Add to lp the rows of the chain's consecutive pairs from chain[k] on and of
    every tail above its last item; solve: gaps (gaps, d) in units of 1/d, or None."""
    pairs = [*zip(chain[k:], chain[k + 1 :]), *((chain[-1], t) for t in tails)]
    lp.add([_window_row(space, a, b) for a, b in pairs])
    return lp.solve()


def _magnitudes(space: _ChainSpace, gaps: Sequence[int]) -> list[int]:
    """Every item's window sum over the witness gaps, from one prefix-sum pass."""
    prefix = list(accumulate(gaps, initial=0))
    return [prefix[hi] - prefix[lo] for lo, hi in space.windows]


@lru_cache(maxsize=None)
def _search_tables(windows: tuple[tuple[int, int], ...]):
    """The containment masks and the exchange table of a space's windows, built once
    per process and shared as tuples, so that no search can change them."""
    return (tuple(_containment_masks(windows)),
            tuple(map(tuple, _exchange_table(windows))))


def _containment_masks(windows: Sequence[tuple[int, int]]) -> list[int]:
    """mask[i] = bitset of items whose window is strictly inside window i."""
    masks = [0] * len(windows)
    for i, (lo_i, hi_i) in enumerate(windows):
        for j, (lo_j, hi_j) in enumerate(windows):
            if i != j and lo_i <= lo_j and hi_j <= hi_i:
                masks[i] |= 1 << j
    return masks


def _pair_form(w: tuple[int, int], v: tuple[int, int]) -> tuple[int, ...]:
    """Key of the gap form that windows w and v sum to: equal keys, equal forms.  A
    shared end cancels (tiles summing to one window), else starts and ends as sets."""
    (a, b), (c, d) = w, v
    if b == c:
        return a, d
    if d == a:
        return c, b
    return min(a, c), max(a, c), min(b, d), max(b, d)


def _exchange_table(windows: Sequence[tuple[int, int]]) -> list[list[tuple[int, int, int]]]:
    """table[c] = every (j, k, l) whose pairs {c, j} and {k, l} of items differ but
    whose windows sum to the same gap form."""
    forms: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, j in combinations(range(len(windows)), 2):
        forms.setdefault(_pair_form(windows[i], windows[j]), []).append((i, j))
    table: list[list[tuple[int, int, int]]] = [[] for _ in windows]
    for pairs in forms.values():
        for i, j in pairs:
            for k, l in pairs:
                if k != i:
                    table[i].append((j, k, l))
                    table[j].append((i, k, l))
    return table


def _exchanged(table: Sequence[Sequence[tuple[int, int, int]]], rank: Sequence[int],
               c: int) -> bool:
    """Whether item c closes an exchange: {c, j} and {k, l} of one form with c below
    k and j below l (or c below l and j below k), by rank; in the chain search c is
    ranked last of the chain with every item off it tied above.  Then
    m(c) + m(j) < m(k) + m(l), though both sides are one form of the gaps, so no
    configuration has the order."""
    rc = rank[c]
    for j, k, l in table[c]:
        rj = rank[j]
        if rc < rank[k] and rj < rank[l] or rc < rank[l] and rj < rank[k]:
            return True
    return False


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

    Before a node's LP, ``_exchanged`` tries the two-pair exchange (module
    docstring) with the chain's items ranked by position and every item off
    the chain tied above them: known to be above the chain, not to be above
    one another.  The parent is feasible, so only the relations "c below an
    item off the chain" are new, and only the pairs holding the new item c
    are checked, in a table built once per process (``_search_tables``).  A
    refuted node is skipped like an LP ``None``.

    The root cone holds the rows g > 0 of the gaps and the balanced
    equality.  A node carries the cone of the last LP on its path, solved for
    chain[:k] with chain[k] among its tails.  A child's LP copies it, adds
    the pairs from chain[k] on and the child's tail rows, and solves on from
    its basis: in the cone's alternative a row is a column, so the copy grows
    by those columns alone and no artificial re-enters.  The rows it keeps of
    older tails are implied by the child's (containment, gaps >= 1), so the
    region and the verdict are the child's.
    """
    masks, table = _search_tables(space.windows)
    rank = [len(masks)] * len(masks)  # off the chain: tied above it
    remaining = (1 << len(masks)) - 1
    for i, c in enumerate(prefix):
        remaining &= ~(1 << c)
        rank[c] = i
        if _exchanged(table, rank, c):
            return
    lp = ratlp.Cone(space.n_gaps)
    lp.add(_gap_rows(space), space.eq_rows)
    if prefix or space.eq_rows:
        tails = _open_items(masks, remaining) if prefix else ()
        root = _solve_chain(space, lp, prefix, 0, tails)
        if root is None:
            return
    else:
        root = [2**i for i in range(space.n_gaps)], 1

    def extend(chain, remaining, m, d, lp, k) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield chain
            return
        for c in _open_items(masks, remaining):
            rest, longer = remaining & ~(1 << c), chain + (c,)
            tails = list(_open_items(masks, rest))
            rank[c] = len(chain)
            above = m[c] + d
            if (chain and m[c] < m[chain[-1]] + d) or any(m[j] < above for j in tails):
                if not _exchanged(table, rank, c):
                    child = lp.copy()
                    w = _solve_chain(space, child, longer, k, tails)
                    if w is not None:
                        gaps, w_d = w
                        yield from extend(longer, rest, _magnitudes(space, gaps), w_d, child,
                                          len(longer))
            else:
                yield from extend(longer, rest, m, d, lp, k)
            rank[c] = len(masks)

    gaps, d = root
    yield from extend(prefix, remaining, _magnitudes(space, gaps), d, lp, len(prefix))


def _mapped(chains: Iterable[tuple[int, ...]], perm: Sequence[int]) -> list[tuple[int, ...]]:
    """The chains with every item renamed by perm, in the order a search yields them:
    ``_chains`` extends in increasing item order, so that order is lexicographic."""
    return sorted(tuple(perm[i] for i in chain) for chain in chains)


def _space(spec: GraphSpec, arr: tuple[int, ...], balanced: bool = False):
    """The search space of the graph's edges, in ``spec.edges()`` order, on the vertex
    arrangement arr, with their labels: an edge's window runs between its two ends'
    positions in arr.  K_n (arranged 1..n) labels (u, v - u), K_{n,n} (u, v - n, q)
    with q = +1 where v comes after u; balanced adds the party-mean equality."""
    n, pos = spec.n, {v: i for i, v in enumerate(arr)}
    labels, windows = [], []
    for u, v in spec.edges():
        a, b = pos[u], pos[v]
        labels.append((u, v - u) if spec.family is Family.COMPLETE
                      else (u, v - n, 1 if b > a else -1))
        windows.append((min(a, b), max(a, b)))
    eq_rows: tuple = ()
    if balanced:
        # party-sum equality over the gaps: sum_i c_i g_i = 0
        eq_rows = (tuple(sum(1 if v <= n else -1 for v in arr[i + 1 :])
                         for i in range(len(arr) - 1)),)
    return _ChainSpace(tuple(windows), len(arr) - 1, eq_rows), labels


def _symmetries(spec: GraphSpec):
    """(arrangement map, item permutation) of each symmetry, perm[i] the image of
    item i of ``spec.edges()`` under the vertex map: the reflection x' = -x with each party relabelled in
    reverse, and on K_{n,n} also the party swap, in the order swap, reflection,
    their product."""
    n = spec.n

    def swap(v):
        return v - n if v > n else v + n

    def reflect(v):
        return 3 * n + 1 - v if v > n else n + 1 - v

    def arrangement_map(vertex, reverse):
        return lambda arr: tuple(map(vertex, reversed(arr) if reverse else arr))

    index = {frozenset(edge): i for i, edge in enumerate(spec.edges())}  # item of a pair
    maps = [(reflect, True)] if spec.family is Family.COMPLETE else [
        (swap, False), (reflect, True), (lambda v: swap(reflect(v)), True)]
    return [(arrangement_map(vertex, reverse), [index[frozenset(map(vertex, e))] for e in index])
            for vertex, reverse in maps]


def _orbit_search(family: Family, n: int, balanced: bool = False, count: bool = False,
                  jobs: int | None = 1) -> list | int:
    """The family's feasible orders as (space key, labels) pairs in search order, or
    with count their number.  The spaces are K_n's one (key (1, ..., n)) or K_{n,n}'s
    arrangements; a symmetry is a (key map, item permutation) pair."""
    spec = GraphSpec(family, n)  # GraphSpec's rule for n: exactly an int, >= 1
    if jobs is not None and (type(jobs) is not int or jobs < 1):
        raise ValueError(f"jobs must be None or an int >= 1, got {jobs!r}")
    limit = COUNT_LIMIT if family is Family.COMPLETE else ORDERING_LIMIT_KNN
    if n > limit:
        raise SizeGuardError(f"the {family.value} ordering search is guarded to n <= {limit}")
    arrs = [tuple(range(1, n + 1))] if family is Family.COMPLETE else arrangements(n)
    spaces, group = {arr: _space(spec, arr, balanced) for arr in arrs}, _symmetries(spec)
    cpus = os.cpu_count() or 1
    jobs = cpus if jobs is None else min(jobs, cpus)
    split = count and jobs > 1 and len(group[0][1]) >= 10  # a permutation has every item
    plain = []  # count: (orbit weight, (space, prefix)) of each plain search

    def search(space, masks, stab, prefix, remaining, weight) -> list[tuple[int, ...]]:
        if stab and remaining:
            out: dict[int, list[tuple[int, ...]]] = {}
            for c in _open_items(masks, remaining):
                orbit = {c, *(g[c] for g in stab)}
                if c == (rep := min(orbit)):
                    out[c] = search(space, masks, [g for g in stab if g[c] == c], prefix + (c,),
                                    remaining & ~(1 << c), weight * len(orbit))
                else:
                    out[c] = _mapped(out[rep], next(g for g in stab if g[rep] == c))
            return [chain for chains in out.values() for chain in chains]
        if not count:
            return list(_chains(space, prefix))
        # a split's workers check the longer prefixes' LPs
        longer = [prefix + (c,) for c in _open_items(masks, remaining)] if split else []
        plain.extend((weight, (space, p)) for p in longer or [prefix])
        return []

    rank, found = {key: i for i, key in enumerate(spaces)}, {}
    for key, (space, _labels) in spaces.items():
        orbit = {key, *(arrange(key) for arrange, _perm in group)}
        first = min(orbit, key=rank.__getitem__)
        perms = [perm for arrange, perm in group if arrange(first) == key]  # stabilizer if equal
        if first != key:
            found[key] = _mapped(found[first], perms[0])
        else:
            masks, _table = _search_tables(space.windows)
            found[key] = search(space, masks, perms, (), (1 << len(masks)) - 1, len(orbit))
    if not count:
        return [(key, tuple(spaces[key][1][i] for i in chain))
                for key, chains in found.items() for chain in chains]
    if not split:
        return sum(w * _chain_count(task) for w, task in plain)
    from concurrent.futures import ProcessPoolExecutor  # here: it imports multiprocessing

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return sum(w * k for (w, _), k in zip(plain, pool.map(_chain_count, [t for _, t in plain])))


def _chain_count(task) -> int:
    return sum(1 for _chain in _chains(*task))


# ---------------------------------------------------------------------------
# complete graph: orderings, Golomb counting
# ---------------------------------------------------------------------------

def enumerate_realizable_orderings_kn(n: int) -> list[tuple[KnLabel, ...]]:
    """All feasible strict orders on the pairwise increments, deterministic order;
    n above COUNT_LIMIT raises SizeGuardError before any search."""
    return [order for _key, order in _orbit_search(Family.COMPLETE, n)]


# n=7 (107498 classes) is the largest count measured to finish, in 9.1-16.6 s on
# one core and 7.6-8.3 s with two (2026-10-22, 2-core Xeon VM, CPython 3.11.7;
# the VM's speed varies up to 1.8x); n=8 has 68 times as many classes, so by that
# scaling alone its search would take 9 minutes or more with two (not measured)
COUNT_LIMIT = 7


def count_realizable_paths_kn(n: int, jobs: int | None = None) -> int:
    """Number of feasible full increment orders = number of Golomb-ruler classes.

    At every node the reflection fixes, one item of each mirror pair is
    searched and counts twice.  jobs worker processes split the search
    (default os.cpu_count()); the pool never starts more than os.cpu_count(),
    since every worker is forked at once.
    """
    return _orbit_search(Family.COMPLETE, n, count=True, jobs=jobs)


class GolombBounds(NamedTuple):
    lower: int            # (n-1)!
    upper_factorial: int  # C(n,2)!
    upper_thrall: int


def golomb_bounds(n: int) -> GolombBounds:
    """Exact bounds on the Golomb class count."""
    if complete(n).n < 2:  # GraphSpec's rule first: exactly an int, >= 1
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
    if 2 * bipartite(n).n not in GOLOMB_TABLE:  # GraphSpec's rule first
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


# `count --family knn` reports orderings up to here: n=3 (20 interleavings of
# 9 magnitudes, 7 searched) took 0.34-0.38 s end to end, 0.30-0.38 s balanced
# (2026-10-22, 2-core Xeon VM, CPython 3.11.7); n=4 has 70 interleavings of 16 magnitudes
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
    discrepancies").  n above ORDERING_LIMIT_KNN raises SizeGuardError.
    """
    return _orbit_search(Family.BIPARTITE, n, balanced)


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


@lru_cache(maxsize=None)
def _kn_context(n: int):
    """K_n's spec, search space, label -> item index and exchange table, built once
    per n and shared read-only: a query then does only its own order's work."""
    spec = complete(n)
    space, labels = _space(spec, tuple(range(1, n + 1)))
    index = MappingProxyType({lab: i for i, lab in enumerate(labels)})
    return spec, space, index, _search_tables(space.windows)[1]


def _feasible_kn(order: IncrementOrder) -> Configuration | None:
    spec, space, index, table = _kn_context(order.n)
    chain = [index[lab] for lab in order.labels]
    rank = [math.nan] * len(index)  # an item off the order is below and above nothing
    for i, c in enumerate(chain):
        rank[c] = i
    if any(_exchanged(table, rank, c) for c in chain):
        return None
    ge = [*_gap_rows(space), *(_window_row(space, a, b) for a, b in zip(chain, chain[1:]))]
    point = ratlp.solve_feasibility(space.n_gaps, ge_rows=ge)
    if point is None:
        return None
    gaps, d = point
    return Configuration.from_units(spec, accumulate(gaps, initial=0), d)


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
        ge_rows.append(c)  # sign consistency
        if prev is not None:
            ge_rows.append([a - b for a, b in zip(c, prev)])
        prev = c
    eq_rows = []
    if balanced:
        coeffs = [0] * nv
        for i in range(ng):
            coeffs[i] = -(n - 1 - i)      # party-one gaps
            coeffs[ng + i] = n - 1 - i    # party-two gaps
        coeffs[2 * ng] = n
        coeffs[2 * ng + 1] = -n
        eq_rows.append(coeffs)
    point = ratlp.solve_feasibility(nv, ge_rows=ge_rows, eq_rows=eq_rows)
    if point is None:
        return None
    y, d = point
    x1 = accumulate(y[:ng], initial=0)
    x2 = accumulate(y[ng : 2 * ng], initial=y[2 * ng] - y[2 * ng + 1])
    return Configuration.from_units(bipartite(n), (*x1, *x2), d)


def verify_witness(order: IncrementOrder, config: Configuration) -> bool:
    """Substitute the witness, a configuration of the order's own graph, and check
    the claimed strict order exactly."""
    if (config.spec.family, config.spec.n) != (order.family, order.n) or not config.is_ordered():
        return False
    x = config.values if (exact := config.exact) is None else exact[0]  # exact, in ints
    n, kn = order.n, order.family is Family.COMPLETE
    # K_n's (a, k) reads x_{a+k} - x_a (sign 1), K_{n,n}'s (r, c, q) q (x_{n+c} - x_r)
    mags = [q * (x[(u if kn else n) + w - 1] - x[u - 1])
            for u, w, q in ((*lab, 1)[:3] for lab in order.labels)]
    return all(a < b for a, b in zip([0, *mags], mags))  # positive, strictly increasing


# ---------------------------------------------------------------------------
# paths -> orderings, configurations -> rulers
# ---------------------------------------------------------------------------

def _walk(family: Family, code, steps: Sequence[tuple[int, int]]) -> list[Move]:
    """The moves of a (site, sign) path from code; a step not of two ints raises
    ValueError before any move, an inadmissible step SyncPathsError."""
    steps, record, moves = tuple(steps), CODES[family], []
    if not all(type(site) is type(sign) is int for site, sign in steps):
        raise ValueError(f"a path step is a (site, sign) pair of ints, got {steps}")
    for site, sign in steps:
        for move in record.code_moves(code, (site,)):
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
