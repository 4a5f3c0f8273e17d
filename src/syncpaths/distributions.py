"""Exact path-length distributions and their summary statistics.

For the complete family the length distribution is the area polynomial P_n
of the Dyck paths of semilength n (area = sum of the heights before each
up-step), read from the top degree down.  It is computed by a height-by-step
DP; these polynomials satisfy the convolution recurrence
P_N = sum_{j<N} t^j P_j P_{N-1-j} with P_0 = 1.  For the bipartite family
the distribution is computed by a column-sweep DP over polyomino border
pairs, each new column adding its height to the area.  In both DPs a state
carries its whole area polynomial packed into one big integer with fixed
byte-wide digits, unpacked once at the end.

Everything here is exact: big-integer counts, Fraction ratios.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import SizeGuardError
from .graphs import Family, bipartite, complete

AreaPolynomial = list[int]  # coefficient vector, index = area statistic

# Largest n per family whose distribution is computed: f_kn(150) and f_knn(50)
# each take about 3 s (2-core VM, CPython 3.11), with under 100 MB peak RSS.
DIST_LIMITS = {Family.COMPLETE: 150, Family.BIPARTITE: 50}


@dataclass(frozen=True)
class LengthDistribution:
    family: Family
    n: int
    counts: tuple[int, ...]  # counts[l] = number of codes at remaining length l

    @property
    def max_length(self) -> int:
        return len(self.counts) - 1

    def total(self) -> int:
        return sum(self.counts)

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family.value,
                "n": self.n,
                "counts": [str(c) for c in self.counts],
            }
        )


@dataclass(frozen=True)
class SummaryStats:
    modes: tuple[int, ...]          # argmax lengths, ascending (ties listed)
    mode_ratios: tuple[Fraction, ...]
    mean: Fraction
    mean_ratio: Fraction


def _unpack(packed: int, digits: int, width: int) -> list[int]:
    """The first `digits` little-endian digits of `width` bytes each."""
    raw = packed.to_bytes(digits * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _check_limit(family: Family, n: int) -> None:
    if n > DIST_LIMITS[family]:
        raise SizeGuardError(
            f"n={n} exceeds the distribution limit {DIST_LIMITS[family]} for {family.value}"
        )


def _dyck_area_polynomials(n: int, first: int) -> list[AreaPolynomial]:
    """P_first..P_n, each P_m counting the Dyck paths of semilength m by area.

    One height-by-step DP of 2n steps (area = sum of the heights before each
    up-step).  After step 2m its height-0 state is P_m: the DP drops only
    prefixes too high to return to 0 by step 2n.
    """
    # 2n+1 bits per digit rounded up to bytes: no prefix count exceeds 2^(2n)
    width = n // 4 + 1
    bits = 8 * width
    row = [1]  # row[h]: packed area polynomial of the prefixes ending at height h
    polys = [[1]] if first == 0 else []
    for step in range(1, 2 * n + 1):
        top = min(step, 2 * n - step)  # highest height that can still return
        nxt = [0] * (top + 1)
        for h, packed in enumerate(row):
            if packed:
                if h < top:
                    nxt[h + 1] += packed << (h * bits)
                if h:
                    nxt[h - 1] += packed
        row = nxt
        m, odd = divmod(step, 2)
        if not odd and m >= first:
            polys.append(_unpack(row[0], m * (m - 1) // 2 + 1, width))
    return polys


def carlitz_polynomials(n: int) -> list[AreaPolynomial]:
    """Area generating polynomials P_0..P_n (P_0 = 1; see module notes)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_limit(Family.COMPLETE, n)
    return _dyck_area_polynomials(n, 0)


@lru_cache(maxsize=None, typed=True)  # typed: f_kn(True) is not f_kn(1)'s entry
def f_kn(n: int) -> LengthDistribution:
    """counts[l] = number of codes whose remaining path length is l (complete family)."""
    complete(n)  # GraphSpec's rule for n: exactly an int, >= 1
    _check_limit(Family.COMPLETE, n)
    (poly,) = _dyck_area_polynomials(n, n)
    return LengthDistribution(Family.COMPLETE, n, tuple(reversed(poly)))


@lru_cache(maxsize=None, typed=True)
def f_knn(n: int) -> LengthDistribution:
    """Bipartite analogue via the border-pair column sweep."""
    bipartite(n)  # GraphSpec's rule for n
    _check_limit(Family.BIPARTITE, n)
    # Every coefficient below counts distinct partial polyominoes of one area,
    # and each extends (border pair (lo, n+1) onwards) to a distinct complete
    # one, so none exceeds narayana_count(n) < 2^(4n): n//2 + 1 bytes hold
    # at least 4n + 4 bits.  The subtraction below is digitwise nonnegative,
    # so it never borrows across digits.
    width = n // 2 + 1
    bits = 8 * width
    size = n + 2  # border values live in 0..n+1
    max_area = (n + 1) ** 2

    # cur[lo][up]: packed area polynomial of the states with these borders
    cur = [[0] * size for _ in range(size)]
    for up in range(1, size):
        cur[0][up] = 1 << (up * bits)

    for _col in range(n):
        # acc[up] = sum over states l <= lo, u <= up; the predecessors of
        # (lo, up2) are l <= lo, lo < u <= up2, and the new column adds area
        # up2 - lo
        acc = [0] * size
        for lo, row in enumerate(cur):
            run = 0
            for up, packed in enumerate(row):
                run += packed
                acc[up] += run
            base = acc[lo]
            cur[lo] = [
                (acc[up2] - base) << ((up2 - lo) * bits) if up2 > lo else 0
                for up2 in range(size)
            ]

    hist = _unpack(sum(row[n + 1] for row in cur), max_area + 1, width)
    # remaining length l corresponds to area (n+1)^2 - l; lengths run 0..n^2
    counts = tuple(hist[max_area - l] for l in range(n * n + 1))
    return LengthDistribution(Family.BIPARTITE, n, counts)


def length_distribution(family: Family, n: int) -> LengthDistribution:
    return f_kn(n) if family is Family.COMPLETE else f_knn(n)


def partition_counts(limit: int) -> list[int]:
    """Partition numbers p(0..limit) by the bounded-part recurrence."""
    p = [0] * (limit + 1)
    p[0] = 1
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            p[total] += p[total - part]
    return p


def sloane_prefix_check(n: int) -> bool:
    """True iff counts[l] for l <= n equals the number of pairs of partitions of l."""
    dist = f_knn(n)
    p = partition_counts(n)
    pairs = [sum(p[i] * p[l - i] for i in range(l + 1)) for l in range(n + 1)]
    return list(dist.counts[: n + 1]) == pairs


def cumulative(dist: LengthDistribution, x) -> Fraction:
    """Normalized cumulative distribution at x in [0, 1] (exact)."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    cutoff = x * dist.max_length
    total = sum(c for l, c in enumerate(dist.counts) if l <= cutoff)
    return Fraction(total, dist.total())


def summary(dist: LengthDistribution) -> SummaryStats:
    peak = max(dist.counts)
    modes = tuple(l for l, c in enumerate(dist.counts) if c == peak)
    top = dist.max_length or 1  # a single-point distribution has ratio 0
    total = dist.total()
    mean = Fraction(sum(l * c for l, c in enumerate(dist.counts)), total)
    return SummaryStats(
        modes=modes,
        mode_ratios=tuple(Fraction(m, top) for m in modes),
        mean=mean,
        mean_ratio=mean / top,
    )


DENSITY_LIMITS = {Family.COMPLETE: 60, Family.BIPARTITE: 20}
DENSITY_MAX_BINS = 10**5  # about 0.6 s at kn 60; the export time is linear in bins


def density_export(family: Family, n: int, bins: int) -> str:
    """CSV histogram "x,density" of normalized lengths; integrates to 1 exactly."""
    if n > DENSITY_LIMITS[family]:
        raise SizeGuardError(f"n={n} exceeds the density limit for {family.value}")
    if bins < 1:
        raise ValueError("bins must be positive")
    if bins > DENSITY_MAX_BINS:
        raise SizeGuardError(f"bins={bins} exceeds the density limit of {DENSITY_MAX_BINS} bins")
    dist = length_distribution(family, n)
    top = dist.max_length
    total = dist.total()
    mass = [Fraction(0)] * bins
    for l, c in enumerate(dist.counts):
        j = min(l * bins // top, bins - 1) if top else 0
        mass[j] += Fraction(c, total)
    lines = ["x,density"]
    for j in range(bins):
        x = Fraction(2 * j + 1, 2 * bins)
        rho = mass[j] * bins
        lines.append(f"{float(x):.12g},{float(rho):.12g}")
    return "\n".join(lines) + "\n"
