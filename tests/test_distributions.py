import hashlib
import json
import math
from fractions import Fraction

import pytest

from syncpaths import reference
from syncpaths.codes import (
    catalan,
    dyck_area,
    enumerate_phi_n,
    enumerate_phi_nn,
    narayana_count,
    polyomino_area,
    to_polyomino,
)
from syncpaths.distributions import (
    carlitz_polynomials,
    cumulative,
    density_export,
    f_kn,
    f_knn,
    length_distribution,
    partition_counts,
    sloane_prefix_check,
    summary,
)
from syncpaths.errors import SizeGuardError
from syncpaths.graphs import Family


def test_carlitz_small_polynomials():
    polys = carlitz_polynomials(4)
    assert polys[0] == [1]
    assert polys[1] == [1]
    assert polys[2] == [1, 1]
    assert polys[3] == [1, 2, 1, 1]
    assert sum(polys[4]) == catalan(4)


def test_carlitz_matches_area_enumeration():
    for n in range(1, 9):
        hist = [0] * (n * (n - 1) // 2 + 1)
        for code in enumerate_phi_n(n):
            hist[dyck_area(code)] += 1
        assert carlitz_polynomials(n)[n] == hist


def test_carlitz_totals():
    polys = carlitz_polynomials(12)
    for n in range(1, 13):
        assert sum(polys[n]) == catalan(n)


def _convolution_polynomials(n):
    """P_0..P_n by the recurrence P_m = sum_j t^j P_j P_{m-1-j}, on plain lists."""
    polys = [[1]]
    for m in range(1, n + 1):
        acc = [0] * (m * (m - 1) // 2 + 1)
        for j in range(m):
            for i, a in enumerate(polys[j]):
                for k, b in enumerate(polys[m - 1 - j]):
                    acc[j + i + k] += a * b
        polys.append(acc)
    return polys


def test_f_kn_matches_convolution_recurrence():
    # an independent check on the Dyck height-by-area DP behind f_kn
    polys = _convolution_polynomials(30)
    assert carlitz_polynomials(30) == polys
    for n in range(1, 31):
        assert f_kn(n).counts == tuple(reversed(polys[n]))


# sha256 of json.dumps([str(c) for c in counts]), taken from the Carlitz
# convolution and the per-area column sweep that the packed DPs replaced
LARGEST_TABLE_DIGESTS = {
    (f_kn, 48): "feaba4dd1fbd79e1dcc6d61fdabcca6892bffb91371b307ee435a623cbfdbfb7",
    (f_kn, 60): "d3e2b0df84072ef911dfd0559a1696f7749ddd49846ef690d76693137ac18e87",
    (f_knn, 18): "dda3280c42d2bed44764dea47626027e9770e019f835d0011da11685543468b6",
    (f_knn, 20): "39f10f81ae5a813bc00ae80123a2eae38764bf2d252fd4000603f4538a4c561c",
}


def test_largest_tables_pinned():
    for (dist_fn, n), expected in LARGEST_TABLE_DIGESTS.items():
        text = json.dumps([str(c) for c in dist_fn(n).counts])
        assert hashlib.sha256(text.encode()).hexdigest() == expected, (dist_fn.__name__, n)


def test_distribution_size_guard():
    with pytest.raises(SizeGuardError):
        f_kn(151)
    with pytest.raises(SizeGuardError):
        carlitz_polynomials(151)
    with pytest.raises(SizeGuardError):
        f_knn(51)


def test_f_kn_reference_rows():
    for n, row in reference.KN_LENGTH_ROWS.items():
        assert f_kn(n).counts == row


def test_f_kn_endpoints():
    for n in range(2, 10):
        counts = f_kn(n).counts
        assert counts[0] == 1 and counts[-1] == 1
        assert len(counts) == n * (n - 1) // 2 + 1


def test_f_knn_reference_rows():
    for n, row in reference.KNN_LENGTH_ROWS.items():
        assert f_knn(n).counts == row


def test_f_knn_against_enumeration():
    for n in range(1, 5):
        hist = {}
        for code in enumerate_phi_nn(n):
            a = polyomino_area(to_polyomino(code))
            hist[a] = hist.get(a, 0) + 1
        top = (n + 1) ** 2
        direct = tuple(hist.get(top - l, 0) for l in range(n * n + 1))
        assert f_knn(n).counts == direct


def test_f_knn_totals_and_endpoints():
    for n in range(1, 11):
        dist = f_knn(n)
        assert dist.total() == narayana_count(n)
        assert dist.counts[0] == 1
        assert dist.counts[-1] == math.comb(2 * n, n)


def test_partition_counts():
    assert partition_counts(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_sloane_prefix():
    for n in range(1, 9):
        assert sloane_prefix_check(n)
    # the shared prefix is the pair-of-partitions sequence
    p = partition_counts(7)
    pairs = [sum(p[i] * p[l - i] for i in range(l + 1)) for l in range(8)]
    assert pairs == [1, 2, 5, 10, 20, 36, 65, 110]


def test_cumulative():
    dist = f_kn(4)
    assert cumulative(dist, 1) == 1
    assert cumulative(dist, 0) == Fraction(1, 14)
    assert cumulative(f_knn(2), 0) == Fraction(1, 20)
    with pytest.raises(ValueError):
        cumulative(dist, 1.5)


def test_cumulative_monotone():
    dist = f_kn(6)
    values = [cumulative(dist, Fraction(i, 20)) for i in range(21)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_summary_kn8_tie():
    stats = summary(f_kn(8))
    assert stats.modes == (19, 20)
    assert stats.mean == Fraction(
        sum(l * c for l, c in enumerate(f_kn(8).counts)), catalan(8)
    )


def test_summary_k2():
    stats = summary(f_kn(2))
    assert stats.modes == (0, 1)
    assert stats.mean == Fraction(1, 2)


def test_summary_single_point_distribution():
    stats = summary(f_kn(1))  # one code, zero-length path
    assert stats.modes == (0,)
    assert stats.mode_ratios == (Fraction(0),)
    assert stats.mean == 0 and stats.mean_ratio == 0


def test_summary_knn8():
    stats = summary(f_knn(8))
    assert stats.modes == (51,)
    assert stats.mode_ratios == (Fraction(51, 64),)


def test_unimodality_regression():
    # observed for every computed size: nondecreasing to a single maximal
    # plateau, nonincreasing after (a regression check, not a theorem)
    def unimodal(counts):
        peak = max(counts)
        first = counts.index(peak)
        last = len(counts) - 1 - counts[::-1].index(peak)
        rising = counts[: first + 1]
        falling = counts[last:]
        plateau = counts[first : last + 1]
        return (
            all(a <= b for a, b in zip(rising, rising[1:]))
            and all(a >= b for a, b in zip(falling, falling[1:]))
            and all(c == peak for c in plateau)
        )

    for n in range(2, 21):
        assert unimodal(list(f_kn(n).counts))
    for n in range(1, 11):
        assert unimodal(list(f_knn(n).counts))


def test_density_export_normalized():
    for family, n in ((Family.COMPLETE, 8), (Family.BIPARTITE, 4)):
        csv = density_export(family, n, 16)
        lines = csv.strip().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 17
        total = sum(float(l.split(",")[1]) for l in lines[1:]) / 16
        assert total == pytest.approx(1.0, abs=1e-12)


def test_density_export_guard():
    with pytest.raises(SizeGuardError):
        density_export(Family.COMPLETE, 61, 10)
    with pytest.raises(SizeGuardError):
        density_export(Family.BIPARTITE, 21, 10)
    with pytest.raises(SizeGuardError):
        density_export(Family.COMPLETE, 5, 10**5 + 1)


def test_distribution_json():
    payload = json.loads(f_kn(4).to_json())
    assert payload == {
        "family": "kn",
        "n": 4,
        "counts": ["1", "1", "2", "3", "3", "3", "1"],
    }


def test_density_export_matches_fraction_accumulation():
    # oracle: each bin's mass summed as Fractions of the total, then each
    # printed value made by float(Fraction); n = 1 has top == 0
    def by_fractions(family, n, bins):
        dist = length_distribution(family, n)
        top, total = dist.max_length, dist.total()
        mass = [Fraction(0)] * bins
        for l, c in enumerate(dist.counts):
            j = min(l * bins // top, bins - 1) if top else 0
            mass[j] += Fraction(c, total)
        lines = ["x,density"]
        for j in range(bins):
            x, rho = Fraction(2 * j + 1, 2 * bins), mass[j] * bins
            lines.append(f"{float(x):.12g},{float(rho):.12g}")
        return "\n".join(lines) + "\n"

    for family, top_n in ((Family.COMPLETE, 40), (Family.BIPARTITE, 14)):
        for n in range(1, top_n + 1):
            max_length = (f_kn(n) if family is Family.COMPLETE else f_knn(n)).max_length
            for bins in (1, 2, 3, 7, 50, max_length + 5):
                assert density_export(family, n, bins) == by_fractions(family, n, bins), (
                    family, n, bins)
