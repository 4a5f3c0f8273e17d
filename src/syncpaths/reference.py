"""Frozen reference tables used by the verification harness.

Counts of Golomb-ruler classes are literature values (OEIS A237749, kept in
``realizability.GOLOMB_TABLE``).  The length-distribution rows below were
transcribed from the published reference tables for both families; they are
independently recomputed by this package and cross-checked in the test
suite (partition-pair prefixes are OEIS A000712).

``KNN2_ORDERING_TABLE`` reproduces the published 20-row table of bipartite
(arrangement, magnitude order, sign) rows verbatim.  Exact enumeration shows
that table is internally inconsistent: two of its rows violate the identity
D11 + D22 = D12 + D21 that couples the four cross differences
D_rc = y_c - x_r, one of them also contradicts its own sign data (a
difference that is negative under the stated arrangement is listed with a
positive sign), and six feasible rows are missing; the true count is 24.
With an exact party-mean equality there is no strictly ordered configuration
at all at n = 2 (balance forces D22 = -D11 and D21 = -D12, tied
magnitudes).  The verification harness therefore reports the corresponding
check as a documented discrepancy; see the package README.
"""

from __future__ import annotations

# Length distributions, complete family, n = 2..8 (index = remaining length).
KN_LENGTH_ROWS: dict[int, tuple[int, ...]] = {
    2: (1, 1),
    3: (1, 1, 2, 1),
    4: (1, 1, 2, 3, 3, 3, 1),
    5: (1, 1, 2, 3, 5, 5, 7, 7, 6, 4, 1),
    6: (1, 1, 2, 3, 5, 7, 9, 11, 14, 16, 16, 17, 14, 10, 5, 1),
    7: (1, 1, 2, 3, 5, 7, 11, 13, 18, 22, 28, 32, 37, 40, 44, 43, 40, 35, 25,
        15, 6, 1),
    8: (1, 1, 2, 3, 5, 7, 11, 15, 20, 26, 34, 42, 53, 63, 73, 85, 96, 106,
        113, 118, 118, 115, 102, 86, 65, 41, 21, 7, 1),
}

# Length distributions, bipartite family, n = 2..8.
KNN_LENGTH_ROWS: dict[int, tuple[int, ...]] = {
    2: (1, 2, 5, 6, 6),
    3: (1, 2, 5, 10, 16, 24, 31, 36, 30, 20),
    4: (1, 2, 5, 10, 20, 32, 53, 78, 111, 146, 187, 216, 243, 240, 210, 140,
        70),
    5: (1, 2, 5, 10, 20, 36, 61, 98, 153, 228, 327, 454, 611, 798, 1005,
        1236, 1466, 1688, 1862, 1980, 1971, 1850, 1540, 1120, 630, 252),
    6: (1, 2, 5, 10, 20, 36, 65, 106, 173, 268, 409, 600, 867, 1212, 1671,
        2244, 2966, 3826, 4868, 6056, 7422, 8906, 10519, 12166, 13830, 15352,
        16704, 17656, 18133, 17890, 16903, 14966, 12306, 8988, 5670, 2772,
        924),
    7: (1, 2, 5, 10, 20, 36, 65, 110, 181, 288, 449, 680, 1013, 1474, 2107,
        2958, 4088, 5558, 7450, 9842, 12820, 16488, 20932, 26246, 32507,
        39790, 48116, 57538, 67984, 79414, 91653, 104578, 117806, 131096,
        143865, 155692, 165779, 173530, 177877, 178282, 173616, 163632,
        147855, 127092, 102060, 75432, 49434, 27720, 12012, 3432),
    8: (1, 2, 5, 10, 20, 36, 65, 110, 185, 296, 469, 720, 1093, 1618, 2369,
        3400, 4824, 6732, 9296, 12654, 17054, 22694, 29912, 38976, 50333,
        64320, 81489, 102242, 127219, 156850, 191841, 232602, 279832, 333830,
        395204, 464030, 540737, 625028, 716966, 815766, 920990, 1031168,
        1145253, 1260882, 1376172, 1487820, 1593022, 1687242, 1766791,
        1826112, 1860845, 1865122, 1834995, 1765746, 1656541, 1506540,
        1320987, 1106748, 877470, 647592, 437118, 260832, 132132, 51480,
        12870),
}

# The ten realizable increment orders for the complete graph on four
# vertices; label (n, k) denotes the increment x_{n+k} - x_n.
KN4_ORDERINGS: frozenset[tuple[tuple[int, int], ...]] = frozenset(
    {
        ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)),
        ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)),
        ((1, 1), (3, 1), (2, 1), (1, 2), (2, 2), (1, 3)),
        ((2, 1), (1, 1), (3, 1), (1, 2), (2, 2), (1, 3)),
        ((2, 1), (1, 1), (1, 2), (3, 1), (2, 2), (1, 3)),
        ((2, 1), (3, 1), (1, 1), (2, 2), (1, 2), (1, 3)),
        ((2, 1), (3, 1), (2, 2), (1, 1), (1, 2), (1, 3)),
        ((3, 1), (1, 1), (2, 1), (2, 2), (1, 2), (1, 3)),
        ((3, 1), (2, 1), (1, 1), (2, 2), (1, 2), (1, 3)),
        ((3, 1), (2, 1), (2, 2), (1, 1), (1, 2), (1, 3)),
    }
)

# The published 20-row bipartite ordering table, verbatim (see the module
# docstring for its documented inconsistencies).  Row format: (arrangement as
# vertex ids in ascending position, ((n, m, sign), ...) in increasing
# magnitude).
KNN2_ORDERING_TABLE: frozenset = frozenset(
    {
        ((1, 2, 3, 4), ((2, 1, +1), (2, 2, +1), (1, 1, +1), (1, 2, +1))),
        ((1, 2, 3, 4), ((2, 1, +1), (1, 1, +1), (2, 2, +1), (1, 2, +1))),
        ((1, 3, 2, 4), ((2, 1, -1), (2, 2, +1), (1, 1, +1), (1, 2, +1))),
        ((1, 3, 2, 4), ((2, 2, +1), (2, 1, -1), (1, 1, +1), (1, 2, +1))),
        ((1, 3, 2, 4), ((2, 2, +1), (1, 1, +1), (2, 1, -1), (1, 2, +1))),
        ((1, 3, 2, 4), ((2, 1, -1), (1, 1, +1), (2, 2, +1), (1, 2, +1))),
        ((1, 3, 2, 4), ((1, 1, +1), (2, 1, -1), (2, 2, +1), (1, 2, +1))),
        ((1, 3, 2, 4), ((1, 1, +1), (2, 2, +1), (2, 1, -1), (1, 2, +1))),
        ((1, 3, 4, 2), ((1, 1, +1), (2, 2, -1), (1, 2, +1), (2, 1, -1))),
        ((1, 3, 4, 2), ((2, 2, -1), (1, 1, +1), (2, 1, -1), (1, 2, +1))),
        ((3, 4, 1, 2), ((1, 2, -1), (1, 1, -1), (2, 2, -1), (2, 1, -1))),
        ((3, 4, 1, 2), ((1, 2, -1), (2, 2, -1), (1, 1, -1), (2, 1, -1))),
        ((3, 1, 4, 2), ((1, 2, +1), (1, 1, -1), (2, 2, -1), (2, 1, -1))),
        ((3, 1, 4, 2), ((1, 1, -1), (1, 2, +1), (2, 2, -1), (2, 1, -1))),
        ((3, 1, 4, 2), ((1, 1, -1), (2, 2, -1), (1, 2, +1), (2, 1, -1))),
        ((3, 1, 4, 2), ((1, 2, +1), (2, 2, -1), (1, 1, -1), (2, 1, -1))),
        ((3, 1, 4, 2), ((2, 2, -1), (1, 2, +1), (1, 1, -1), (2, 1, -1))),
        ((3, 1, 4, 2), ((2, 2, -1), (1, 1, -1), (1, 2, +1), (2, 1, -1))),
        ((3, 1, 2, 4), ((1, 1, -1), (2, 2, +1), (1, 2, +1), (2, 1, +1))),
        ((3, 1, 2, 4), ((2, 2, +1), (1, 1, -1), (2, 1, -1), (1, 2, +1))),
    }
)
