"""Known answers for the search-scan cells: does a (j, k, t) anticoherent subspace exist?

Cells are keyed by (2j, k, t).  A row states that the subspace exists or
that it does not, and cites where that is established in this repository:
the reference catalog, a constructive family dimension, the dimension
bound, or a search the test suite pins.  Cells without a row have an
unknown answer; the benchmark reports their verdict but does not check it.

Existence propagates downwards (a k-dimensional t-AC subspace contains
every smaller dimension and is t'-AC for t' < t), so one row can cover
several cells; non-existence propagates upwards the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class KnownAnswer:
    two_j: int
    k: int
    t: int
    exists: bool
    source: str


EXISTS = [
    KnownAnswer(2, 1, 1, True, "rotosense.subspaces.one_ac_family_dimension(j=1) = 1"),
    KnownAnswer(3, 1, 1, True, "rotosense.subspaces.one_ac_family_dimension(j=3/2) = 1"),
    KnownAnswer(4, 2, 1, True, "catalog entry (2,2,1); tests/test_acceptance.py SEARCH_HITS"),
    KnownAnswer(5, 2, 1, True, "catalog entries (5/2,2,1)-V1 and (5/2,2,1)-V2"),
    KnownAnswer(6, 3, 1, True, "catalog entry (3,3,1); tests/test_acceptance.py SEARCH_HITS"),
    KnownAnswer(7, 2, 1, True, "rotosense.subspaces.one_ac_family_dimension(j=7/2) = 2"),
    KnownAnswer(8, 3, 1, True, "rotosense.subspaces.one_ac_family_dimension(j=4) = 3"),
    KnownAnswer(9, 4, 1, True, "catalog entry (9/2,4,1); tests/test_acceptance.py SEARCH_HITS"),
    KnownAnswer(7, 2, 2, True, "catalog entry (7/2,2,2); tests/test_acceptance.py SEARCH_HITS"),
    KnownAnswer(8, 1, 2, True, "tests/test_subspaces.py test_kmax_scan_spin4_second_order_is_one"),
    KnownAnswer(10, 2, 2, True, "catalog entry (5,2,2); tests/test_acceptance.py SEARCH_HITS"),
]

MISSES = [
    KnownAnswer(2, 2, 1, False, "dimension bound floor((2j-t+1)/(t+1)) = 1; tests/test_acceptance.py SEARCH_MISSES"),
    KnownAnswer(3, 2, 1, False, "dimension bound floor((2j-t+1)/(t+1)) = 1; tests/test_acceptance.py SEARCH_MISSES"),
    KnownAnswer(8, 2, 2, False, "tests/test_acceptance.py SEARCH_MISSES; test_kmax_scan_spin4_second_order_is_one"),
    KnownAnswer(9, 2, 2, False, "tests/test_acceptance.py SEARCH_MISSES"),
]

KNOWN_ANSWERS = EXISTS + MISSES


def dimension_bound(two_j: int, t: int) -> int:
    """floor((2j - t + 1)/(t + 1)), the largest k a (j, k, t) subspace can have."""
    return (two_j - t + 1) // (t + 1)


def known_answer(two_j: int, k: int, t: int) -> Optional[KnownAnswer]:
    """The row that settles the cell, or None when its answer is unknown."""
    if k > dimension_bound(two_j, t):
        return KnownAnswer(two_j, k, t, False, "dimension bound floor((2j-t+1)/(t+1))")
    for row in EXISTS:
        if row.two_j == two_j and k <= row.k and t <= row.t:
            return row
    for row in MISSES:
        if row.two_j == two_j and k >= row.k and t >= row.t:
            return row
    return None
