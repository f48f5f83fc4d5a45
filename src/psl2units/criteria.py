"""Exact intersection combinatorics for free-companion certificates (q odd).

For h outside the dihedralizer D of a, everything is decided by integer
cardinalities of orbit intersections:

* the triple counts m[b][i][j][k] = |h a^b h^-1(O_i) n h(O_j) n g h(O_k)|
  and their balance equalities.  The exact certificate of the certifier
  module has projection coefficients c_b = 2(D_b + D_-b), with
  D_b = m[b][0][0][1] - m[b][0][1][0], so its projections escape exactly
  when h is unbalanced (some shift breaks balance).  This is the weaker,
  exact criterion for the h-indexed bicyclic unit to be a free companion
  of the conjugated Bass unit;
* the weighted sums over a-orbits whose inequality is the stronger,
  sufficient condition: it implies unbalance but not conversely.  The
  sweep searches for it because one h meeting it settles the pair.

All counts are bitset popcounts over the fixed point order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BalanceFamiliesDisagree, HInDihedralizer, InvariantViolated
from .orbits import OrbitTable, image_points, intersect_count
from .projective import CanonicalGenerators, Element


@dataclass
class IntersectionCounts:
    """m[j][k] = |h(O_j) n gh(O_k)|; mb[b][i][j][k] adds the h a^b h^-1(O_i)
    constraint, with b stored modulo p."""

    p: int
    m: list[list[int]]
    mb: list[list[list[list[int]]]]  # [b][i][j][k]

    def mb_sym(self, b: int, i: int, j: int, k: int) -> int:
        """Access with b in the symmetric window -(p-1)/2 .. (p-1)/2."""
        return self.mb[b % self.p][i][j][k]


def _require_outside_dihedralizer(gens: CanonicalGenerators, h: Element):
    if gens.group.in_dihedralizer(h, gens.g):
        raise HInDihedralizer("h normalizes <g>; the companion unit is trivial")


def intersection_counts(gens: CanonicalGenerators, tab: OrbitTable,
                        h: Element) -> IntersectionCounts:
    """All m and m^(b) counts for one h (q odd, h outside D)."""
    if gens.q % 2 == 0:
        raise ValueError("intersection counts are defined for odd q")
    _require_outside_dihedralizer(gens, h)
    group = gens.group
    p = gens.p
    perm_h = group.perm_array(h)
    perm_hinv = group.perm_array(group.inverse(h))
    perm_g = group.perm_array(gens.g)
    perm_a = group.perm_array(gens.a)

    h_pts = [[perm_h[pt] for pt in tab.g_orbits[i]] for i in range(2)]
    hO = [image_points(perm_h, tab.g_orbits[j]) for j in range(2)]
    ghO = [image_points(perm_g, h_pts[k]) for k in range(2)]
    m = [[intersect_count(hO[j], ghO[k]) for k in range(2)] for j in range(2)]

    mb = [[[[0, 0] for _ in range(2)] for _ in range(2)] for _ in range(p)]
    for i in range(2):
        layer = [perm_hinv[pt] for pt in tab.g_orbits[i]]  # h^-1(O_i)
        for b in range(p):
            moved = image_points(perm_h, layer)  # h a^b h^-1 (O_i)
            for j in range(2):
                for k in range(2):
                    mb[b][i][j][k] = intersect_count(moved & hO[j], ghO[k])
            layer = [perm_a[pt] for pt in layer]

    counts = IntersectionCounts(p=p, m=m, mb=mb)
    _assert_count_invariants(gens, counts)
    return counts


def _assert_count_invariants(gens: CanonicalGenerators, c: IntersectionCounts):
    """Raise InvariantViolated unless the counts partition as they must."""
    half = (gens.q + 1) // 2
    m, mb, p = c.m, c.mb, c.p
    ok = (m[0][0] + m[0][1] == half and m[1][0] + m[1][1] == half
          and m[0][0] + m[1][0] == half and m[0][1] + m[1][1] == half
          and m[0][1] == m[1][0] and m[0][0] == m[1][1]
          and all(mb[b][0][j][k] + mb[b][1][j][k] == m[j][k]
                  for b in range(p) for j in range(2) for k in range(2))
          and mb[0][0][0][1] == mb[0][0][1][0]
          and mb[0][1][0][1] == mb[0][1][1][0])
    if not ok:
        raise InvariantViolated("intersection counts break the orbit partition "
                                "or the b = 0 symmetry")


def companion_condition(gens: CanonicalGenerators, tab: OrbitTable,
                        h: Element) -> tuple[bool, int, int]:
    """The weighted orbit-sum inequality for one h.

    lhs = sum_j |h(O_0j) n O_0| * |O_0j n g^h(O_1)|
    rhs = sum_j |h(O_1j) n O_0| * |O_1j n g^h(O_0)|
    with g^h = h^-1 g h; returns (lhs != rhs, lhs, rhs).

    lhs and rhs are the sums over all shifts b of m[b][0][0][1] and
    m[b][0][1][0], so lhs != rhs forces an unbalanced shift: the condition
    is sufficient for the exact certificate but not necessary.  At q = 27,
    p = 7, 8624 of the 9800 h in G - D meet it while 9408 are certified.
    """
    if gens.q % 2 == 0:
        raise ValueError("the companion condition is defined for odd q")
    _require_outside_dihedralizer(gens, h)
    group = gens.group
    perm_h = group.perm_array(h)
    gh = group.conj_pow(gens.g, h)
    perm_gh = group.perm_array(gh)
    ghO = [image_points(perm_gh, tab.g_orbits[k]) for k in range(2)]
    mask_O0 = tab.masks_g[0]

    lhs = 0
    rhs = 0
    for j in range(gens.d):
        lhs += intersect_count(image_points(perm_h, tab.a_orbits[0][j]), mask_O0) \
            * intersect_count(tab.masks_a[0][j], ghO[1])
        rhs += intersect_count(image_points(perm_h, tab.a_orbits[1][j]), mask_O0) \
            * intersect_count(tab.masks_a[1][j], ghO[0])
    return lhs != rhs, lhs, rhs


def balance_table(gens: CanonicalGenerators, tab: OrbitTable, h: Element,
                  counts: IntersectionCounts | None = None) -> dict[int, bool]:
    """Per-shift balance equalities of the triple counts.

    For each 0 < b <= (p-1)/2 the entry is True iff
    m[b][0][0][1] + m[-b][0][0][1] == m[b][0][1][0] + m[-b][0][1][0];
    the same equality with first index 1 must agree shift by shift, else
    BalanceFamiliesDisagree is raised.
    """
    c = counts if counts is not None else intersection_counts(gens, tab, h)
    table = {}
    for b in range(1, (gens.p - 1) // 2 + 1):
        eq0 = (c.mb_sym(b, 0, 0, 1) + c.mb_sym(-b, 0, 0, 1)
               == c.mb_sym(b, 0, 1, 0) + c.mb_sym(-b, 0, 1, 0))
        eq1 = (c.mb_sym(b, 1, 0, 1) + c.mb_sym(-b, 1, 0, 1)
               == c.mb_sym(b, 1, 1, 0) + c.mb_sym(-b, 1, 1, 0))
        if eq0 != eq1:
            raise BalanceFamiliesDisagree(
                "the two balance families must agree shift by shift")
        table[b] = eq0
    return table


@dataclass
class CriterionReport:
    """Everything the criteria decide about a single h."""

    h: Element
    sums_differ: bool
    lhs: int
    rhs: int
    unbalanced: bool           # some shift violates balance
    witness_b: Optional[int]   # first such shift, if any
    counts: IntersectionCounts


def criterion_report(gens: CanonicalGenerators, tab: OrbitTable,
                     h: Element) -> CriterionReport:
    differs, lhs, rhs = companion_condition(gens, tab, h)
    counts = intersection_counts(gens, tab, h)
    table = balance_table(gens, tab, h, counts)
    witness = next((b for b, eq in table.items() if not eq), None)
    return CriterionReport(h=h, sums_differ=differs, lhs=lhs, rhs=rhs,
                           unbalanced=witness is not None, witness_b=witness,
                           counts=counts)


@dataclass
class SearchResult:
    h: Optional[Element]
    tries: int

    @property
    def satisfied(self) -> bool:
        return self.h is not None


def search_companion(gens: CanonicalGenerators, tab: OrbitTable, rng,
                     max_tries: int) -> SearchResult:
    """Sample h outside D until the orbit-sum condition holds.

    Draws that land inside D are rejected without consuming a try.
    """
    group = gens.group
    tries = 0
    while tries < max_tries:
        h = group.random_element(rng)
        while group.in_dihedralizer(h, gens.g):
            h = group.random_element(rng)
        tries += 1
        differs, _, _ = companion_condition(gens, tab, h)
        if differs:
            return SearchResult(h=h, tries=tries)
    return SearchResult(h=None, tries=tries)
