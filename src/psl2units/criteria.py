"""The orbit-sum condition and the balance criterion (q odd), read from
point-permutation rows.

For h outside the dihedralizer D of a, both verdicts are integer counts
over the a-orbits of the orbit table, read along a row perm[x] = h(x):

* the signed layer pair of ``orbit_layers``, as (..., a-orbit, a-power)
  through the table's ``rows``: layer = [x in h^-1(O_0)], and cross =
  +[x in g^h(O_1)] on O_0 and -[x in g^h(O_0)] on O_1 (g^h = h^-1 g h,
  read through the table's g^-1);
* lhs and rhs, the positive and negative parts of the per-orbit
  products (sum of layer) * (sum of cross), whose inequality is the
  stronger, sufficient condition: it implies unbalance but not
  conversely, since lhs - rhs is the sum of D_b over all p shifts and
  D_0 = 0.  The sweep searches for it because one h meeting it settles
  the pair, and ``verdicts`` reads the shift sums only on the rows where
  lhs == rhs;
* the balance defects D_b = m[b][0][0][1] - m[b][0][1][0] of the triple
  counts m[b][i][j][k] = |h a^b h^-1(O_i) n h(O_j) n g h(O_k)|, as cyclic
  correlations along each a-orbit.  The exact certificate of the spectral
  module has projection coefficients c_b = 2(D_b + D_-b), so its
  projections escape exactly when h is unbalanced (some shift breaks
  balance).  This is the weaker, exact criterion for the h-indexed
  bicyclic unit to be a free companion of the conjugated Bass unit.

The row functions take one row or a batch of rows (leading axes); the
scalar entry points run them on ``perm_array(h)`` and the survey engine
on its Moebius batches, so each verdict has one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BalanceFamiliesDisagree, HInDihedralizer, InvariantViolated
from .orbits import OrbitTable
from .projective import CanonicalGenerators, Element


def orbit_layers(tab: OrbitTable, perm: np.ndarray):
    """The signed layer pair ``(layer, cross)`` of each row, read along the
    a-orbits as (..., orbit, power): ``layer`` is [x in h^-1(O_0)] and
    ``cross`` is vo - glabel, vo = 1 + k for the image g^h(O_k) holding x
    (g^h = h^-1 g h), so +[x in g^h(O_1)] on O_0 and -[x in g^h(O_0)] on O_1.
    """
    lab = np.zeros(perm.shape, dtype=np.int8)  # lab[y] = 1 + index of h^-1(y)
    np.put_along_axis(lab, perm, tab.glabel, axis=-1)
    vo = np.take_along_axis(lab, tab.perm_g_inv[perm], axis=-1)
    return tab.rows((tab.glabel == 1).astype(np.int8)[perm]), tab.rows(vo - tab.glabel)


def orbit_sums(layer: np.ndarray, cross: np.ndarray):
    """(lhs != rhs, lhs, rhs) of the orbit-sum condition, per row: the
    positive and negative parts of the per-orbit products (sum of layer) *
    (sum of cross), which are >= 0 on the a-orbits of O_0 and <= 0 on
    those of O_1, so lhs - rhs is the sum of D_b over all p shifts."""
    prod = layer.sum(axis=-1) * cross.sum(axis=-1)
    lhs = np.maximum(prod, 0).sum(axis=-1)
    rhs = np.maximum(-prod, 0).sum(axis=-1)
    return lhs != rhs, lhs, rhs


def _check_layers(layer: np.ndarray, cross: np.ndarray) -> None:
    """The cross-total and D_0 checks that every balance verdict makes."""
    if cross.sum(axis=(-2, -1)).any():
        raise BalanceFamiliesDisagree("the two balance families must agree shift by shift")
    if np.einsum("...kt,...kt->...", cross, layer, dtype=np.int32).any():
        raise InvariantViolated("the balance defect at shift 0 is not zero")


def _shift_sums(layer: np.ndarray, cross: np.ndarray) -> np.ndarray:
    p = layer.shape[-1]
    twice = np.concatenate([layer, layer], axis=-1)  # x_(t-b) and x_(t+b) as windows
    return np.stack([np.einsum("...kt,...kt->...", cross,
                               twice[..., p - b:2 * p - b] + twice[..., b:b + p],
                               dtype=np.int32)
                     for b in range(1, (p - 1) // 2 + 1)], axis=-1)


def shift_sums(layer: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """D_b + D_-b for the shifts 0 < b <= (p-1)/2, per row; shift b is
    balanced iff its sum is 0.

    D_b is a cyclic correlation along each a-orbit x_t = a^t(z): the
    signed cross indicator against [x_(t-b) in h^-1(O_0)].  The family
    with first index 1 correlates against h^-1(O_1) instead, so it equals
    the cross total minus D_b shift by shift; the cross total must
    vanish, else BalanceFamiliesDisagree.  D_0 must vanish too (the b = 0
    symmetry), else InvariantViolated.
    """
    _check_layers(layer, cross)
    return _shift_sums(layer, cross)


def verdicts(layer: np.ndarray, cross: np.ndarray):
    """(lhs != rhs, lhs, rhs, unbalanced) per row, ``unbalanced`` being
    ``shift_sums(...).any(axis=-1)`` read only where lhs == rhs."""
    differs, lhs, rhs = orbit_sums(layer, cross)
    _check_layers(layer, cross)
    unbalanced, open_rows = np.array(differs), ~differs
    if open_rows.any():  # _shift_sums costs (p-1)/2 numpy calls even on no rows
        unbalanced[open_rows] = _shift_sums(layer[open_rows], cross[open_rows]).any(axis=-1)
    return differs, lhs, rhs, unbalanced


def _perm_row(gens: CanonicalGenerators, h: Element) -> np.ndarray:
    """The row h(x) of one h, after the checks every verdict needs."""
    if gens.q % 2 == 0:
        raise ValueError("the criteria are defined for odd q")
    if gens.group.in_dihedralizer(h, gens.g):
        raise HInDihedralizer("h normalizes <g>; the companion unit is trivial")
    return gens.group.perm_array(h)


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
    differs, lhs, rhs = orbit_sums(*orbit_layers(tab, _perm_row(gens, h)))
    return bool(differs), int(lhs), int(rhs)


@dataclass
class CriterionReport:
    """Everything the criteria decide about a single h."""

    h: Element
    sums_differ: bool
    lhs: int
    rhs: int
    unbalanced: bool           # some shift violates balance
    witness_b: Optional[int]   # first such shift, if any
    shift_sums: tuple[int, ...]  # D_b + D_-b for b = 1 .. (p-1)/2


def criterion_report(gens: CanonicalGenerators, tab: OrbitTable,
                     h: Element) -> CriterionReport:
    layers = orbit_layers(tab, _perm_row(gens, h))
    differs, lhs, rhs = orbit_sums(*layers)
    sums = tuple(shift_sums(*layers).tolist())
    witness = next((b for b, s in enumerate(sums, 1) if s), None)
    return CriterionReport(h=h, sums_differ=bool(differs), lhs=int(lhs), rhs=int(rhs),
                           unbalanced=witness is not None, witness_b=witness,
                           shift_sums=sums)


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
