"""Dihedral p-critical elements of PSL(2,q): predicate and brute force.

An order-p element is dihedral p-critical in a simple group exactly
when its dihedralizer is the unique maximal subgroup containing it.
``dpc_predicate`` decides this from (q, p) alone; ``dpc_brute_force``
verifies the definition directly on small groups by exhausting cyclic
closures, so the two can be played against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import GroupTooLarge, NoElementOfOrderP, NotCoprime
from .finite_fields import is_prime, make_field, prime_power_decomposition
from .projective import PSL2, Element

P5_EXCEPTIONAL = "P5_EXCEPTIONAL"
ORDER_CONDITION = "ORDER_CONDITION"
FAILS = "FAILS"

BRUTE_FORCE_BOUND = 2000  # largest group order dpc_brute_force exhausts


@dataclass(frozen=True)
class DpcVerdict:
    q: int
    p: int
    predicate: bool
    reason: str
    witnessed: bool | None = None


def multiplicative_order(l: int, p: int) -> int:
    """Least s with l^s = 1 mod p."""
    if p < 1:
        raise ValueError("modulus must be positive")
    l %= p
    if gcd(l, p) != 1:
        raise NotCoprime(f"{l} and {p} are not coprime")
    s, cur = 1, l
    while cur != 1 % p:
        cur = (cur * l) % p
        s += 1
    return s


def dpc_predicate(q: int, p: int) -> DpcVerdict:
    """Decide whether PSL(2,q) has a dihedral p-critical element.

    True iff the abstract group is PSL(2,5) and p = 5 (this absorbs
    q = 4 through PSL(2,4) = PSL(2,5)), or l != p > 5 and the
    multiplicative order of l modulo p is 2r.
    """
    if not is_prime(p) or p <= 3:
        raise ValueError(f"p={p} must be a prime greater than 3")
    l, r = prime_power_decomposition(q)
    if q in (4, 5) and p == 5:
        return DpcVerdict(q=q, p=p, predicate=True, reason=P5_EXCEPTIONAL)
    if l != p and p > 5 and multiplicative_order(l, p) == 2 * r:
        return DpcVerdict(q=q, p=p, predicate=True, reason=ORDER_CONDITION)
    return DpcVerdict(q=q, p=p, predicate=False, reason=FAILS)


def _closure_reaches(group: PSL2, gens: list[Element], full_size: int) -> bool:
    """True iff the subgroup generated by gens is the whole group.

    Standard multiplicative closure; by Lagrange a proper subgroup has
    at most half the group order, so growth past that point is decisive.
    """
    half = full_size // 2
    els = set(gens)
    boundary = list(els)
    while boundary:
        new = []
        for b in boundary:
            for g in gens:
                c = group.compose(b, g)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if len(els) > half:
                        return True
        boundary = new
    return len(els) == full_size


def dpc_brute_force(q: int, p: int) -> bool:
    """Check the dihedral p-critical definition by exhaustion.

    Picks an element a of order p, computes its dihedralizer D, and
    returns True iff D is proper and every x outside D generates the
    whole group together with a.
    """
    l, r = prime_power_decomposition(q)
    group = PSL2(make_field(l, r))
    n = group.order()
    if n > BRUTE_FORCE_BOUND:
        raise GroupTooLarge(f"|PSL(2,{q})| = {n} exceeds bound {BRUTE_FORCE_BOUND}")
    if n % p != 0:
        raise NoElementOfOrderP(f"p={p} does not divide |PSL(2,{q})| = {n}")
    elements = list(group.enumerate_elements())
    a = next(m for m in elements if group.has_order(m, p))
    outside = [x for x in elements if not group.in_dihedralizer(x, a)]
    if not outside:  # dihedralizer is everything
        return False
    return all(_closure_reaches(group, [a, x], n) for x in outside)


def dpc_verdict(q: int, p: int, brute: bool = False) -> DpcVerdict:
    v = dpc_predicate(q, p)
    if not brute:
        return v
    return DpcVerdict(q=v.q, p=v.p, predicate=v.predicate, reason=v.reason,
                      witnessed=dpc_brute_force(q, p))
