"""Sparse arithmetic in the integral group ring Z[PSL(2,q)].

Elements are coefficient maps from canonical group elements to nonzero
Python integers, so the (1 - k^m)/n coefficients of Bass units never
overflow.  ``bicyclic_right`` builds the bicyclic unit the certificates
pair with a Bass unit; nothing representation-theoretic lives here.
"""

from __future__ import annotations

from .errors import InvariantViolated
from .projective import Element, PSL2


class GroupRingElement:
    """Finitely supported integer combination of group elements."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: PSL2, coeffs: dict[Element, int] | None = None):
        self.group = group
        self.coeffs = {s: c for s, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls, group: PSL2) -> "GroupRingElement":
        return cls(group)

    @classmethod
    def one(cls, group: PSL2) -> "GroupRingElement":
        return cls(group, {group.normalize(group.identity): 1})

    @classmethod
    def from_element(cls, group: PSL2, s: Element, c: int = 1) -> "GroupRingElement":
        return cls(group, {group.normalize(s): c})

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == (GroupRingElement.one(self.group) * other)
        return isinstance(other, GroupRingElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = GroupRingElement.one(self.group) * other
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) + c
        return GroupRingElement(self.group, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return GroupRingElement(self.group, {s: -c for s, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = GroupRingElement.one(self.group) * other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.group, {s: c * other for s, c in self.coeffs.items()})
        compose = self.group.compose
        out: dict[Element, int] = {}
        for s, cs in self.coeffs.items():
            for t, ct in other.coeffs.items():
                st = compose(s, t)
                out[st] = out.get(st, 0) + cs * ct
        return GroupRingElement(self.group, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined in ZG")
        result = GroupRingElement.one(self.group)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def items_sorted(self):
        """Debug rendering order: sorted (matrix tuple, coefficient) pairs."""
        return sorted(self.coeffs.items())

    def __repr__(self):
        terms = ", ".join(f"{m}: {c}" for m, c in self.items_sorted())
        return f"GroupRingElement({{{terms}}})"


def hat(group: PSL2, g: Element) -> GroupRingElement:
    """1 + g + ... + g^(n-1), n the order of g (at most q + 1), in one walk of <g>."""
    ident = group.normalize(group.identity)
    coeffs = {ident: 1}
    cur = group.normalize(g)
    while cur != ident:
        if len(coeffs) > group.q:
            raise InvariantViolated(f"the order of {g} exceeds q + 1")
        coeffs[cur] = 1
        cur = group.compose(cur, g)
    return GroupRingElement(group, coeffs)


def bicyclic_right(group: PSL2, g: Element, h: Element) -> GroupRingElement:
    """1 + (1 - g) h ghat; trivial exactly when h normalizes <g>."""
    one = GroupRingElement.one(group)
    g_el = GroupRingElement.from_element(group, g)
    h_el = GroupRingElement.from_element(group, h)
    return one + (one - g_el) * h_el * hat(group, g)
