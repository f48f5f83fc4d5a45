"""PSL(2,q) acting on the projective line P = F_q u {infinity}.

Points are indexed 0..q: index 0 is the point at infinity and index
x+1 is the field element with encoding x.  ``apply`` maps one point by
the field's scalar arithmetic; ``perm_array`` maps all of them at once
and returns an int64 ndarray, built by ``mobius`` from the field's numpy
arithmetic, the function the survey engine runs on its batches of rows.
Group elements are 4-tuples (a11, a12, a21, a22) of field encodings with
determinant 1, stored as the canonical representative of the pair
{M, -M}: for odd q the first nonzero entry in scan order has the smaller
encoding of its +- pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import InvariantViolated
from .finite_fields import Field, FieldSetup, factorize, is_prime

INF = 0  # point index of [1, 0]

Element = tuple[int, int, int, int]


def mobius(add, mul, inv, m, x, y):
    """Point indices of m = (a, b, c, d) applied to the points [x : y],
    [a x + b y : c x + d y], by the numpy field operations add, mul and
    inv; entries of m may be scalars or columns, one per matrix.

    y is 0 (infinity, x = 1) or 1, so b y and d y are integer products;
    a zero denominator gives INF, which is index 0.
    """
    a, b, c, d = m
    num = add(mul(a, x), b * y)
    den = add(mul(c, x), d * y)
    return (mul(num, inv(den)) + 1) * (den != 0)


class PSL2:
    """The group PSL(2,q) over a fixed field context."""

    def __init__(self, field: Field):
        self.fq = field
        self.q = field.q
        self.d_prime = gcd(2, self.q + 1)
        self.n_points = self.q + 1
        self.identity: Element = (1, 0, 0, 1)
        # homogeneous coordinates [x : y] of the point indices
        x, y = np.arange(-1, self.q, dtype=np.int64), np.ones(self.n_points, dtype=np.int64)
        x[INF], y[INF] = 1, 0
        self.coords = (x, y)

    def order(self) -> int:
        q = self.q
        return q * (q * q - 1) // self.d_prime

    # -- canonical representatives ------------------------------------

    def normalize(self, m: Element) -> Element:
        """Canonical representative of {M, -M} (identity map for even q)."""
        if self.d_prime == 1:
            return m
        fq = self.fq
        for e in m:
            if e:
                if e > fq.neg(e):
                    return (fq.neg(m[0]), fq.neg(m[1]), fq.neg(m[2]), fq.neg(m[3]))
                return m
        raise InvariantViolated("the zero matrix is not a group element")

    def make(self, a11: int, a12: int, a21: int, a22: int) -> Element:
        """Validate encodings and determinant 1; return the canonical representative."""
        entries = (a11, a12, a21, a22)
        if not all(0 <= e < self.q for e in entries):
            raise ValueError(f"entries {list(entries)} are not all encodings in 0..{self.q - 1}")
        fq = self.fq
        det = fq.sub(fq.mul(a11, a22), fq.mul(a12, a21))
        if det != 1:
            raise ValueError(f"determinant is {det}, not 1")
        return self.normalize((a11, a12, a21, a22))

    # -- the action ----------------------------------------------------

    def apply(self, m: Element, pt: int) -> int:
        """Moebius action on a point index, with the usual infinity rules."""
        fq = self.fq
        a, b, c, d = m
        if pt == INF:
            if c == 0:
                return INF
            return fq.div(a, c) + 1
        x = pt - 1
        den = fq.add(fq.mul(c, x), d)
        if den == 0:
            return INF
        num = fq.add(fq.mul(a, x), b)
        return fq.mul(num, fq.inv(den)) + 1

    def perm_array(self, m: Element) -> np.ndarray:
        """Image of every point index under m; equals
        [self.apply(m, pt) for pt in range(self.n_points)]."""
        fq = self.fq
        return mobius(fq.add_array, fq.mul_array, fq.inv_array, m, *self.coords)

    # -- group operations ----------------------------------------------

    def compose(self, m1: Element, m2: Element) -> Element:
        fq = self.fq
        a, b, c, d = m1
        e, f, g, h = m2
        return self.normalize((
            fq.add(fq.mul(a, e), fq.mul(b, g)),
            fq.add(fq.mul(a, f), fq.mul(b, h)),
            fq.add(fq.mul(c, e), fq.mul(d, g)),
            fq.add(fq.mul(c, f), fq.mul(d, h)),
        ))

    def inverse(self, m: Element) -> Element:
        fq = self.fq
        a, b, c, d = m
        return self.normalize((d, fq.neg(b), fq.neg(c), a))

    def power(self, m: Element, e: int) -> Element:
        if e < 0:
            m, e = self.inverse(m), -e
        result = self.normalize(self.identity)
        while e:
            if e & 1:
                result = self.compose(result, m)
            m = self.compose(m, m)
            e >>= 1
        return result

    def element_order(self, m: Element) -> int:
        ident = self.normalize(self.identity)
        cur = self.normalize(m)
        s = 1
        while cur != ident:
            cur = self.compose(cur, m)
            s += 1
            if s > self.q + 1:
                raise InvariantViolated(f"the order of {m} exceeds q + 1")
        return s

    def has_order(self, m: Element, n: int) -> bool:
        """True iff m has order exactly n: m^n = 1 and m^(n/s) != 1 for
        every prime s dividing n, in O(omega(n) log n) compositions."""
        ident = self.normalize(self.identity)
        if self.power(m, n) != ident:
            return False
        return all(self.power(m, n // s) != ident for s in factorize(n))

    def conj_unit(self, x: Element, h: Element) -> Element:
        """x conjugated in unit convention: h * x * h^-1."""
        return self.compose(self.compose(h, x), self.inverse(h))

    def in_dihedralizer(self, h: Element, g: Element) -> bool:
        """True iff h g h^-1 is g or g^-1 as elements of PSL(2,q)."""
        conj = self.conj_unit(g, h)
        return conj == self.normalize(g) or conj == self.inverse(g)

    # -- element generation ----------------------------------------------

    def _half_units(self) -> list[int]:
        fq = self.fq
        if self.d_prime == 1:
            return list(range(1, self.q))
        return [e for e in range(1, self.q) if e < fq.neg(e)]

    def enumerate_elements(self):
        """All canonical representatives, each PSL element exactly once.

        The first nonzero entry in scan order runs over the lower half of
        the +- pairs, so each matrix produced is already canonical.
        """
        fq = self.fq
        half = self._half_units()
        one = 1
        for a in half:
            inv_a = fq.inv(a)
            for b in range(self.q):
                for c in range(self.q):
                    d = fq.mul(fq.add(one, fq.mul(b, c)), inv_a)
                    yield (a, b, c, d)
        for b in half:
            c = fq.neg(fq.inv(b))
            for d in range(self.q):
                yield (0, b, c, d)

    def random_element(self, rng) -> Element:
        """Uniform element from a seeded random stream.

        Draws a random matrix until invertible; a non-square determinant
        (odd q) is repaired by rescaling the first row with the fixed
        non-square, then the whole matrix is scaled to determinant 1.
        """
        fq = self.fq
        while True:
            a, b, c, d = (rng.randrange(self.q) for _ in range(4))
            det = fq.sub(fq.mul(a, d), fq.mul(b, c))
            if det != 0:
                break
        if self.d_prime == 2 and not fq.is_square(det):
            ns = fq.first_non_square()
            a, b = fq.mul(a, ns), fq.mul(b, ns)
            det = fq.mul(det, ns)
        y = int(fq.square_roots[det])
        s = fq.inv(y)
        return self.normalize((fq.mul(a, s), fq.mul(b, s), fq.mul(c, s), fq.mul(d, s)))

    # -- three-point interpolation (even q only) --------------------------

    def _to_standard_triple(self, x0: int, x1: int, x2: int) -> Element:
        # matrix sending (x0, x1, x2) to (0, 1, INF); not normalized
        fq = self.fq
        if x0 == INF:
            z1, z2 = x1 - 1, x2 - 1
            return (0, fq.sub(z1, z2), 1, fq.neg(z2))
        if x1 == INF:
            z0, z2 = x0 - 1, x2 - 1
            return (1, fq.neg(z0), 1, fq.neg(z2))
        if x2 == INF:
            z0, z1 = x0 - 1, x1 - 1
            return (1, fq.neg(z0), 0, fq.sub(z1, z0))
        z0, z1, z2 = x0 - 1, x1 - 1, x2 - 1
        u = fq.sub(z1, z2)
        v = fq.sub(z1, z0)
        return (u, fq.neg(fq.mul(z0, u)), v, fq.neg(fq.mul(z2, v)))

    def three_point_map(self, x0, x1, x2, y0, y1, y2) -> Element:
        """The unique element sending x_i to y_i (q even, points distinct)."""
        if self.d_prime != 1:
            raise ValueError("the action is triply transitive only for even q")
        if len({x0, x1, x2}) != 3 or len({y0, y1, y2}) != 3:
            raise ValueError("points must be pairwise distinct")
        fq = self.fq
        mx = self._to_standard_triple(x0, x1, x2)
        my = self._to_standard_triple(y0, y1, y2)
        a, b, c, d = my
        det = fq.sub(fq.mul(a, d), fq.mul(b, c))
        s = fq.inv(det)
        my_inv = (fq.mul(d, s), fq.mul(fq.neg(b), s), fq.mul(fq.neg(c), s), fq.mul(a, s))
        e, f, g, h = my_inv
        a, b, c, d = mx
        m = (
            fq.add(fq.mul(e, a), fq.mul(f, c)),
            fq.add(fq.mul(e, b), fq.mul(f, d)),
            fq.add(fq.mul(g, a), fq.mul(h, c)),
            fq.add(fq.mul(g, b), fq.mul(h, d)),
        )
        det = fq.sub(fq.mul(m[0], m[3]), fq.mul(m[1], m[2]))
        # char 2: every element has the square root det^(q/2)
        root = fq.pow(det, self.q // 2)
        s = fq.inv(root)
        out = self.normalize(tuple(fq.mul(e, s) for e in m))
        if (self.apply(out, x0), self.apply(out, x1), self.apply(out, x2)) != (y0, y1, y2):
            raise InvariantViolated(f"{out} does not send {(x0, x1, x2)} to {(y0, y1, y2)}")
        return out


@dataclass(frozen=True)
class CanonicalGenerators:
    """The canonical elements g (order (q+1)/d'), sigma (order (q-1)/d')
    and a = g^d (order p), together with the ambient contexts."""

    setup: FieldSetup
    group: PSL2
    p: int
    d: int
    d_prime: int
    g: Element
    sigma: Element
    a: Element

    @property
    def q(self) -> int:
        return self.setup.pp.q


def make_generators(setup: FieldSetup, p: int) -> CanonicalGenerators:
    """Build the canonical generator triple for a prime p dividing (q+1)/d'."""
    fq = setup.fq
    q = setup.pp.q
    group = PSL2(fq)
    d_prime = group.d_prime
    if not is_prime(p) or p < 3:
        raise ValueError(f"p={p} must be an odd prime")
    if (q + 1) % (p * d_prime) != 0:
        raise ValueError(f"p={p} does not divide (q+1)/{d_prime}")
    g = group.make(0, fq.neg(1), 1, setup.t)
    sigma = group.make(setup.beta, 0, 0, fq.inv(setup.beta))
    d = (q + 1) // (p * d_prime)
    a = group.power(g, d)
    for name, m, n in (("g", g, (q + 1) // d_prime), ("sigma", sigma, (q - 1) // d_prime),
                       ("a", a, p)):
        if not group.has_order(m, n):
            raise InvariantViolated(f"q={q}: {name} does not have order {n}")
    return CanonicalGenerators(
        setup=setup, group=group, p=p, d=d, d_prime=d_prime,
        g=g, sigma=sigma, a=a,
    )
