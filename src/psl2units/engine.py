"""Batched evaluation of the companion condition, and exact surveys over
the double cosets of T = <g> (odd q).

The condition, its two orbit sums and the balance verdict are constant on
each double coset T h T (|T| = (q+1)/2), and G - D splits into 2q - 4 of
them, each of |T|^2 elements.  The Cayley map h -> w = (h(xi) - xi) /
(h(xi) - xi^q) (xi the fixed point of g in F_{q^2}) turns them into
classes of F_{q^2}*, so a survey builds one row per class from a
primitive element of F_{q^2}, checks that each row's Cayley image is its
w, and evaluates both verdicts on the rows in one pass, weighted by
|T|^2.  The same map decides D, the normaliser of T: h lies in D exactly
when h(xi) is xi or xi^q.  ``first_h`` is found by running the condition
on the enumeration of G - D until a row is satisfied, which is the first
satisfied element because the verdict is constant on double cosets.

The verdicts are the row functions of ``criteria`` applied to Moebius
rows, which ``projective.mobius`` builds as it does for ``perm_array``.
Everything is vectorized with numpy over the field's own array ops
(``add_array``, ``mul_array``, ``inv_array``) and a length-q negation
row, so the engine holds O(q) arrays; F_{q^2} elements are (lo, hi)
pairs in the basis of ``QuadraticExtension``.  Surveys are bit-identical
to a full enumeration of G - D (in the tests); they evaluate CHUNK_ROWS
rows at a time, so their per-batch arrays do not grow with the row count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Optional

import numpy as np

from .criteria import orbit_layers, orbit_sums, verdicts
from .errors import InvariantViolated
from .orbits import OrbitTable
from .projective import CanonicalGenerators, Element, mobius

CHUNK_ROWS = 256  # rows a survey evaluates in one batch


@dataclass
class Survey:
    """Exact counts over G - D, summed over the <g>-double cosets.

    ``satisfied`` counts h meeting the orbit-sum condition; ``unbalanced``
    counts h with an unbalanced shift, which are exactly the h whose
    bicyclic unit the exact certificate accepts as a free companion.
    ``first_h`` is the first satisfied element in enumeration order and
    ``first_tries`` its position among the elements of G - D.
    """

    total: int             # |G - D|
    satisfied: int
    unbalanced: int
    first_h: Optional[Element]
    first_tries: int       # elements of G - D up to and including first_h


class ConditionEngine:
    """Vectorized companion-condition evaluation bound to one (q, p), q odd."""

    def __init__(self, gens: CanonicalGenerators, tab: OrbitTable):
        self.gens = gens
        self.tab = tab
        self.q = q = gens.q
        if q % 2 == 0:
            raise ValueError("the condition engine is defined for odd q")
        self.fq = fq = gens.group.fq
        self._enc = e = np.arange(q, dtype=np.int64)
        self.neg = fq.mul_array(fq.neg(1), e)
        # xi = -alpha is the root of X^2 + tX + 1 in F_{q^2}, the fixed point
        # of g = (0, -1, 1, t); the Cayley map about xi turns <g> into
        # multiplication by the subgroup of order (q+1)/2 of F_{q^2}*
        fq2 = gens.setup.fq2
        self._c = fq2.c
        self._xi = fq2.neg(gens.setup.alpha)
        self._xi_q = fq2.frobenius(self._xi)

    # -- vectorized primitives ------------------------------------------

    def mobius_batch(self, mats: np.ndarray) -> np.ndarray:
        """Point-index permutation arrays, one row per matrix: ``perm_array``'s
        Moebius function on a column per matrix entry."""
        fq = self.fq
        return mobius(fq.add_array, fq.mul_array, fq.inv_array, mats.T[:, :, None],
                      *self.gens.group.coords)

    def in_dihedralizer_batch(self, mats: np.ndarray) -> np.ndarray:
        """Boolean mask: h g h^-1 lands in {g, g^-1}, that is h(xi) is xi or
        xi^q, since D is the stabiliser of the fixed points of g."""
        near, far = self._cayley(mats)
        return ((near[0] == 0) & (near[1] == 0)) | ((far[0] == 0) & (far[1] == 0))

    def condition_batch(self, mats: np.ndarray):
        """(lhs != rhs, lhs, rhs) of the companion condition, per row."""
        return orbit_sums(*orbit_layers(self.tab, self.mobius_batch(mats)))

    def criteria_batch(self, mats: np.ndarray):
        """(lhs != rhs, lhs, rhs, unbalanced) per row, from one Moebius pass.

        ``unbalanced`` matches ``criteria.criterion_report(...).unbalanced``,
        the verdict of the exact certificate for h outside D.
        """
        return verdicts(*orbit_layers(self.tab, self.mobius_batch(mats)))

    # -- F_{q^2} and the Cayley map ---------------------------------------

    def _ext_mul(self, u, v):
        """Product in F_{q^2} (omega^2 = c) of (lo, hi) pairs of encoding
        arrays or scalars."""
        add, mul = self.fq.add_array, self.fq.mul_array
        return (add(mul(u[0], v[0]), mul(self._c, mul(u[1], v[1]))),
                add(mul(u[0], v[1]), mul(u[1], v[0])))

    def _ext_sub(self, u, v):
        add = self.fq.add_array
        return add(u[0], self.neg[v[0]]), add(u[1], self.neg[v[1]])

    def _ext_div(self, u, v):
        """u / v = u * v^q / N(v) in F_{q^2}."""
        add, mul, neg = self.fq.add_array, self.fq.mul_array, self.neg
        norm_inv = self.fq.inv_array(add(mul(v[0], v[0]), neg[mul(self._c, mul(v[1], v[1]))]))
        u = self._ext_mul(u, (v[0], neg[v[1]]))
        return mul(u[0], norm_inv), mul(u[1], norm_inv)

    def _cayley(self, mats):
        """(near, far) per row, pairs (u0, u1) for u0 + u1 xi, with
        h(xi) - xi = near/den and h(xi) - xi^q = far/den for
        h(xi) = (a xi + b)/(c xi + d): since xi^2 = -t xi - 1 and
        xi^q = -t - xi, both are linear in h.  The Cayley image of h is
        w = near/far, and h lies in D exactly when near or far is 0."""
        add, mul, neg = self.fq.add_array, self.fq.mul_array, self.neg
        a, b, c, d = mats.T
        t = self.gens.setup.t
        return ((add(b, c), add(add(a, neg[d]), mul(c, t))),
                (add(add(b, neg[c]), mul(d, t)), add(a, d)))

    # -- double cosets of <g> ---------------------------------------------

    def _representatives(self):
        """One row per double coset T h T of G - D.

        The Cayley images of G - D are F_{q^2}* minus the norm-1 group,
        modulo the subgroup of order (q+1)/2: 2q - 4 classes, met once each
        by w = gamma^i (gamma primitive, 0 < i < 2q - 2, i != q - 1).  Rows
        must have determinant 1 and Cayley image w: near = w * far, where
        near - far = (xi^q - xi)(c xi + d) is nonzero, so neither is 0 and
        the row lies outside D.
        """
        q = self.q
        fq, fq2 = self.fq, self.gens.setup.fq2
        gamma = next(u for u in map(fq2.from_encoding, range(q, q * q))
                     if fq2.element_order(u) == q * q - 1)
        w = list(accumulate(repeat(gamma, 2 * q - 3), fq2.mul, initial=fq2.one))
        w = tuple(np.array(w[1:q - 1] + w[q:]).T)
        rows = self._cayley_rows(w)
        a, b, c, d = rows.T
        x0, x1 = self._xi  # u0 + u1 xi = (u0 + u1 x0, u1 x1) in the basis of fq2
        near, far = ((fq.add_array(u0, fq.mul_array(u1, x0)), fq.mul_array(u1, x1))
                     for u0, u1 in self._cayley(rows))
        image = self._ext_mul(w, far)
        if ((fq.add_array(fq.mul_array(a, d), self.neg[fq.mul_array(b, c)]) != 1).any()
                or (near[0] != image[0]).any() or (near[1] != image[1]).any()):
            raise InvariantViolated(f"q={q}: the rows built for G - D are not {2 * q - 4} "
                                    "elements of distinct double cosets of <g>")
        return rows

    def _cayley_rows(self, w):
        """Rows h of G with h(xi) = z, the point of Cayley image w.

        z = (xi - w xi^q)/(1 - w) = x + y xi, y != 0 as z lies off F_q, and
        h = (x + y(d - t), x d - y; 1, d) / sqrt(y(d^2 - t d + 1)), with d
        the first encoding that makes the determinant a (nonzero) square.
        """
        fq, neg, e = self.fq, self.neg, self._enc
        add, mul, inv = fq.add_array, fq.mul_array, fq.inv_array
        z = self._ext_div(self._ext_sub(self._xi, self._ext_mul(w, self._xi_q)),
                          self._ext_sub((1, 0), w))
        y = mul(z[1], inv(self._xi[1]))
        x = add(z[0], neg[mul(y, self._xi[0])])
        t = self.gens.setup.t
        root = fq.square_roots  # nonzero exactly at the nonzero squares
        nd = add(add(mul(e, e), neg[mul(t, e)]), 1)  # d^2 - t d + 1
        d = np.where(root[y] > 0, np.argmax(root[nd] > 0), np.argmax(root[nd] == 0))
        s = inv(root[mul(y, nd[d])])
        a = add(x, mul(y, add(d, neg[t])))
        b = add(mul(x, d), neg[y])
        return np.stack([mul(a, s), mul(b, s), s, mul(d, s)], axis=1)

    # -- enumeration ------------------------------------------------------

    def _half_rows(self):
        units = self.gens.group._half_units()
        for c in units:
            for d in range(self.q):
                yield c, d
        for d in units:
            yield 0, d

    def enumerate_batches(self):
        """Batches of determinant-1 matrices, each PSL element exactly once.

        Each batch holds the q rows of one bottom row (c, d); exactly one of
        the pair {(c, d), (-c, -d)} is used, so {M, -M} is never emitted twice.
        """
        fq, q = self.fq, self.q
        for c, d in self._half_rows():
            if c != 0:
                a = self._enc
                b = fq.mul_array(fq.add_array(fq.mul_array(a, d), fq.neg(1)), fq.inv(c))
            else:
                b = self._enc
                a = np.full(q, fq.inv(d), dtype=np.int64)
            yield np.stack([a, b, np.full(q, c, dtype=np.int64),
                            np.full(q, d, dtype=np.int64)], axis=1)

    def _first_satisfied(self):
        """(first_h, first_tries): the condition on the enumeration of G - D,
        CHUNK_ROWS rows at a time, up to its first satisfied row."""
        tries = 0
        for mats in self.enumerate_batches():
            mats = mats[~self.in_dihedralizer_batch(mats)]
            for i in range(0, mats.shape[0], CHUNK_ROWS):
                ok = self.condition_batch(mats[i:i + CHUNK_ROWS])[0]
                if ok.any():
                    j = int(ok.argmax())
                    h = self.gens.group.normalize(tuple(int(x) for x in mats[i + j]))
                    return h, tries + j + 1
                tries += ok.shape[0]
        raise InvariantViolated(f"q={self.q}: the enumeration of G - D misses "
                                "a satisfied double coset of <g>")

    def survey(self) -> Survey:
        """Both verdicts on one row per double coset, weighted by |T|^2.

        ``first_h`` and ``first_tries`` come from the enumeration, which is
        read only when some double coset is satisfied.
        """
        reps = self._representatives()
        parts = [self.criteria_batch(reps[i:i + CHUNK_ROWS])
                 for i in range(0, len(reps), CHUNK_ROWS)]
        ok, _, _, unbalanced = (np.concatenate(out) for out in zip(*parts))
        weight = ((self.q + 1) // 2) ** 2
        first_h, first_tries = self._first_satisfied() if ok.any() else (None, 0)
        return Survey(total=len(reps) * weight, satisfied=int(ok.sum()) * weight,
                      unbalanced=int(unbalanced.sum()) * weight,
                      first_h=first_h, first_tries=first_tries)
