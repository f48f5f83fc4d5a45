"""Batched evaluation of the companion condition, and exact surveys over
the norm classes of G - D (odd q).

The Cayley map h -> w = (h(xi) - xi) / (h(xi) - xi^q), xi the fixed point
of g = (0, -1; 1, t) in F_{q^2}, sends G - D onto F_{q^2}* minus the
norm-1 group N_1 (h(xi) lies off F_q exactly when N(w) != 1), and the
same map decides D, the normaliser of T = <g>: h lies in D exactly when
h(xi) is xi or xi^q.  Both verdicts depend on h only through the pair
{nu, 1/nu}, nu = N(w) in F_q*, by three symmetries:

* h -> c h c' (c, c' in T) multiplies w by the subgroup H of order
  (q+1)/2 = |T| of N_1, so the verdicts, constant on double cosets, are
  functions of w H;
* (i) h -> tau h tau, tau in the full non-split torus of PGL(2, q) but
  not in T, multiplies w by an element of N_1 - H.  tau swaps O_0 and O_1
  and commutes with g and a, so the triple counts m[b][i][j][k] =
  |h a^b h^-1(O_i) n h(O_j) n g h(O_k)| become m[b][1-i][1-j][1-k], and
  D_b = m[b][0][0][1] - m[b][0][1][0] becomes minus the family with first
  index 1, which is D_b itself since the cross total vanishes: each D_b
  keeps its sign.  With the double cosets the verdicts are functions of
  w N_1, that is of nu;
* (ii) h -> h s, s a reflection in D: s a s^-1 = a^-1 and s fixes or
  swaps O_0 and O_1, so D_b becomes +D_-b or -D_-b, and h s (xi) =
  h(xi)^q gives w(h s) = w^-q, so nu becomes 1/nu.

So sum_b D_b != 0 (lhs != rhs) and "some D_b + D_-b != 0" (unbalanced)
are constant on each norm class {nu, 1/nu}; nu != 1 on G - D, so there
are (q-1)/2 classes: nu = delta^i for 0 < i <= (q-1)/2, delta = N(gamma),
gamma the first generator of F_{q^2}* in encoding order.  A class is
four H-classes (w = gamma^i, gamma^(i+q-1), gamma^-i, gamma^(q-1-i)) of
|T|^2 elements each, and two at nu = -1 (i = (q-1)/2).  A survey builds
one row per class, with Cayley image gamma^i, checks that each row has
determinant 1 and that image, evaluates both verdicts on the rows in
one pass, and weights them by 4 |T|^2 (2 |T|^2 at nu = -1).  The same
pass evaluates gamma's three partners gamma^-1, gamma^q and gamma^(q-2),
and their verdicts must equal gamma's.  gamma comes from
``QuadraticExtension.first_primitive``, an exact test on norms and
traces in F_q, so it is the element a scan by element orders in F_{q^2}
picks and the rows cannot change with the test.  ``first_h`` is the
first row of the enumeration of G - D whose nu the class table marks
satisfied; nu is read off the same Cayley pair that decides D.

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
    """Exact counts over G - D, summed over the (q-1)/2 norm classes.

    ``satisfied`` counts h meeting the orbit-sum condition; ``unbalanced``
    counts h with an unbalanced shift, which are exactly the h whose
    bicyclic unit the exact certificate accepts as a free companion.
    ``first_h`` is the first satisfied element in enumeration order and
    ``first_tries`` its position among the elements of G - D.

    Both verdicts are constant on the norm class {nu, 1/nu} of h, nu the
    norm of its Cayley image w: h -> tau h tau (tau in the full non-split
    torus, outside T) keeps each D_b and multiplies w by N_1 - H, and
    h -> h s (s a reflection in D) sends D_b to +D_-b or -D_-b and nu to
    1/nu (the module docstring has the details).  The class of nu != -1
    holds 4 |T|^2 elements and that of -1 holds 2 |T|^2, |T| = (q+1)/2, so
    one row per class gives exact counts.
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
        return self._in_d(*self._cayley(mats))

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

    @staticmethod
    def _in_d(near, far):
        """h lies in D exactly when its near or far Cayley pair is 0."""
        return ((near[0] == 0) & (near[1] == 0)) | ((far[0] == 0) & (far[1] == 0))

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

    def _norm_ratio(self, near, far):
        """nu = N(near) / N(far) per row, for Cayley pairs with far != 0:
        N(u0 + u1 xi) = u0^2 - t u0 u1 + u1^2, as xi + xi^q = -t and
        xi^(q+1) = 1."""
        add, mul, neg, t = self.fq.add_array, self.fq.mul_array, self.neg, self.gens.setup.t

        def norm(u):
            return add(mul(u[0], add(u[0], neg[mul(t, u[1])])), mul(u[1], u[1]))

        return mul(norm(near), self.fq.inv_array(norm(far)))

    # -- norm classes of G - D --------------------------------------------

    def _representatives(self):
        """(rows, nu): one row per norm class of G - D, then gamma's partners.

        Row i - 1 has Cayley image w = gamma^i for 0 < i <= (q-1)/2, whose
        norms delta^i meet each class {nu, 1/nu} once; the last three rows
        have images gamma^-1, gamma^q (the Frobenius image) and gamma^(q-2)
        = gamma^q gamma^-2, the other three H-classes of gamma's norm class.
        Rows must have determinant 1 and Cayley image w: near = w * far,
        where near - far = (xi^q - xi)(c xi + d) is nonzero, so neither is 0
        and the row lies outside D.
        """
        q = self.q
        fq, fq2 = self.fq, self.gens.setup.fq2
        gamma = fq2.first_primitive()
        w = list(accumulate(repeat(gamma, (q - 3) // 2), fq2.mul, initial=gamma))
        inv, frob = fq2.inv(gamma), fq2.frobenius(gamma)
        w = tuple(np.array(w + [inv, frob, fq2.mul(frob, fq2.mul(inv, inv))]).T)
        rows = self._cayley_rows(w)
        a, b, c, d = rows.T
        x0, x1 = self._xi  # u0 + u1 xi = (u0 + u1 x0, u1 x1) in the basis of fq2
        pairs = self._cayley(rows)
        near, far = ((fq.add_array(u0, fq.mul_array(u1, x0)), fq.mul_array(u1, x1))
                     for u0, u1 in pairs)
        image = self._ext_mul(w, far)
        if ((fq.add_array(fq.mul_array(a, d), self.neg[fq.mul_array(b, c)]) != 1).any()
                or (near[0] != image[0]).any() or (near[1] != image[1]).any()):
            raise InvariantViolated(f"q={q}: the rows built for G - D are not {len(rows)} "
                                    "elements of distinct double cosets of <g>")
        return rows, self._norm_ratio(*pairs)

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

    def _first_satisfied(self, satisfied_nu):
        """(first_h, first_tries): the first row of the enumeration of G - D
        whose nu the length-q table ``satisfied_nu`` marks satisfied."""
        tries = 0
        for mats in self.enumerate_batches():
            near, far = self._cayley(mats)
            out = ~self._in_d(near, far)
            ok = satisfied_nu[self._norm_ratio((near[0][out], near[1][out]),
                                               (far[0][out], far[1][out]))]
            if ok.any():
                j = int(ok.argmax())
                h = self.gens.group.normalize(tuple(int(x) for x in mats[out][j]))
                return h, tries + j + 1
            tries += ok.shape[0]
        raise InvariantViolated(f"q={self.q}: the enumeration of G - D misses "
                                "a satisfied norm class")

    def survey(self) -> Survey:
        """Both verdicts on one row per norm class, weighted by its size.

        gamma's three partners must share gamma's verdicts, else
        InvariantViolated.  ``first_h`` and ``first_tries`` come from the
        enumeration, which is read only when some class is satisfied.
        """
        q = self.q
        reps, nu = self._representatives()
        parts = [self.criteria_batch(reps[i:i + CHUNK_ROWS])
                 for i in range(0, len(reps), CHUNK_ROWS)]
        ok, _, _, unbalanced = (np.concatenate(out) for out in zip(*parts))
        half = (q - 1) // 2
        if (ok[half:] != ok[0]).any() or (unbalanced[half:] != unbalanced[0]).any():
            raise InvariantViolated(f"q={q}: gamma^-1, gamma^q or gamma^(q-2) has other "
                                    "verdicts than gamma, in the same norm class")
        ok, unbalanced, nu = ok[:half], unbalanced[:half], nu[:half]
        weight = np.full(half, 4, dtype=np.int64)
        weight[-1] = 2  # nu = -1 is its own inverse
        size = ((q + 1) // 2) ** 2  # |T|^2, one H-class
        first_h, first_tries = None, 0
        if ok.any():
            satisfied_nu = np.zeros(q, dtype=bool)
            satisfied_nu[nu] = satisfied_nu[self.fq.inv_array(nu)] = ok
            first_h, first_tries = self._first_satisfied(satisfied_nu)
        return Survey(total=int(weight.sum()) * size, satisfied=int(weight[ok].sum()) * size,
                      unbalanced=int(weight[unbalanced].sum()) * size,
                      first_h=first_h, first_tries=first_tries)
