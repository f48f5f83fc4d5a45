"""Batched evaluation of the companion condition, and exact surveys over
the double cosets of T = <g>.

The condition, its two orbit sums and the balance verdict are constant on
each double coset T h T (|T| = (q+1)/2 for odd q), and G - D splits into
2q - 4 of them, each of |T|^2 elements.  The Cayley map of h(xi) (xi the
fixed point of g in F_{q^2}) turns them into classes of F_{q^2}*, so a
survey or census builds one row per class from a primitive element of
F_{q^2}, checks the rows by their keys and evaluates them, weighted by
|T|^2.  The verdicts are the row functions of ``criteria`` applied to
Moebius rows, which ``projective.mobius`` builds as it does for
``perm_array``; those rows, the D membership test and the double-coset
keys are vectorized with numpy over q x q add and mul tables and
length-q inv and neg tables, each computed once by the field's own array
ops (``add_array``, ``mul_array``, ``inv_array``); F_{q^2} elements are
(lo, hi) pairs in the basis of ``QuadraticExtension``.  Surveys and
censuses are bit-identical to a full enumeration of G - D (in the tests);
they evaluate CHUNK_ROWS rows at a time, so their per-batch arrays do not
grow with the row count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Optional

import numpy as np

from .criteria import orbit_layers, orbit_sums, shift_sums
from .errors import InvariantViolated
from .orbits import OrbitTable
from .projective import CanonicalGenerators, Element, mobius

CHUNK_ROWS = 256  # rows a survey or census evaluates in one batch


def _in_chunks(batch, rows):
    """``batch`` over CHUNK_ROWS rows at a time, its outputs concatenated,
    so that its (rows x points) arrays stay bounded as q grows."""
    parts = [batch(rows[i:i + CHUNK_ROWS]) for i in range(0, len(rows), CHUNK_ROWS)]
    return [np.concatenate(out) for out in zip(*parts)]


@dataclass
class Survey:
    """Exact satisfied count over G - D, summed over the <g>-double cosets.

    ``first_h`` is the first satisfied element in enumeration order and
    ``first_tries`` its position among the elements of G - D.
    """

    total: int             # |G - D|
    satisfied: int
    first_h: Optional[Element]
    first_tries: int       # elements of G - D up to and including first_h


@dataclass
class Census:
    """Exact counts over G - D, summed over the <g>-double cosets.

    ``orbit_sum`` counts h meeting the orbit-sum condition; ``unbalanced``
    counts h with an unbalanced shift, which are exactly the h whose
    bicyclic unit the exact certificate accepts as a free companion.
    """

    total: int
    orbit_sum: int
    unbalanced: int


class ConditionEngine:
    """Vectorized companion-condition evaluation bound to one (q, p)."""

    def __init__(self, gens: CanonicalGenerators, tab: OrbitTable):
        self.gens = gens
        self.tab = tab
        group = gens.group
        fq = group.fq
        self.q = q = gens.q
        # the field's array ops on every pair of encodings; inv[0] is a junk
        # slot, masked where a denominator may vanish
        self._enc = e = np.arange(q, dtype=np.int64)
        self.add = fq.add_array(e[:, None], e)
        self.mul = fq.mul_array(e[:, None], e)
        self.inv = fq.inv_array(e)
        self.neg = fq.mul_array(fq.neg(1), e)

        g = gens.g
        ginv = group.inverse(g)
        targets = {g, ginv}
        if group.d_prime == 2:
            neg = fq.neg
            targets.add(tuple(neg(e) for e in g))
            targets.add(tuple(neg(e) for e in ginv))
        self._dihedral_targets = [np.array(t, dtype=np.int64) for t in targets]
        # xi = -alpha is the root of X^2 + tX + 1 in F_{q^2}, the fixed point
        # of g = (0, -1, 1, t); the Cayley map about xi turns <g> into
        # multiplication by the subgroup of order (q+1)/2 of F_{q^2}*
        fq2 = gens.setup.fq2
        self._xi = fq2.neg(gens.setup.alpha)
        self._xi_q = fq2.frobenius(self._xi)
        self._mul_c = self.mul[fq2.c]

    # -- vectorized primitives ------------------------------------------

    def mobius_batch(self, mats: np.ndarray) -> np.ndarray:
        """Point-index permutation arrays, one row per matrix: ``perm_array``'s
        Moebius function on table gathers."""
        add, mul = self.add, self.mul
        return mobius(lambda x, y: add[x, y], lambda x, y: mul[x, y], self.inv.__getitem__,
                      mats.T[:, :, None], *self.gens.group.coords)

    def in_dihedralizer_batch(self, mats: np.ndarray) -> np.ndarray:
        """Boolean mask: h g h^-1 lands in {g, g^-1} (up to sign)."""
        add, mul = self.add, self.mul
        g11, g12, g21, g22 = self.gens.g
        a, b, c, d = (mats[:, i] for i in range(4))
        neg_b = self.neg[b]  # h^-1 = (d, -b, -c, a) for det 1
        neg_c = self.neg[c]
        # t = h * g
        t11 = add[mul[a, g11], mul[b, g21]]
        t12 = add[mul[a, g12], mul[b, g22]]
        t21 = add[mul[c, g11], mul[d, g21]]
        t22 = add[mul[c, g12], mul[d, g22]]
        # m = t * h^-1
        m11 = add[mul[t11, d], mul[t12, neg_c]]
        m12 = add[mul[t11, neg_b], mul[t12, a]]
        m21 = add[mul[t21, d], mul[t22, neg_c]]
        m22 = add[mul[t21, neg_b], mul[t22, a]]
        out = np.zeros(mats.shape[0], dtype=bool)
        for t in self._dihedral_targets:
            out |= (m11 == t[0]) & (m12 == t[1]) & (m21 == t[2]) & (m22 == t[3])
        return out

    def condition_batch(self, mats: np.ndarray):
        """(lhs != rhs, lhs, rhs) of the companion condition, per row."""
        return orbit_sums(self.tab, *orbit_layers(self.tab, self.mobius_batch(mats)))

    def criteria_batch(self, mats: np.ndarray):
        """(lhs != rhs, lhs, rhs, unbalanced) per row, from one Moebius pass.

        ``unbalanced`` matches ``criteria.criterion_report(...).unbalanced``,
        the verdict of the exact certificate for h outside D.
        """
        layers = orbit_layers(self.tab, self.mobius_batch(mats))
        differs, lhs, rhs = orbit_sums(self.tab, *layers)
        return differs, lhs, rhs, shift_sums(self.tab, *layers).any(axis=-1)

    # -- double cosets of <g> ---------------------------------------------

    def _ext_mul(self, u, v):
        """Product in F_{q^2} (q odd, omega^2 = c) of (lo, hi) pairs of
        encoding arrays or scalars."""
        add, mul = self.add, self.mul
        return (add[mul[u[0], v[0]], self._mul_c[mul[u[1], v[1]]]],
                add[mul[u[0], v[1]], mul[u[1], v[0]]])

    def _ext_sub(self, u, v):
        return self.add[u[0], self.neg[v[0]]], self.add[u[1], self.neg[v[1]]]

    def _ext_div(self, u, v):
        """u / v = u * v^q / N(v) in F_{q^2} (q odd)."""
        mul, neg = self.mul, self.neg
        norm = self.add[mul[v[0], v[0]], neg[self._mul_c[mul[v[1], v[1]]]]]
        u = self._ext_mul(u, (v[0], neg[v[1]]))
        return mul[u[0], self.inv[norm]], mul[u[1], self.inv[norm]]

    def coset_keys(self, mats: np.ndarray) -> np.ndarray:
        """kappa(h) = w^((q+1)/2), w = (h(xi) - xi)/(h(xi) - xi^q), per row.

        h -> h(xi) identifies G/T with the points of P^1(F_{q^2}) off
        P^1(F_q), and T acts on w by the subgroup of order (q+1)/2 of
        F_{q^2}*, the kernel of x -> x^((q+1)/2); so rows share a key
        exactly when they share a double coset T h T.  Rows must lie
        outside D (q odd), where w is finite and nonzero.  Keys are
        encoded as lo + q * hi.
        """
        add, mul = self.add, self.mul
        a, b, c, d = (mats[:, i] for i in range(4))
        x0, x1 = self._xi
        num = (add[mul[a, x0], b], mul[a, x1])  # h(xi) = num / den
        den = (add[mul[c, x0], d], mul[c, x1])
        w = self._ext_div(self._ext_sub(num, self._ext_mul(den, self._xi)),
                          self._ext_sub(num, self._ext_mul(den, self._xi_q)))
        e = (self.q + 1) // 2
        key = (np.ones_like(a), np.zeros_like(a))
        while e:
            if e & 1:
                key = self._ext_mul(key, w)
            w = self._ext_mul(w, w)
            e >>= 1
        return key[0] + self.q * key[1]

    def _representatives(self):
        """One row per double coset T h T of G - D, and the rows' keys.

        The Cayley images of G - D are F_{q^2}* minus the norm-1 group,
        modulo the subgroup of order (q+1)/2: 2q - 4 classes, met once each
        by w = gamma^i (gamma primitive, 0 < i < 2q - 2, i != q - 1).  Rows
        must have determinant 1, lie outside D and have distinct keys.
        """
        q = self.q
        if q % 2 == 0:
            raise ValueError("double-coset surveys are defined for odd q")
        fq2 = self.gens.setup.fq2
        gamma = next(u for u in map(fq2.from_encoding, range(q, q * q))
                     if fq2.element_order(u) == q * q - 1)
        w = list(accumulate(repeat(gamma, 2 * q - 3), fq2.mul, initial=fq2.one))
        rows = self._cayley_rows(tuple(np.array(w[1:q - 1] + w[q:]).T))
        keys = self.coset_keys(rows)
        a, b, c, d = rows.T
        if ((self.add[self.mul[a, d], self.neg[self.mul[b, c]]] != 1).any()
                or self.in_dihedralizer_batch(rows).any() or len(set(keys.tolist())) != 2 * q - 4):
            raise InvariantViolated(f"q={q}: the rows built for G - D are not {2 * q - 4} "
                                    "elements of distinct double cosets of <g>")
        return rows, keys

    def _cayley_rows(self, w):
        """Rows h of G with h(xi) = z, the point of Cayley image w.

        z = (xi - w xi^q)/(1 - w) = x + y xi, y != 0 as z lies off F_q, and
        h = (x + y(d - t), x d - y; 1, d) / sqrt(y(d^2 - t d + 1)), with d
        the first encoding that makes the determinant a (nonzero) square.
        """
        add, mul, neg, inv, e = self.add, self.mul, self.neg, self.inv, self._enc
        z = self._ext_div(self._ext_sub(self._xi, self._ext_mul(w, self._xi_q)),
                          self._ext_sub((1, 0), w))
        y = mul[z[1], inv[self._xi[1]]]
        x = add[z[0], neg[mul[y, self._xi[0]]]]
        t = self.gens.setup.t
        root = np.zeros(self.q, dtype=np.int64)
        root[mul[e, e]] = e  # a square root of each square, nonzero off 0
        nd = add[add[mul[e, e], neg[mul[t, e]]], 1]  # d^2 - t d + 1
        d = np.where(root[y] > 0, np.argmax(root[nd] > 0), np.argmax(root[nd] == 0))
        s = inv[root[mul[y, nd[d]]]]
        a = add[x, mul[y, add[d, neg[t]]]]
        b = add[mul[x, d], neg[y]]
        return np.stack([mul[a, s], mul[b, s], s, mul[d, s]], axis=1)

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
        q = self.q
        for c, d in self._half_rows():
            if c != 0:
                a = self._enc
                b = self.mul[self.add[self.mul[a, d], self.neg[1]], self.inv[c]]
            else:
                b = self._enc
                a = np.full(q, self.inv[d], dtype=np.int64)
            yield np.stack([a, b, np.full(q, c, dtype=np.int64),
                            np.full(q, d, dtype=np.int64)], axis=1)

    def survey(self) -> Survey:
        """The condition on one row per double coset, weighted by |T|^2.

        ``first_h`` is the first row of the enumeration of G - D whose
        double coset is satisfied, found by reading coset keys only; it is
        the first satisfied element in enumeration order.
        """
        reps, keys = self._representatives()
        ok, _, _ = _in_chunks(self.condition_batch, reps)
        weight = ((self.q + 1) // 2) ** 2
        first_h, first_tries = None, 0
        wanted = set(keys[ok].tolist())
        for mats in self.enumerate_batches() if wanted else ():
            mats = mats[~self.in_dihedralizer_batch(mats)]
            i = next((i for i, k in enumerate(self.coset_keys(mats).tolist()) if k in wanted), -1)
            if i >= 0:
                first_h = self.gens.group.normalize(tuple(int(x) for x in mats[i]))
                first_tries += i + 1
                break
            first_tries += mats.shape[0]
        if wanted and first_h is None:
            raise InvariantViolated(f"q={self.q}: the enumeration of G - D misses "
                                    "a satisfied double coset of <g>")
        return Survey(total=len(reps) * weight, satisfied=int(ok.sum()) * weight,
                      first_h=first_h, first_tries=first_tries)

    def census(self) -> Census:
        """Orbit-sum and unbalanced counts over G - D, one row per double coset."""
        reps, _ = self._representatives()
        differs, _, _, unb = _in_chunks(self.criteria_batch, reps)
        weight = ((self.q + 1) // 2) ** 2
        return Census(total=len(reps) * weight, orbit_sum=int(differs.sum()) * weight,
                      unbalanced=int(unb.sum()) * weight)
