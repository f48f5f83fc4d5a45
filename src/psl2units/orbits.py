"""Orbit decomposition of the projective line under g and a = g^d.

The table fixes, once per (q, p), the layout every criterion and the
exact certificate read point values through, as numpy arrays over the
point indices: g's inverse permutation, the label 1 + i of the g-orbit
O_i holding each point (O_0 is the one through infinity), and the d'*d
a-orbits laid end to end in ``order_idx``, p points each.  ``rows``
reads values along them as (..., orbit, power).  The a-orbits come
g-orbit by g-orbit, the one through g^j(start) j-th, and each is in
a-power order from its minimal point z: a^b(z) sits at power b.

``build_orbits`` walks the g-orbits by doubling, with no per-point Python
step.  The walks are compositions of g's row, so the a-orbit rows are the
orbits of g^d in its power order by construction; that a is g^d is
checked on three points, which decides it, since two distinct elements
of PGL(2, q) agree on at most two points.  For odd q, g = (0, -1; 1, t)
keeps the norm form x^2 + t x y + y^2, so O_0 is the points where the
form is a nonzero square: [x : 1] lies on it iff x^2 + t x + 1 is one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolated
from .projective import CanonicalGenerators


@dataclass(eq=False)
class OrbitTable:
    gens: CanonicalGenerators
    perm_g_inv: np.ndarray               # point -> g^-1(point)
    glabel: np.ndarray                   # point -> 1 + i, int8
    order_idx: np.ndarray                # the a-orbits end to end, in a-power order

    def rows(self, values: np.ndarray) -> np.ndarray:
        """values[..., x] read along the a-orbits: entry (..., o, b) is the
        value at a^b(z) for the minimal point z of the o-th a-orbit."""
        return values[..., self.order_idx].reshape(values.shape[:-1] + (-1, self.gens.p))


def build_orbits(gens: CanonicalGenerators) -> OrbitTable:
    """The orbit table of ``gens``.  Once a walk holds g^j(start) for
    j < m = 2^k, the row of g^(2^k) maps them onto j = m..2m-1; the int32
    rows, each the last composed with itself, are built once for all the
    walks, so a walk takes O(log(p d)) gathers.

    The walks are compositions of g's row, so the a-orbit rows are the
    orbits of g^d in its power order, and a steps one place along each of
    them iff a = g^d.  Both are elements of PGL(2, q), and two distinct
    ones agree on at most two points, so a is checked on three points of
    one a-orbit.  Broken orbits raise ``InvariantViolated``."""
    q = gens.q
    p, d, d_prime = gens.p, gens.d, gens.d_prime
    n = q + 1
    orbit_len = p * d
    steps = [gens.group.perm_array(gens.g).astype(np.int32)]  # int32 halves the rows

    # walk g from the first point not yet seen (INF comes first)
    walks: list[np.ndarray] = []
    seen = np.zeros(n, dtype=bool)
    while not seen.all() and len(walks) <= d_prime:
        start = int(seen.argmin())
        walk = np.empty(orbit_len, dtype=np.int64)
        walk[0] = start
        filled, k = 1, 0
        while filled < orbit_len:
            if k == len(steps):
                steps.append(steps[-1][steps[-1]])
            m = min(filled, orbit_len - filled)
            walk[filled:filled + m] = steps[k][walk[:m]]
            filled, k = filled + m, k + 1
        if steps[0][walk[-1]] != start:
            raise InvariantViolated(f"q={q}: g-orbit through {start} is not of length {orbit_len}")
        seen[walk] = True
        walks.append(walk)
    if len(walks) != d_prime:
        raise InvariantViolated(f"q={q}: g has {len(walks)} orbits, expected {d_prime}")
    walks = np.stack(walks)
    if (np.bincount(walks.reshape(-1), minlength=n) != 1).any():
        raise InvariantViolated(f"q={q}: the a-orbits do not cover every point exactly once")

    # walk[b d + j] = a^b(g^j(start)): the a-orbit through g^j(start) is
    # walk[j::d], read in one gather from its minimal point on
    first = walks.reshape(d_prime, p, d).argmin(axis=1) * d + np.arange(d)
    cols = (first[..., None] + np.arange(0, orbit_len, d)) % orbit_len
    order_idx = walks[np.arange(d_prime)[:, None, None], cols].reshape(-1)
    orbit = order_idx[:p].tolist()
    if any(gens.group.apply(gens.a, orbit[b]) != orbit[(b + 1) % p] for b in range(3)):
        raise InvariantViolated(f"q={q}: a does not step one place along every a-orbit")

    glabel = np.empty(n, dtype=np.int8)
    glabel[order_idx] = 1 + np.arange(n) // orbit_len
    perm_g_inv = np.empty(n, dtype=np.int64)
    perm_g_inv[steps[0]] = np.arange(n)
    return OrbitTable(gens=gens, perm_g_inv=perm_g_inv, glabel=glabel, order_idx=order_idx)
