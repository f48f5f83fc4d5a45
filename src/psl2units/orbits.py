"""Orbit decomposition of the projective line under g and a = g^d.

The table fixes, once per (q, p), the layout every criterion and the
exact certificate read point values through, as numpy arrays over the
point indices: g's inverse permutation, the label 1 + i of the g-orbit
O_i holding each point (O_0 is the one through infinity), and the d'*d
a-orbits laid end to end in ``order_idx``, p points each.  ``rows``
reads values along them as (..., orbit, power).  The a-orbits come
g-orbit by g-orbit, the one through g^j(start) j-th, and each is in
a-power order from its minimal point z: a^b(z) sits at power b, which
``build_orbits`` checks against a's own row.
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
    q = gens.q
    p, d, d_prime = gens.p, gens.d, gens.d_prime
    perm_g = gens.group.perm_array(gens.g).tolist()  # walked one point at a time
    n = q + 1
    orbit_len = p * d

    # walk g from the first point not yet seen (INF comes first)
    walks: list[list[int]] = []
    seen = np.zeros(n, dtype=bool)
    while not seen.all() and len(walks) <= d_prime:
        start = int(seen.argmin())
        walk = [start]
        for _ in range(orbit_len - 1):
            walk.append(perm_g[walk[-1]])
        if perm_g[walk[-1]] != start:
            raise InvariantViolated(f"q={q}: g-orbit through {start} is not of length {orbit_len}")
        seen[walk] = True
        walks.append(walk)
    if len(walks) != d_prime:
        raise InvariantViolated(f"q={q}: g has {len(walks)} orbits, expected {d_prime}")

    # walk[b d + j] = a^b(g^j(start)): the a-orbit through g^j(start) is
    # row j of the transposed (p, d) block, rotated to its minimal point
    rows = np.array(walks, dtype=np.int64).reshape(d_prime, p, d).transpose(0, 2, 1)
    rows = rows.reshape(-1, p)
    shift = rows.argmin(axis=1)[:, None]
    rows = np.take_along_axis(rows, (shift + np.arange(p)) % p, axis=1)
    if (np.bincount(rows.reshape(-1), minlength=n) != 1).any():
        raise InvariantViolated(f"q={q}: the a-orbits do not cover every point exactly once")
    if not np.array_equal(gens.group.perm_array(gens.a)[rows], np.roll(rows, -1, axis=1)):
        raise InvariantViolated(f"q={q}: a does not step one place along every a-orbit")

    order_idx = rows.reshape(-1)
    glabel = np.empty(n, dtype=np.int8)
    glabel[order_idx] = 1 + np.arange(n) // orbit_len
    perm_g_inv = np.empty(n, dtype=np.int64)
    perm_g_inv[perm_g] = np.arange(n)
    return OrbitTable(gens=gens, perm_g_inv=perm_g_inv, glabel=glabel, order_idx=order_idx)
