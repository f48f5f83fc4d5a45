"""Orbit decomposition of the projective line under g and a = g^d.

The table fixes, once per (q, p), the data every criterion consumes:
the d' orbits of g (the one through infinity first), the d'*d orbits of
a inside them, a representative for each a-orbit (its minimal point in
the global point order), and the coordinates (i, j, b) of every point
x = a^b(z_ij).  It also holds the same layout as numpy arrays over the
point indices, which ``criteria`` reads point-permutation rows through:
g's inverse permutation, the g-orbit labels, the a-orbits laid end to
end and the cross label and sign of each a-orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolated
from .projective import CanonicalGenerators


@dataclass(eq=False)
class OrbitTable:
    gens: CanonicalGenerators
    g_orbits: list[list[int]]            # [i] -> points in g-iteration order
    a_orbits: list[list[list[int]]]      # [i][j][b] -> a^b(z_ij)
    reps: list[list[int]]                # [i][j] -> z_ij
    coords: list[tuple[int, int, int]]   # point -> (i, j, b)
    g_index: list[int]                   # point -> i
    perm_g_inv: np.ndarray               # point -> g^-1(point)
    glabel: np.ndarray                   # point -> 1 + i, int8
    in_o0: np.ndarray                    # point -> [point in O_0], int32
    order_idx: np.ndarray                # the a-orbits end to end, in a-power order
    starts: np.ndarray                   # offset of each a-orbit in order_idx
    blocks0: np.ndarray                  # a-orbits inside O_0
    blocks1: np.ndarray                  # a-orbits inside O_1
    cross_label: np.ndarray              # per a-orbit: 2 inside O_0, 1 inside O_1
    cross_sign: np.ndarray               # per a-orbit: +1 inside O_0, -1 inside O_1


def build_orbits(gens: CanonicalGenerators) -> OrbitTable:
    group = gens.group
    q = gens.q
    p, d, d_prime = gens.p, gens.d, gens.d_prime
    perm_g = group.perm_array(gens.g)
    n = q + 1
    orbit_len = p * d

    g_orbits: list[list[int]] = []
    g_index = [-1] * n
    for start in range(n):  # INF comes first in the point order
        if g_index[start] >= 0:
            continue
        i = len(g_orbits)
        orbit = []
        x = start
        for _ in range(orbit_len):
            orbit.append(x)
            g_index[x] = i
            x = perm_g[x]
        if x != start:
            raise InvariantViolated(f"q={q}: g-orbit through {start} is not of length {orbit_len}")
        g_orbits.append(orbit)
    if len(g_orbits) != d_prime:
        raise InvariantViolated(f"q={q}: g has {len(g_orbits)} orbits, expected {d_prime}")

    a_orbits: list[list[list[int]]] = []
    reps: list[list[int]] = []
    coords: list[tuple[int, int, int]] = [(-1, -1, -1)] * n
    for i, orbit in enumerate(g_orbits):
        row_orbits = []
        row_reps = []
        for j in range(d):
            # the a-orbit through g^j(start); a = g^d walks it in steps of d
            cycle = [orbit[(j + d * b) % orbit_len] for b in range(p)]
            z = min(cycle)
            shift = cycle.index(z)
            anchored = [cycle[(shift + b) % p] for b in range(p)]
            for b, pt in enumerate(anchored):
                coords[pt] = (i, j, b)
            row_orbits.append(anchored)
            row_reps.append(z)
        a_orbits.append(row_orbits)
        reps.append(row_reps)
    if any(c[0] < 0 for c in coords):
        raise InvariantViolated(f"q={q}: some point has no a-orbit coordinates")

    perm_g_inv = np.empty(n, dtype=np.int64)
    perm_g_inv[perm_g] = np.arange(n)
    g_idx = np.array(g_index)
    iblocks = np.repeat(np.arange(d_prime), d)  # the g-orbit of each a-orbit
    # a-orbits of O_0 look for g^h(O_1) (label 2) and count +1; a-orbits of
    # O_1 look for g^h(O_0) (label 1) and count -1
    return OrbitTable(gens=gens, g_orbits=g_orbits, a_orbits=a_orbits,
                      reps=reps, coords=coords, g_index=g_index,
                      perm_g_inv=perm_g_inv, glabel=(1 + g_idx).astype(np.int8),
                      in_o0=(g_idx == 0).astype(np.int32),
                      order_idx=np.array(a_orbits, dtype=np.int64).reshape(-1),
                      starts=np.arange(0, n, p),
                      blocks0=np.flatnonzero(iblocks == 0),
                      blocks1=np.flatnonzero(iblocks == 1),
                      cross_label=np.where(iblocks == 0, 2, 1).astype(np.int8)[:, None],
                      cross_sign=np.where(iblocks == 0, 1, -1).astype(np.int8)[:, None])
