"""Orbit decomposition of the projective line under g and a = g^d.

The table fixes, once per (q, p), the data every criterion consumes:
the d' orbits of g (the one through infinity first), the d'*d orbits of
a inside them, a representative for each a-orbit (its minimal point in
the global point order), and the coordinates (i, j, b) of every point
x = a^b(z_ij).  Point sets are bitmasks over the point indices, so
image and intersection cardinalities are popcounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantViolated
from .projective import CanonicalGenerators


def mask_of(points) -> int:
    m = 0
    for pt in points:
        m |= 1 << pt
    return m


def points_of(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def intersect_count(m1: int, m2: int) -> int:
    return (m1 & m2).bit_count()


def image_points(perm: list[int], points) -> int:
    """Image mask of a point list under a permutation array."""
    out = 0
    for pt in points:
        out |= 1 << perm[pt]
    return out


@dataclass
class OrbitTable:
    gens: CanonicalGenerators
    g_orbits: list[list[int]]            # [i] -> points in g-iteration order
    a_orbits: list[list[list[int]]]      # [i][j][b] -> a^b(z_ij)
    reps: list[list[int]]                # [i][j] -> z_ij
    coords: list[tuple[int, int, int]]   # point -> (i, j, b)
    g_index: list[int]                   # point -> i
    masks_g: list[int] = field(default_factory=list)
    masks_a: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.masks_g:
            self.masks_g = [mask_of(o) for o in self.g_orbits]
            self.masks_a = [[mask_of(o) for o in row] for row in self.a_orbits]


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

    return OrbitTable(gens=gens, g_orbits=g_orbits, a_orbits=a_orbits,
                      reps=reps, coords=coords, g_index=g_index)
