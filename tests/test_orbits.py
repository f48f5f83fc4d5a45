import random

import numpy as np

from psl2units.finite_fields import PrimePower, QuadraticExtension, build_setup, \
    make_field, FieldSetup
from psl2units.orbits import build_orbits
from psl2units.projective import INF, make_generators

from bitmask_oracle import conj_pow, image_points, intersect_count, mask_of, orbit_lists, \
    points_of
from conftest import random_outside_dihedralizer


def _coords(tab):
    """(i, j, b) of every point x = a^b(z_ij), and the representatives z_ij,
    read from the position of x in ``order_idx``."""
    gens = tab.gens
    p, d = gens.p, gens.d
    pos = np.empty(len(tab.order_idx), dtype=np.int64)
    pos[tab.order_idx] = np.arange(len(pos))
    coords = [(x // (p * d), x // p % d, x % p) for x in pos.tolist()]
    return coords, tab.rows(np.arange(len(pos)))[:, 0].reshape(gens.d_prime, d).tolist()


def _setup_with_trace(l, r, target_t):
    """Hand-rolled setup pinning the trace of alpha (tests only)."""
    fq = make_field(l, r)
    fq2 = QuadraticExtension(fq)
    q = fq.q
    for e in range(1, q * q):
        u = fq2.from_encoding(e)
        try:
            if fq2.element_order(u) == q + 1 and fq2.trace(u) == target_t:
                return FieldSetup(pp=PrimePower.make(l, r), fq=fq, fq2=fq2,
                                  alpha=u, t=target_t, beta=fq.first_primitive())
        except Exception:
            continue
    raise AssertionError("no alpha with the requested trace")


def test_q13_orbits_for_trace_three():
    # with t = 3 the g-orbit of infinity is {inf, 0, 4, 11, 12, 6, 10}
    # (iterate g(x) = -1/(x+3) mod 13 from infinity)
    setup = _setup_with_trace(13, 1, 3)
    gens = make_generators(setup, 7)
    tab = build_orbits(gens)
    orbit0 = [INF] + [x + 1 for x in (0, 4, 11, 12, 6, 10)]
    # d = 1 and INF is point 0, so the first a-orbit is the g-walk from INF
    assert tab.order_idx[:7].tolist() == orbit0
    assert set(np.flatnonzero(tab.glabel == 2).tolist()) == {x + 1 for x in (1, 2, 3, 5, 7, 8, 9)}


def test_orbit_sizes(ctx13, ctx16, ctx25, ctx27):
    for gens, tab in (ctx13, ctx16, ctx25, ctx27):
        q, p, d, dp = gens.q, gens.p, gens.d, gens.d_prime
        assert sorted(set(tab.glabel.tolist())) == list(range(1, dp + 1))
        assert np.bincount(tab.glabel).tolist()[1:] == [p * d] * dp
        rows = tab.rows(np.arange(q + 1))  # one a-orbit of p points a row
        assert rows.shape == (dp * d, p)
        assert np.array_equal(tab.rows(np.stack([np.arange(q + 1)] * 3) * 2), [2 * rows] * 3)
        # d a-orbits inside each g-orbit, the a-orbits of O_i in block i
        assert (tab.glabel[rows] == np.repeat(np.arange(1, dp + 1), d)[:, None]).all()
        assert tab.glabel[INF] == 1


def test_q16_single_orbit(ctx16):
    gens, tab = ctx16
    assert gens.d == 1 and gens.a == gens.g
    assert tab.glabel.tolist() == [1] * 17


def test_q25_two_orbits_d1(ctx25):
    gens, tab = ctx25
    assert gens.d == 1
    assert np.bincount(tab.glabel).tolist() == [0, 13, 13]
    assert set(tab.order_idx[:13].tolist()) == set(np.flatnonzero(tab.glabel == 1).tolist())


def test_decompose_roundtrip(ctx13, ctx27):
    for gens, tab in (ctx13, ctx27):
        G = gens.group
        coords, reps = _coords(tab)
        seen = set()
        for x in range(G.n_points):
            i, j, b = coords[x]
            assert 0 <= b < gens.p
            assert G.apply(G.power(gens.a, b), reps[i][j]) == x
            seen.add((i, j, b))
        assert len(seen) == G.n_points


def test_representatives_are_minimal(ctx27):
    gens, tab = ctx27
    _, reps = _coords(tab)
    rows = tab.rows(np.arange(gens.q + 1)).reshape(gens.d_prime, gens.d, gens.p)
    for i, row in enumerate(rows.tolist()):
        for j, orbit in enumerate(row):
            assert reps[i][j] == min(orbit) == orbit[0]


def test_a_step_increments_coordinate(ctx13):
    gens, tab = ctx13
    G = gens.group
    coords, _ = _coords(tab)
    for x in range(G.n_points):
        i, j, b = coords[x]
        i2, j2, b2 = coords[G.apply(gens.a, x)]
        assert (i2, j2) == (i, j)
        assert b2 == (b + 1) % gens.p


def test_mask_helpers():
    m = mask_of([0, 3, 5])
    assert points_of(m) == [0, 3, 5]
    assert intersect_count(m, mask_of([3, 4, 5])) == 2


def test_image_set_preserves_cardinality(ctx13):
    gens, _ = ctx13
    G = gens.group
    g_orbits, _ = orbit_lists(gens)
    rng = random.Random(2)
    for _ in range(20):
        h = G.random_element(rng)
        img = image_points(G.perm_array(h).tolist(), g_orbits[0])
        assert img.bit_count() == len(g_orbits[0])
        assert intersect_count(img, mask_of(g_orbits[0])) \
            + intersect_count(img, mask_of(g_orbits[1])) == (gens.q + 1) // 2


def test_orbit_exchange_outside_dihedralizer(ctx13, ctx25, ctx27, ctx37):
    # outside D no h-, gh- or ah-image of a g-orbit is a g-orbit
    for gens, _ in (ctx13, ctx25, ctx27, ctx37):
        G = gens.group
        g_orbits, _ = orbit_lists(gens)
        rng = random.Random(4)
        orbit_masks = {mask_of(o) for o in g_orbits}
        for _ in range(25):
            h = random_outside_dihedralizer(gens, rng)
            for base in (h, conj_pow(G, gens.g, h)):
                img = [image_points(G.perm_array(base).tolist(), o) for o in g_orbits]
                for mask in img:
                    assert mask not in orbit_masks
                for mover in (gens.g, gens.a):
                    perm = G.perm_array(mover).tolist()
                    for mask in img:
                        moved = 0
                        for pt in points_of(mask):
                            moved |= 1 << perm[pt]
                        assert moved not in img
