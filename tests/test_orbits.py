import dataclasses
import random

import numpy as np
import pytest

from psl2units.errors import InvariantViolated
from psl2units.finite_fields import PrimePower, QuadraticExtension, build_setup, \
    factorize, make_field, FieldSetup
from psl2units.orbits import build_orbits
from psl2units.projective import INF, make_generators
from psl2units.sweep import admissible_primes, odd_prime_powers

from bitmask_oracle import conj_pow, image_points, intersect_count, mask_of, orbit_lists, \
    points_of
from conftest import ext_element_order, random_outside_dihedralizer


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
            if ext_element_order(fq2, u) == q + 1 and fq2.trace(u) == target_t:
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


def _orbits_point_by_point(gens):
    """The orbit table with each g-orbit walked one point at a time, an
    independent route for ``build_orbits``' doubling walk, with the same
    checks and messages: (perm_g_inv, glabel, order_idx).  It was
    ``build_orbits`` until the doubling walk replaced it."""
    q = gens.q
    p, d, d_prime = gens.p, gens.d, gens.d_prime
    perm_g = gens.group.perm_array(gens.g).tolist()
    n = q + 1
    orbit_len = p * d
    walks = []
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
    return perm_g_inv, glabel, order_idx


# every odd prime p dividing (q + 1)/d'; q = 7 has none.  Then the two
# largest odd q = l^r, r >= 2, below 10^5 (313^2 and 5^7) and the even
# q = 2^16 and 2^17, whose int32 step rows and int64 field products must
# hold for sweeps and certificates up there
_WALK_PAIRS = [(q, p) for q in (7, 8, 13, 16, 27, 32, 125, 997, 1024)
               for p in factorize((q + 1) // (1 + q % 2)) if p > 2] \
    + [(97969, 97), (78125, 29), (65536, 65537), (131072, 43691)]


@pytest.mark.parametrize("q,p", _WALK_PAIRS)
def test_doubling_walk_matches_point_by_point(q, p):
    gens = make_generators(build_setup(PrimePower.from_q(q)), p)
    tab = build_orbits(gens)
    for want, got in zip((tab.perm_g_inv, tab.glabel, tab.order_idx),
                         _orbits_point_by_point(gens)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.verdict_check
def test_doubling_walk_rejects_what_the_point_walk_rejects(ctx13, ctx25):
    # sigma closes its fixed points' walks and breaks the third, the
    # identity closes every walk and leaves too many, and random elements
    # break the first walk or, with g's orbit lengths, a's step
    rng = random.Random(5)
    for gens, _ in (ctx13, ctx25):
        G = gens.group
        wrongs = [gens.sigma, G.normalize(G.identity)] + [G.random_element(rng) for _ in range(5)]
        for wrong in wrongs:
            bad = dataclasses.replace(gens, g=wrong)
            with pytest.raises(InvariantViolated) as want:
                build_orbits(bad)
            with pytest.raises(InvariantViolated, match=f"^{want.value}$"):
                _orbits_point_by_point(bad)


def test_glabel_is_the_square_class_of_the_norm_form():
    # g = (0, -1; 1, t) keeps x^2 + t x y + y^2, so the g-orbit of infinity
    # is infinity and the [x : 1] where x^2 + t x + 1 is a square, read here
    # off the image of x -> x^2; every other point lies on the second orbit
    for pp in odd_prime_powers(7, 1999):
        primes = admissible_primes(pp.q)
        if not primes:
            continue
        setup = build_setup(pp)
        fq, x = setup.fq, np.arange(pp.q, dtype=np.int64)
        form = fq.add_array(fq.mul_array(x, fq.add_array(x, setup.t)), 1)
        squares = np.isin(form, fq.mul_array(x, x))
        want = [1] + np.where(squares, 1, 2).tolist()
        for p in primes:
            assert build_orbits(make_generators(setup, p)).glabel.tolist() == want, (pp.q, p)
