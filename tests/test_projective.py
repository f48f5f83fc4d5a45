import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psl2units.finite_fields import PrimePower, build_setup, factorize, make_field
from psl2units.projective import INF, PSL2, make_generators

from bitmask_oracle import conj_pow
from conftest import _context, cached_context, element_order, random_outside_dihedralizer


def fpt(x):
    # point index of a field encoding
    return x + 1


def test_moebius_special_values(ctx13):
    gens, _ = ctx13
    G = gens.group
    fq = gens.setup.fq
    t = gens.setup.t
    assert G.apply(gens.g, fpt(fq.neg(t))) == INF
    assert G.apply(gens.g, INF) == fpt(0)
    assert G.apply(gens.g, fpt(0)) == fpt(fq.neg(fq.inv(t)))
    assert G.apply(gens.sigma, fpt(0)) == fpt(0)
    assert G.apply(gens.sigma, INF) == INF
    for pt in range(G.n_points):
        assert G.apply(G.identity, pt) == pt


def test_sigma_fixes_exactly_zero_and_infinity(ctx13):
    gens, _ = ctx13
    G = gens.group
    fixed = [pt for pt in range(G.n_points) if G.apply(gens.sigma, pt) == pt]
    assert fixed == [INF, fpt(0)]


def test_g_fixes_no_point(ctx13, ctx16, ctx27):
    for gens, _ in (ctx13, ctx16, ctx27):
        G = gens.group
        assert all(G.apply(gens.g, pt) != pt for pt in range(G.n_points))


def test_generator_orders(ctx13):
    gens, _ = ctx13
    G = gens.group
    assert element_order(G, gens.g) == 7
    assert element_order(G, gens.sigma) == 6
    assert element_order(G, gens.a) == 7


def test_compose_inverse(ctx13):
    gens, _ = ctx13
    G = gens.group
    rng = random.Random(0)
    for _ in range(50):
        h = G.random_element(rng)
        assert G.compose(h, G.inverse(h)) == G.normalize(G.identity)


def test_action_is_homomorphism(ctx13, ctx27):
    for gens, _ in (ctx13, ctx27):
        G = gens.group
        rng = random.Random(1)
        for _ in range(50):
            h1, h2 = G.random_element(rng), G.random_element(rng)
            x = rng.randrange(G.n_points)
            assert G.apply(G.compose(h1, h2), x) == G.apply(h1, G.apply(h2, x))


@pytest.mark.parametrize("l,r,count", [(13, 1, 1092), (2, 4, 4080)])
def test_enumeration_count(l, r, count):
    G = PSL2(make_field(l, r))
    els = list(G.enumerate_elements())
    assert len(els) == count == G.order()
    assert len(set(els)) == count


@pytest.mark.parametrize("l,r", [(13, 1), (2, 4), (5, 2), (3, 3)])
def test_action_is_faithful(l, r):
    G = PSL2(make_field(l, r))
    ident = G.normalize(G.identity)
    for m in G.enumerate_elements():
        if m == ident:
            continue
        assert any(G.apply(m, pt) != pt for pt in range(G.n_points))


def test_random_element_deterministic(ctx13):
    gens, _ = ctx13
    G = gens.group
    seq1 = [G.random_element(random.Random(42)) for _ in range(1)]
    r1, r2 = random.Random(7), random.Random(7)
    assert [G.random_element(r1) for _ in range(30)] == \
        [G.random_element(r2) for _ in range(30)]
    del seq1


def test_dihedralizer_membership(ctx13):
    gens, _ = ctx13
    G = gens.group
    for s in range(1, 7):
        assert G.in_dihedralizer(G.power(gens.g, s), gens.g)
    # an involution inverting g exists
    inverting = [w for w in G.enumerate_elements()
                 if element_order(G, w) == 2
                 and G.conj_unit(gens.g, w) == G.inverse(gens.g)]
    assert inverting
    assert all(G.in_dihedralizer(w, gens.g) for w in inverting)


def test_dihedralizer_size_is_q_plus_1(ctx13):
    gens, _ = ctx13
    G = gens.group
    size = sum(G.in_dihedralizer(h, gens.g) for h in G.enumerate_elements())
    assert size == 14


def test_sigma_conjugate_leaves_torus(ctx13):
    gens, _ = ctx13
    G = gens.group
    fq = gens.setup.fq
    beta, t = gens.setup.beta, gens.setup.t
    conj = conj_pow(G, gens.sigma, gens.g)
    expected = G.normalize((fq.inv(beta),
                            fq.mul(t, fq.sub(fq.inv(beta), beta)),
                            0, beta))
    assert conj == expected
    powers = {G.power(gens.sigma, s) for s in range(element_order(G, gens.sigma))}
    assert conj not in powers


def test_conjugation_conventions(ctx13):
    gens, _ = ctx13
    G = gens.group
    rng = random.Random(3)
    x, h = G.random_element(rng), G.random_element(rng)
    x_h = G.compose(G.compose(G.inverse(h), x), h)  # exponent convention h^-1 x h
    assert conj_pow(G, x, h) == x_h
    assert G.conj_unit(x, h) == G.compose(G.compose(h, x), G.inverse(h))
    assert G.conj_unit(x_h, h) == G.normalize(x)


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([(13, 1, 7), (5, 2, 13), (3, 3, 7), (2, 4, 17), (2, 3, 3)]),
       seeds=st.tuples(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32)))
def test_action_is_a_homomorphism(field, seeds):
    # (x y)(pt) = x(y(pt)) on the point indices, over prime, extension and
    # char 2 fields
    G = cached_context(*field)[0].group
    x, y = (G.random_element(random.Random(s)) for s in seeds)
    perm_x, perm_y = G.perm_array(x).tolist(), G.perm_array(y).tolist()
    assert G.perm_array(G.compose(x, y)).tolist() == [perm_x[pt] for pt in perm_y]


def test_three_point_map_identity_and_postcondition(ctx16):
    gens, _ = ctx16
    G = gens.group
    assert G.three_point_map(fpt(0), fpt(1), INF, fpt(0), fpt(1), INF) == \
        G.normalize(G.identity)
    rng = random.Random(5)
    for _ in range(25):
        xs = rng.sample(range(G.n_points), 3)
        ys = rng.sample(range(G.n_points), 3)
        m = G.three_point_map(*xs, *ys)
        assert [G.apply(m, x) for x in xs] == ys


def test_three_point_map_composes(ctx16):
    gens, _ = ctx16
    G = gens.group
    rng = random.Random(6)
    xs = rng.sample(range(G.n_points), 3)
    ys = rng.sample(range(G.n_points), 3)
    zs = rng.sample(range(G.n_points), 3)
    m1 = G.three_point_map(*xs, *ys)
    m2 = G.three_point_map(*ys, *zs)
    assert G.compose(m2, m1) == G.three_point_map(*xs, *zs)


def test_three_point_map_rejects_odd_q(ctx13):
    gens, _ = ctx13
    with pytest.raises(ValueError):
        gens.group.three_point_map(INF, fpt(0), fpt(1), INF, fpt(1), fpt(0))


def test_make_validates_determinant(ctx13):
    gens, _ = ctx13
    with pytest.raises(ValueError):
        gens.group.make(1, 0, 0, 2)


@pytest.mark.parametrize("ctx, entries", [("ctx13", (-12, 1, 0, 1)), ("ctx13", (1, 0, 13, 1)),
                                          ("ctx27", (27, 0, 0, 1)), ("ctx16", (1, 0, 0, 16))])
def test_make_rejects_entries_outside_the_field(ctx, entries, request):
    # an entry outside 0..q-1 is no field encoding and is refused, also
    # where the determinant would come out 1 (-12 = 1 mod 13; 13 times 0)
    group = request.getfixturevalue(ctx)[0].group
    with pytest.raises(ValueError, match="encodings in 0..") as exc:
        group.make(*entries)
    assert str(list(entries)) in str(exc.value)


def test_canonical_representative_idempotent(ctx13, ctx27):
    for gens, _ in (ctx13, ctx27):
        G = gens.group
        fq = G.fq
        rng = random.Random(9)
        for _ in range(40):
            h = G.random_element(rng)
            negated = tuple(fq.neg(e) for e in h)
            assert G.normalize(negated) == h


def test_generators_validation():
    setup = build_setup(PrimePower.make(13, 1))
    with pytest.raises(ValueError):
        make_generators(setup, 5)   # 5 does not divide 7
    with pytest.raises(ValueError):
        make_generators(setup, 4)   # not prime


def test_lemma_style_orbit_exchange_on_dihedralizer(ctx13):
    # membership in D forces the g-orbits to be permuted among themselves
    gens, tab = ctx13
    G = gens.group
    for h in G.enumerate_elements():
        if not G.in_dihedralizer(h, gens.g):
            continue
        orbits = [set(np.flatnonzero(tab.glabel == 1 + i).tolist()) for i in range(2)]
        img = {G.apply(h, pt) for pt in orbits[0]}
        assert img in orbits


@pytest.mark.parametrize("q", [8, 13, 27, 83, 125, 997, 1024])
def test_perm_array_matches_pointwise_apply(q):
    pp = PrimePower.from_q(q)
    G = PSL2(make_field(pp.l, pp.r))
    rng = random.Random(q)
    elements = [G.normalize(G.identity), (0, 1, G.fq.neg(1), 0)]
    elements += [G.random_element(rng) for _ in range(40)]
    for m in elements:
        assert G.perm_array(m).tolist() == [G.apply(m, pt) for pt in range(G.n_points)]


def _has_order_by_powers(G, m, n):
    """The order test by composition: m^n = 1 and m^(n/s) != 1 for every
    prime s dividing n (the reference for the trace test)."""
    ident = G.normalize(G.identity)
    if G.power(m, n) != ident:
        return False
    return all(G.power(m, n // s) != ident for s in factorize(n))


@pytest.mark.parametrize("l,r", [(7, 1), (2, 3), (3, 2), (11, 1)])
def test_has_order_matches_element_order(l, r):
    G = PSL2(make_field(l, r))
    divisors = [n for n in range(1, G.order() + 1) if G.order() % n == 0]
    for m in G.enumerate_elements():
        order = element_order(G, m)
        expected = [order == n for n in divisors]
        assert [G.has_order(m, n) for n in divisors] == expected
        assert [_has_order_by_powers(G, m, n) for n in divisors] == expected
        assert not G.has_order(m, 0) and not G.has_order(m, -order)


@pytest.mark.parametrize("q", [729, 997, 1024])
def test_has_order_matches_powers_at_large_q(q):
    pp = PrimePower.from_q(q)
    G = PSL2(make_field(pp.l, pp.r))
    fq = G.fq
    one, minus = 1, fq.neg(1)
    rng = random.Random(q)
    # +-I, unipotents with either sign and their conjugates, then random elements
    elements = [(one, 0, 0, one), (minus, 0, 0, minus)]
    for x in (1, 2, q - 1):
        for u in ((one, x, 0, one), (one, 0, x, one), (minus, fq.neg(x), 0, minus)):
            h = G.random_element(rng)
            elements += [u, G.conj_unit(u, h)]
    elements += [G.random_element(rng) for _ in range(200)]
    orders = sorted({1, pp.l} | {n for k in (q - 1, q + 1)
                                 for n in range(1, k + 1) if k % n == 0})
    kinds = {1: 0, pp.l: 0, "other": 0}
    for m in elements:
        got = [G.has_order(m, n) for n in orders]
        assert got == [_has_order_by_powers(G, m, n) for n in orders], m
        found = [n for n, ok in zip(orders, got) if ok]
        assert len(found) == 1, (m, found)  # the order is 1, l or divides q - 1 or q + 1
        kinds[found[0] if found[0] in kinds else "other"] += 1
    assert kinds[1] == 2 and kinds[pp.l] >= 18 and kinds["other"] >= 150
