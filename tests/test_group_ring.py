import copy
import random

import pytest

from psl2units.errors import InvalidSpec, InvariantViolated
from psl2units.finite_fields import make_field
from psl2units.group_ring import GroupRingElement, bicyclic_right, hat
from psl2units.projective import PSL2

from conftest import (
    _context, augmentation, bass_unit, bicyclic_left, conjugate_unit, element_order,
    random_outside_dihedralizer,
)


def _element_of_order(group, n):
    return next(m for m in group.enumerate_elements()
                if element_order(group, m) == n)


def _random_sparse(group, rng, size=4, bound=9):
    coeffs = {}
    for _ in range(size):
        coeffs[group.random_element(rng)] = rng.randint(-bound, bound)
    return GroupRingElement(group, coeffs)


@pytest.fixture(scope="module")
def psl25():
    return PSL2(make_field(5, 1))


def test_ring_axioms_on_random_elements(ctx13):
    gens, _ = ctx13
    G = gens.group
    one = GroupRingElement.one(G)
    rng = random.Random(0)
    for _ in range(30):
        x, y, z = (_random_sparse(G, rng) for _ in range(3))
        assert x * one == x
        assert one * x == x
        assert (x + y) * z == x * z + y * z
        assert z * (x + y) == z * x + z * y
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x - x == GroupRingElement.zero(G)


def test_hat_basics(ctx13):
    gens, _ = ctx13
    G = gens.group
    assert hat(G, G.identity) == GroupRingElement.one(G)
    hg = hat(G, gens.g)
    n = element_order(G, gens.g)
    assert len(hg.coeffs) == n
    one = GroupRingElement.one(G)
    g_el = GroupRingElement.from_element(G, gens.g)
    assert (one - g_el) * hg == GroupRingElement.zero(G)
    assert hg * hg == hg * n


def _hat_by_two_walks(group, g):
    """hat as built before it walked <g> once: the order by one walk, then
    n steps of a second."""
    coeffs = {}
    cur = group.normalize(group.identity)
    for _ in range(element_order(group, g)):
        coeffs[cur] = coeffs.get(cur, 0) + 1
        cur = group.compose(cur, g)
    return GroupRingElement(group, coeffs)


@pytest.mark.parametrize("field", [(13, 1), (2, 4)], ids=["13", "16"])
def test_hat_matches_two_walks_on_every_element(field):
    G = PSL2(make_field(*field))
    count = 0
    for m in G.enumerate_elements():
        assert hat(G, m) == _hat_by_two_walks(G, m), m
        count += 1
    assert count == G.order()


@pytest.mark.verdict_check
def test_hat_refuses_an_order_above_q_plus_1(ctx13):
    gens, _ = ctx13
    small = copy.copy(gens.group)
    small.q = 5  # g has order 7 > q + 1
    with pytest.raises(InvariantViolated, match="exceeds q \\+ 1"):
        hat(small, gens.g)
    assert len(hat(gens.group, gens.g).coeffs) == 7


def test_bass_unit_trivial_for_k1(ctx13):
    gens, _ = ctx13
    G = gens.group
    assert bass_unit(G, gens.a, 1, 6) == GroupRingElement.one(G)


def test_bass_unit_rejects_bad_spec(ctx13):
    gens, _ = ctx13
    with pytest.raises(InvalidSpec):
        bass_unit(gens.group, gens.a, 2, 5)  # 2^5 = 32 != 1 mod 7


def test_bass_unit_inverse_pair_in_psl25(psl25):
    a = _element_of_order(psl25, 5)
    u = bass_unit(psl25, a, 2, 4)
    v = bass_unit(psl25, psl25.compose(a, a), 3, 4)
    assert u * v == GroupRingElement.one(psl25)


def test_bass_unit_augmentation_one(ctx13):
    from math import gcd

    gens, _ = ctx13
    G = gens.group
    rng = random.Random(1)
    checked = 0
    while checked < 50:
        base = G.random_element(rng)
        n = element_order(G, base)
        if n < 3:
            continue
        k = rng.randrange(2, n)
        if gcd(k, n) != 1:
            continue
        # smallest exponent with k^m = 1 mod n
        m = 1
        cur = k % n
        while cur != 1:
            cur = (cur * k) % n
            m += 1
        u = bass_unit(G, base, k, m)
        assert augmentation(u) == 1
        checked += 1


@pytest.mark.parametrize("host,n", [((5, 1), 5), ((13, 1), 7), ((5, 2), 13)])
def test_bass_unit_inverse_identity_all_k(host, n):
    group = PSL2(make_field(*host))
    g = _element_of_order(group, n)
    for k in range(2, n - 1):
        k_inv = pow(k, -1, n)
        ord_k = 1
        cur = k % n
        while cur != 1:
            cur = (cur * k) % n
            ord_k += 1
        m = n * ord_k
        u = bass_unit(group, g, k, m)
        v = bass_unit(group, group.power(g, k), k_inv, m)
        assert u * v == GroupRingElement.one(group)


def test_bicyclic_trivial_inside_normalizer(ctx13):
    gens, _ = ctx13
    G = gens.group
    one = GroupRingElement.one(G)
    for s in range(7):
        assert bicyclic_right(G, gens.g, G.power(gens.g, s)) == one
        assert bicyclic_left(G, gens.g, G.power(gens.g, s)) == one


def test_bicyclic_square_zero_and_inverse(ctx13):
    gens, _ = ctx13
    G = gens.group
    one = GroupRingElement.one(G)
    zero = GroupRingElement.zero(G)
    rng = random.Random(2)
    for _ in range(25):
        h = random_outside_dihedralizer(gens, rng)
        for builder in (bicyclic_right, bicyclic_left):
            v = builder(G, gens.g, h)
            assert v != one
            assert (v - one) * (v - one) == zero
            assert v * (2 - v) == one


def test_sigma_candidate_nontrivial(ctx13, ctx16, ctx25, ctx27):
    for gens, _ in (ctx13, ctx16, ctx25, ctx27):
        G = gens.group
        v = bicyclic_right(G, gens.sigma, gens.g)
        assert v != GroupRingElement.one(G)


def test_conjugate_unit(ctx13):
    gens, _ = ctx13
    G = gens.group
    rng = random.Random(3)
    u = bass_unit(G, gens.a, 2, 21)
    assert conjugate_unit(u, G.identity) == u
    for _ in range(10):
        h = G.random_element(rng)
        cu = conjugate_unit(u, h)
        assert augmentation(cu) == augmentation(u)
        assert cu == bass_unit(G, G.conj_unit(gens.a, h), 2, 21)


def test_conjugate_respects_product(ctx13):
    gens, _ = ctx13
    G = gens.group
    rng = random.Random(4)
    x, y = _random_sparse(G, rng), _random_sparse(G, rng)
    h = G.random_element(rng)
    assert conjugate_unit(x * y, h) == conjugate_unit(x, h) * conjugate_unit(y, h)


def test_debug_rendering_sorted(ctx13):
    gens, _ = ctx13
    G = gens.group
    u = hat(G, gens.a)
    items = u.items_sorted()
    assert items == sorted(items)
