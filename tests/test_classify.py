import pytest

from psl2units.classify import (
    FAILS, ORDER_CONDITION, P5_EXCEPTIONAL, dpc_brute_force, dpc_predicate,
    dpc_verdict, multiplicative_order,
)
from psl2units.errors import GroupTooLarge, NoElementOfOrderP, NotCoprime
from psl2units.finite_fields import factorize, make_field, prime_power_decomposition
from psl2units.projective import PSL2

from conftest import element_order


def test_multiplicative_order():
    assert multiplicative_order(13, 7) == 2
    assert multiplicative_order(2, 17) == 8
    assert multiplicative_order(8, 7) == 1  # 8 = 1 mod 7
    assert multiplicative_order(5, 1) == 1  # every l is 1 mod 1
    with pytest.raises(NotCoprime):
        multiplicative_order(14, 7)


def test_predicate_examples():
    assert dpc_predicate(5, 5).predicate is True
    assert dpc_predicate(5, 5).reason == P5_EXCEPTIONAL
    assert dpc_predicate(4, 5).predicate is True
    assert dpc_predicate(13, 7).reason == ORDER_CONDITION
    assert dpc_predicate(9, 5).predicate is False
    assert dpc_predicate(9, 5).reason == FAILS


def test_predicate_rejects_small_p():
    with pytest.raises(ValueError):
        dpc_predicate(13, 3)
    with pytest.raises(ValueError):
        dpc_predicate(13, 9)


def test_order_condition_implies_q_plus_1_divisibility():
    # when the order condition holds, p divides q+1 and not q(q-1)
    for q in (13, 27, 25, 37, 41, 125, 2197):
        pairs = [(p, dpc_predicate(q, p)) for p in factorize(q + 1) if p > 5]
        for p, verdict in pairs:
            if verdict.reason == ORDER_CONDITION:
                assert (q + 1) % p == 0
                assert q % p != 0 and (q - 1) % p != 0


def test_brute_force_examples():
    assert dpc_brute_force(5, 5) is True
    assert dpc_brute_force(9, 5) is False
    assert dpc_brute_force(13, 7) is True


def test_brute_force_guards():
    with pytest.raises(NoElementOfOrderP):
        dpc_brute_force(5, 7)
    with pytest.raises(GroupTooLarge):
        dpc_brute_force(101, 17)


def _group_order(q):
    from math import gcd
    return q * (q * q - 1) // gcd(2, q + 1)


def test_predicate_matches_brute_force_on_small_groups():
    for q in (4, 5, 7, 9, 11, 13):
        for p in sorted(factorize(_group_order(q))):
            if p <= 3:
                continue
            verdict = dpc_verdict(q, p, brute=True)
            assert verdict.witnessed is not None
            assert verdict.predicate == verdict.witnessed, (q, p, verdict)


def test_brute_force_picks_the_first_element_of_order_p():
    # dpc_brute_force's a: the trace test picks the element the
    # composition walk picks
    for q in (4, 5, 7, 9, 11, 13):
        group = PSL2(make_field(*prime_power_decomposition(q)))
        elements = list(group.enumerate_elements())
        for p in sorted(factorize(_group_order(q))):
            if p > 3:
                first = next(m for m in elements if element_order(group, m) == p)
                assert next(m for m in elements if group.has_order(m, p)) == first
