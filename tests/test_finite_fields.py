import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psl2units.errors import NotPrime, ZeroElement
from psl2units.finite_fields import (
    ExtensionField, PrimeField, PrimePower, QuadraticExtension, _smallest_modulus, build_setup,
    factorize, is_prime, make_field, prime_power_decomposition,
)

from conftest import ext_element_order, ext_pow


def _irreducible_quadratics(l):
    # independent oracle: a monic quadratic over F_l is irreducible iff
    # it has no root
    out = []
    for c1 in range(l):
        for c0 in range(l):
            if all((x * x + c1 * x + c0) % l != 0 for x in range(l)):
                out.append((c0, c1))
    return out


def test_prime_field_modulus_convention():
    fq = make_field(13, 1)
    assert fq.modulus == (0,)
    assert fq.q == 13


def test_f9_modulus_is_smallest_irreducible():
    fq = make_field(3, 2)
    assert fq.modulus == (1, 0)  # X^2 + 1
    assert fq.modulus == min(_irreducible_quadratics(3))


def test_f25_modulus_matches_enumeration_oracle():
    fq = make_field(5, 2)
    assert fq.modulus == min(_irreducible_quadratics(5))


# sha256 of json.dumps([[q, [c_0, ..., c_{r-1}]], ...]) over every prime
# power 4 <= q < 10^4 in increasing order (1278 of them), the modulus
# X^r + sum(c_i X^i) as found before trial division replaced Rabin's test
MODULI_SHA256 = "46def53b80fe9e8a82e8cdfc94d3c78a432235704bb5873d0a14dfc73de459ec"


def _prime_powers(lo, hi):
    for q in range(lo, hi):
        try:
            yield PrimePower.from_q(q)
        except ValueError:
            pass


def test_moduli_pinned_below_ten_thousand():
    pairs = [[pp.q, list(_smallest_modulus(pp.l, pp.r))] for pp in _prime_powers(4, 10 ** 4)]
    assert len(pairs) == 1278
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == MODULI_SHA256


# one sha256 fed json.dumps([l, r, modulus, exp, log, zech, neg_table,
# inv_table]) of every extension field, r >= 2 and q < 10^4, in increasing
# q (51 of them), as built by scalar polynomial-tuple arithmetic before the
# tables came from numpy digit vectors
TABLES_SHA256 = "65eeeb0f685ecf90c8b820a7468d22a6a18fbbbdca82a5711813a0903e1e6a4d"


def test_extension_tables_pinned_below_ten_thousand():
    fields = [pp for pp in _prime_powers(4, 10 ** 4) if pp.r > 1]
    assert len(fields) == 51
    digest = hashlib.sha256()
    for pp in fields:
        fq = ExtensionField(pp.l, pp.r)
        digest.update(json.dumps([fq.l, fq.r, list(fq.modulus), fq.exp, fq.log, fq.zech,
                                  fq.neg_table, fq.inv_table]).encode())
    assert digest.hexdigest() == TABLES_SHA256


def _inverses_by_squaring(l):
    # the table of x^(l-2) by repeated squaring over all residues, the
    # route PrimeField took before it read inverses off its generator's powers
    x, inv, e = np.arange(l, dtype=np.int64), np.ones(l, dtype=np.int64), l - 2
    while e:
        if e & 1:
            inv = inv * x % l
        x = x * x % l
        e >>= 1
    return inv


@pytest.mark.parametrize("primes", [[l for l in range(2, 2000) if is_prime(l)], [9973, 99991]],
                         ids=["below-2000", "9973-99991"])
def test_prime_field_inverse_table(primes):
    for l in primes:
        inv = PrimeField(l)._inv_array
        assert inv.dtype == np.int64 and len(inv) == l
        assert np.array_equal(inv[1:], _inverses_by_squaring(l)[1:]), l
        assert inv[1:].tolist() == [pow(x, -1, l) for x in range(1, l)], l


def test_field_generator_is_first_primitive():
    # every prime and every extension field below 10^4; for the primes the
    # scan tests orders with Python's pow, apart from element_order
    primes = [l for l in range(2, 10 ** 4) if is_prime(l)]
    assert len(primes) == 1229
    for l in primes:
        want = next(x for x in range(1, l)
                    if all(pow(x, (l - 1) // s, l) != 1 for s in factorize(l - 1)))
        fq = PrimeField(l)
        assert fq.generator == fq.first_primitive() == want, l
    fields = [pp for pp in _prime_powers(4, 10 ** 4) if pp.r > 1]
    assert len(fields) == 51
    for pp in fields:
        fq = ExtensionField(pp.l, pp.r)
        assert fq.generator == fq.first_primitive() == fq.exp[1], pp.q


def _monic_products(l, r):
    # every product of two monic polynomials of degrees d and r - d,
    # 0 < d < r, as coefficient tuples, low degree first
    def monic(d):
        return [low + (1,) for low in itertools.product(range(l), repeat=d)]
    out = set()
    for d in range(1, r // 2 + 1):
        for a in monic(d):
            for b in monic(r - d):
                c = [0] * (r + 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        c[i + j] = (c[i + j] + x * y) % l
                out.add(tuple(c))
    return out


def test_moduli_match_product_sieve():
    # independent oracle: the first monic polynomial of degree r, low
    # coefficients compared first, that is no product of lower degrees
    fields = [pp for pp in _prime_powers(4, 1001) if pp.r > 1]
    assert len(fields) == 25
    for pp in fields:
        reducible = _monic_products(pp.l, pp.r)
        first = next(low for low in itertools.product(range(pp.l), repeat=pp.r)
                     if low + (1,) not in reducible)
        assert make_field(pp.l, pp.r).modulus == first, pp.q


def test_f16_cardinality():
    fq = make_field(2, 4)
    assert fq.q == 16
    # the encodings 0..15 are closed under both operations
    for op in (fq.add, fq.mul):
        assert {op(a, b) for a in range(fq.q) for b in range(fq.q)} == set(range(16))


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        make_field(6, 1)
    with pytest.raises(ValueError):
        make_field(7, 0)


def test_prime_power_validation():
    with pytest.raises(NotPrime):
        PrimePower.make(15, 1)
    with pytest.raises(ValueError):
        PrimePower.from_q(12)
    assert prime_power_decomposition(27) == (3, 3)


@pytest.mark.parametrize("l,r", [(2, 1), (13, 1), (1999, 1), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_field_axioms_sampled(l, r):
    import random
    fq = make_field(l, r)
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rng.randrange(fq.q) for _ in range(3))
        assert fq.add(a, b) == fq.add(b, a)
        assert fq.mul(a, fq.add(b, c)) == fq.add(fq.mul(a, b), fq.mul(a, c))
        assert fq.add(a, fq.neg(a)) == 0
        if a:
            assert fq.mul(a, fq.inv(a)) == 1


def _poly_ops(fq):
    # independent scalar oracle on the digits of the encodings: digit-wise
    # sum, and schoolbook product reduced by X^r = -sum(c_i X^i)
    l, r = fq.l, fq.r

    def digits(e):
        return [e // l ** i % l for i in range(r)]

    def enc(c):
        return sum(d % l * l ** i for i, d in enumerate(c[:r]))

    def mul(x, y):
        c = [0] * (2 * r - 1)
        for i, a in enumerate(digits(x)):
            for j, b in enumerate(digits(y)):
                c[i + j] += a * b
        for k in range(2 * r - 2, r - 1, -1):
            for i, m in enumerate(fq.modulus):
                c[k - r + i] -= c[k] * m
        return enc(c)

    return (lambda x, y: enc([a + b for a, b in zip(digits(x), digits(y))])), mul


ARRAY_FIELDS = [7, 13, 997, 8, 16, 1024, 27, 125, 961]


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from(ARRAY_FIELDS), data=st.data())
def test_array_ops_match_scalar_ops(q, data):
    # add_array, mul_array and inv_array element by element against the
    # scalar add, mul and inv, and those against the digit oracle: zero
    # operands, scalar x array and column x row broadcasting; square_roots
    # against the scalar squares
    fq = make_field(*prime_power_decomposition(q))
    elem = st.sampled_from([0, 1, q - 1]) | st.integers(0, q - 1)
    xs = data.draw(st.lists(elem, min_size=1, max_size=6))
    ys = data.draw(st.lists(elem, min_size=1, max_size=6))
    s = data.draw(elem)
    col, row = np.array(xs, dtype=np.int64)[:, None], np.array(ys, dtype=np.int64)
    for name, oracle in zip(("add", "mul"), _poly_ops(fq)):
        op, op_array = getattr(fq, name), getattr(fq, name + "_array")
        table = op_array(col, row)
        assert table.dtype == np.int64
        assert table.tolist() == [[op(x, y) for y in ys] for x in xs]
        assert [[op(x, y) for y in ys] for x in xs] == [[oracle(x, y) for y in ys] for x in xs]
        assert op_array(s, row).tolist() == [op(s, y) for y in ys]
        assert op_array(col, s).tolist() == [[op(x, s)] for x in xs]
    units = np.array([x for x in xs + ys if x], dtype=np.int64)
    assert fq.inv_array(units).tolist() == [fq.inv(x) for x in units.tolist()]
    assert all(fq.mul(x, fq.inv(x)) == 1 for x in units.tolist())
    roots = fq.square_roots
    assert all(roots[fq.mul(x, x)] == min(x, fq.neg(x)) for x in xs + ys)
    assert all(roots[x] == 0 for x in xs + ys if not fq.is_square(x))


@pytest.mark.parametrize("l,r", [(13, 1), (3, 3), (2, 4)])
def test_frobenius_involution_and_fixed_field(l, r):
    fq = make_field(l, r)
    fq2 = QuadraticExtension(fq)
    q = fq.q
    fixed = 0
    for e in range(q * q):
        u = fq2.from_encoding(e)
        v = fq2.frobenius(u)
        assert fq2.frobenius(v) == u
        assert ext_pow(fq2, u, q * q) == u or u == fq2.zero
        if v == u:
            fixed += 1
    assert fixed == q  # Frobenius fixes exactly the base field


@pytest.mark.parametrize("l,r", [(13, 1), (5, 2), (2, 4)])
def test_norm_and_trace_land_in_base_field(l, r):
    fq = make_field(l, r)
    fq2 = QuadraticExtension(fq)
    q = fq.q
    count = 0
    for e in range(1, q * q):
        u = fq2.from_encoding(e)
        t = fq2.trace(u)   # asserts hi == 0 internally
        n = fq2.norm(u)
        assert 0 <= t < q and 0 <= n < q
        count += 1
        if count == 100:
            break


def test_element_order_basics():
    fq = make_field(13, 1)
    assert fq.element_order(1) == 1
    assert fq.element_order(2) == 12  # 2 is primitive mod 13
    with pytest.raises(ZeroElement):
        fq.element_order(0)


@pytest.mark.parametrize("l", [13, 997, 9973])
def test_prime_field_element_order_matches_brute_force(l):
    # every x at once: the first k with x^k = 1, by multiplying by x k times
    x = np.arange(1, l, dtype=np.int64)
    order = np.zeros(l - 1, dtype=np.int64)
    cur = x.copy()
    for k in range(1, l):
        order[(cur == 1) & (order == 0)] = k
        cur = cur * x % l
    assert (order > 0).all()
    fq = PrimeField(l)
    assert [fq.element_order(v) for v in range(1, l)] == order.tolist()


def test_setup_q13():
    setup = build_setup(PrimePower.make(13, 1))
    fq2 = setup.fq2
    assert ext_element_order(fq2, setup.alpha) == 14
    assert fq2.norm(setup.alpha) == 1
    t = setup.t
    # the trace satisfies t^3 - t^2 - 2t + 1 = 0 mod 13; the admissible
    # values are exactly the roots of that cubic
    roots = {x for x in range(13) if (x**3 - x**2 - 2 * x + 1) % 13 == 0}
    assert roots == {3, 5, 6}
    assert t in roots
    assert setup.fq.element_order(setup.beta) == 12


def test_setup_minimal_polynomial_of_alpha():
    for (l, r) in ((13, 1), (5, 2), (2, 4), (3, 3)):
        setup = build_setup(PrimePower.make(l, r))
        fq2 = setup.fq2
        t_emb = (setup.t, 0)
        lhs = fq2.add(fq2.sub(fq2.mul(setup.alpha, setup.alpha),
                              fq2.mul(t_emb, setup.alpha)), fq2.one)
        assert lhs == fq2.zero


def test_setup_q16_trace_not_degenerate():
    setup = build_setup(PrimePower.make(2, 4))
    assert setup.t not in (0, 1)  # -1 = 1 in characteristic 2


def test_setup_alpha_order_always_q_plus_1():
    for (l, r) in ((7, 1), (11, 1), (5, 2), (3, 3), (2, 4)):
        setup = build_setup(PrimePower.make(l, r))
        assert ext_element_order(setup.fq2, setup.alpha) == setup.pp.q + 1


def test_setup_deterministic():
    a = build_setup(PrimePower.make(3, 3))
    b = build_setup(PrimePower.make(3, 3))
    assert a.alpha == b.alpha and a.t == b.t and a.beta == b.beta
    assert a.fq.modulus == b.fq.modulus


def test_is_square():
    fq = make_field(13, 1)
    assert fq.is_square(4)
    assert fq.is_square(0)
    assert not fq.is_square(fq.first_primitive())
    f16 = make_field(2, 4)
    assert all(f16.is_square(x) for x in range(16))
    f25 = make_field(5, 2)
    squares = {f25.mul(x, x) for x in range(25)}
    assert all(f25.is_square(x) == (x in squares) for x in range(25))


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def _setup_scan_from_one(pp):
    # the scan build_setup made before it started at encoding q: every
    # encoding from 1, each raised to q-1, the first of order exactly q+1
    fq = make_field(pp.l, pp.r)
    fq2 = QuadraticExtension(fq)
    q = pp.q
    for e in range(1, q * q):
        cand = ext_pow(fq2, fq2.from_encoding(e), q - 1)
        if cand != fq2.one and ext_element_order(fq2, cand) == q + 1:
            alpha = cand
            break
    beta = next(x for x in range(1, q) if fq.element_order(x) == q - 1)
    return alpha, fq2.trace(alpha), beta


# sha256 of json.dumps([[q, [alpha_lo, alpha_hi], t, beta], ...]) over every
# prime power 8 <= q < 10^4 in increasing order (1275 of them, 11 even), as
# build_setup chose them by scalar (q-1)-th powers in F_{q^2}
SETUP_SHA256 = "bf88f6819c04ab857b9889d85cd591c3dbac39adac05c79565f64f294b3a3f9e"


def test_setups_pinned_below_ten_thousand():
    rows = []
    for pp in _prime_powers(8, 10 ** 4):
        setup = build_setup(pp)
        rows.append([pp.q, list(setup.alpha), setup.t, setup.beta])
    assert (len(rows), sum(q % 2 == 0 for q, *_ in rows)) == (1275, 11)
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SETUP_SHA256


def test_first_primitive_matches_element_order_scan():
    # the engine's gamma against the scan it made before, by scalar element
    # orders in F_{q^2} from encoding q
    odd = [pp for pp in _prime_powers(5, 1000) if pp.l > 2]
    assert len(odd) == 183
    for pp in odd:
        fq2 = QuadraticExtension(make_field(pp.l, pp.r))
        n = pp.q * pp.q - 1
        gamma = next(u for u in map(fq2.from_encoding, range(pp.q, pp.q * pp.q))
                     if ext_element_order(fq2, u) == n)
        assert fq2.first_primitive() == gamma, pp.q


@pytest.mark.parametrize("q", [9, 13, 16, 27, 32])
def test_ratio_trace_and_order_test_match_scalar_powers(q):
    # every xi outside F_q: the trace of xi^(q-1) and whether it has order q + 1
    fq2 = QuadraticExtension(make_field(*prime_power_decomposition(q)))
    for e in range(q, q * q):
        xi = fq2.from_encoding(e)
        u = ext_pow(fq2, xi, q - 1)
        s = fq2.ratio_trace(xi)
        assert s == fq2.trace(u)
        assert fq2.generates_norm_one(s) == (ext_element_order(fq2, u) == q + 1)


def test_setup_matches_scan_from_encoding_one():
    prime_powers = [q for q in range(5, 301) if len(factorize(q)) == 1]
    assert len(prime_powers) == 76
    for q in prime_powers:
        pp = PrimePower.from_q(q)
        alpha, t, beta = _setup_scan_from_one(pp)
        if q + 1 < 8:
            with pytest.raises(ValueError, match="degenerate"):
                build_setup(pp)
            continue
        setup = build_setup(pp)
        assert (setup.alpha, setup.t, setup.beta) == (alpha, t, beta), q

