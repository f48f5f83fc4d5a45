import numpy as np
import pytest

from psl2units.classify import dpc_verdict
from psl2units.errors import InvalidSpec, InvariantViolated, ZeroElement
from psl2units.finite_fields import PrimePower, build_setup, factorize
from psl2units.group_ring import GroupRingElement, hat
from psl2units.orbits import build_orbits
from psl2units.projective import make_generators
from psl2units.spectral import vanishes

# pytest rewrites the asserts of test modules and conftest only; under
# python -O a plain assert in a helper module would vanish and let the
# verdict_check child pass, so the helpers' asserts are rewritten too
pytest.register_assert_rewrite("bitmask_oracle")


def _context(l, r, p):
    setup = build_setup(PrimePower.make(l, r))
    gens = make_generators(setup, p)
    tab = build_orbits(gens)
    return gens, tab


_CONTEXTS = {}


def cached_context(l, r, p):
    """``_context`` built once per session, for hypothesis tests, which
    take no function-scoped fixtures."""
    if (l, r, p) not in _CONTEXTS:
        _CONTEXTS[l, r, p] = _context(l, r, p)
    return _CONTEXTS[l, r, p]


@pytest.fixture(scope="session")
def ctx13():
    return _context(13, 1, 7)


@pytest.fixture(scope="session")
def ctx16():
    return _context(2, 4, 17)


@pytest.fixture(scope="session")
def ctx25():
    return _context(5, 2, 13)


@pytest.fixture(scope="session")
def ctx27():
    return _context(3, 3, 7)


@pytest.fixture(scope="session")
def ctx37():
    return _context(37, 1, 19)


@pytest.fixture(scope="session")
def small_group_verdicts():
    """dpc_verdict(q, p, brute=True) for q = 4..13 and each prime p > 3
    dividing |PSL(2,q)|, keyed by (q, p) in increasing order."""
    out = {}
    for q in (4, 5, 7, 9, 11, 13):
        order = q * (q * q - 1) // (1 + q % 2)
        for p in sorted(factorize(order)):
            if p > 3:
                out[q, p] = dpc_verdict(q, p, brute=True)
    return out


def random_outside_dihedralizer(gens, rng):
    h = gens.group.random_element(rng)
    while gens.group.in_dihedralizer(h, gens.g):
        h = gens.group.random_element(rng)
    return h


def diagonalizer_identities(gens, tab):
    """Exact cyclotomic verification of PbarP = pI and P a PbarP-conjugation.

    Returns (unitary_ok, diagonal_ok): the first checks PbarP = p Id, the
    second that conjugating the permutation matrix of a by P gives
    p Diag(zeta^b) with the eigenvalue zeta^b at column a^b(z).
    """
    p = gens.p
    n = gens.group.n_points
    pos = np.empty(n, dtype=np.int64)  # x = a^b(z) sits at offset b of its a-orbit's block
    pos[tab.order_idx] = np.arange(n)
    orbit, power = (pos // p).tolist(), (pos % p).tolist()
    unitary_ok = True
    diagonal_ok = True
    for x in range(n):
        ox, bx = orbit[x], power[x]
        for y in range(n):
            oy, by = orbit[y], power[y]
            prod = [0] * p
            diag = [0] * p
            if ox == oy:
                for bu in range(p):
                    prod[((by - bx) * bu) % p] += 1
                    diag[(bx * (bu + 1) - bu * by) % p] += 1
            if x == y:  # subtract the expected p and p zeta^bx
                prod[0] -= p
                diag[bx % p] -= p
            unitary_ok &= vanishes(prod)
            diagonal_ok &= vanishes(diag)
    return unitary_ok, diagonal_ok


# -- element orders by walks and powers: oracles of has_order, hat and
# generates_norm_one ------------------------------------------------------------


def element_order(group, m):
    """Order of m in PSL(2,q), by walking its powers up to the identity."""
    ident = group.normalize(group.identity)
    cur = group.normalize(m)
    s = 1
    while cur != ident:
        cur = group.compose(cur, m)
        s += 1
        if s > group.q + 1:
            raise InvariantViolated(f"the order of {m} exceeds q + 1")
    return s


def ext_element_order(fq2, u):
    """Order of u in F_{q^2}*, by scalar powers: q^2 - 1 divided by each
    prime s while u^(o/s) = 1."""
    if u == fq2.zero:
        raise ZeroElement("order of 0 is undefined")
    o = fq2.q * fq2.q - 1
    for s in factorize(o):
        while o % s == 0 and ext_pow(fq2, u, o // s) == fq2.one:
            o //= s
    return o


def ext_pow(fq2, u, e):
    """u^e in F_{q^2}, by squaring and multiplying; e < 0 inverts u."""
    if e < 0:
        u, e = fq2.inv(u), -e
    result = fq2.one
    while e:
        if e & 1:
            result = fq2.mul(result, u)
        u = fq2.mul(u, u)
        e >>= 1
    return result


# -- group ring units that only the tests build ---------------------------------


def bass_unit(group, base, k, m):
    """The Bass unit (1 + g + ... + g^(k-1))^m + ((1 - k^m)/n) ghat."""
    n = element_order(group, base)
    if pow(k, m, n) != 1:
        raise InvalidSpec(f"k^m = {k}^{m} is not 1 mod {n}")
    partial = {}
    cur = group.normalize(group.identity)
    for _ in range(k):
        partial[cur] = partial.get(cur, 0) + 1
        cur = group.compose(cur, base)
    geometric = GroupRingElement(group, partial) ** m
    correction = (1 - k ** m) // n
    return geometric + hat(group, base) * correction


def bicyclic_left(group, g, h):
    """1 + ghat h (1 - g); mirror of bicyclic_right."""
    one = GroupRingElement.one(group)
    g_el = GroupRingElement.from_element(group, g)
    h_el = GroupRingElement.from_element(group, h)
    return one + hat(group, g) * h_el * (one - g_el)


def conjugate_unit(u, h):
    """h u h^-1, support-wise."""
    group = u.group
    out = {}
    for s, c in u.coeffs.items():
        out[group.conj_unit(s, h)] = c
    return GroupRingElement(group, out)


def augmentation(u):
    """The sum of the coefficients of a group ring element."""
    return sum(u.coeffs.values())
