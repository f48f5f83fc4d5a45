"""Finite fields F_q and the quadratic extension F_{q^2}.

Field elements are plain integers.  The element with digits
(c_0, ..., c_{r-1}) in the fixed polynomial basis is encoded as
sum(c_i * l**i), so 0 is the zero element and 1 the multiplicative
identity.  Elements of F_{q^2} are (lo, hi) pairs of F_q encodings
with respect to the construction basis {1, w}.

Every constructive choice (modulus, multiplicative generator, alpha,
beta, the primitive gamma of F_{q^2}) is made by deterministic
enumeration, so everything derived downstream (generators, orbits, sweep
records) is reproducible bit for bit.  The modulus of F_q over its prime
field is the first monic irreducible of degree r, low coefficients
compared first, found by trial division by every monic polynomial of
degree at most r/2.  The generator of F_q* is the first encoding of
order q - 1 and is found once per field: for r >= 2 by the numpy walk
that fills its powers, for r = 1 by a scan of orders and then laid out in
powers, from which the inverse table is read.  It is beta of the set-up.
F_{q^2} is a degree-2 extension of F_q (X^2 - c with c the first
non-square for odd q, X^2 + X + c with c the first element of absolute
trace 1 for even q), which keeps Frobenius, norm and trace one-line
operations.  The scans for alpha and gamma decide every order in F_{q^2}
on a trace in F_q: xi outside F_q gives u = xi^(q-1) = xi^q / xi of
norm 1 and trace s = T(xi)^2 / N(xi) - 2, and u^k = 1 exactly when the
Lucas value V_k(s) (``lucas``) is 2.  The test is exact and the scans
keep their encoding order, so they accept the same first element as a
scan by scalar powers in F_{q^2}, and alpha and gamma cannot change.

Every field also has numpy arithmetic on int64 encoding arrays, with
broadcasting: ``add_array``, ``mul_array`` and ``inv_array``, whose
values agree with the scalar ``add``, ``mul`` and ``inv`` element by
element; the value of ``inv_array`` at 0 is junk, for callers to mask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .errors import InvariantViolated, NotPrime, ZeroElement


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (inputs are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: multiplicity} by trial division."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (l, r) with q = l**r, or raise ValueError if q is not a prime power."""
    fac = factorize(q)  # empty below 2
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (l, r), = fac.items()
    return l, r


@dataclass(frozen=True)
class PrimePower:
    """A prime power q = l**r with q >= 4 (PSL(2,q) must be simple)."""

    l: int
    r: int
    q: int

    def __post_init__(self):
        if not is_prime(self.l):
            raise NotPrime(f"{self.l} is not prime")
        if self.r < 1:
            raise ValueError("exponent must be positive")
        if self.q != self.l ** self.r:
            raise ValueError(f"q={self.q} is not {self.l}^{self.r}")
        if self.q < 4:
            raise ValueError("q >= 4 required")

    @classmethod
    def make(cls, l: int, r: int) -> "PrimePower":
        return cls(l, r, l ** r)

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        l, r = prime_power_decomposition(q)
        return cls(l, r, q)


# ---------------------------------------------------------------------------
# Polynomial helpers over F_l (coefficient tuples, low degree first) for
# the modulus search; the field tables act on digit vectors instead.

def _pmod(a, f, l):
    """Remainder of a modulo the monic f, as len(f) - 1 coefficients."""
    a, df = list(a), len(f) - 1
    while len(a) > df:
        lead = a.pop()
        if lead:
            for i, c in enumerate(f[:-1], len(a) - df):
                a[i] = (a[i] - lead * c) % l
    return a


def _smallest_modulus(l: int, r: int) -> tuple[int, ...]:
    """First monic irreducible of degree r, low coefficients compared first.

    Returns the tuple (c_0, ..., c_{r-1}) of the non-leading coefficients;
    the modulus is X^r + sum(c_i X^i), irreducible iff no monic polynomial
    of degree 1..r/2 divides it (trial division).  Degree 1 gives X, the
    (0,) of ``PrimeField``.
    """
    divisors = [low + (1,) for d in range(1, r // 2 + 1)
                for low in itertools.product(range(l), repeat=d)]
    for low in itertools.product(range(l), repeat=r):
        if all(any(_pmod(low + (1,), g, l)) for g in divisors):
            return low
    raise InvariantViolated(f"no monic irreducible of degree {r} over F_{l}")


def _power_encodings(x, cand, n, l):
    """Encodings of cand^0, ..., cand^(n-1), or None once a power before
    cand^n is 1.  x multiplies digit columns by X; step = cand^k (Horner in
    x, then squared) doubles the digit rows: rows[k:2k] = rows[:k] @ step^T,
    whose dot products, at most r(l-1)^2 < 2q, fit in int32."""
    r = len(x)
    pows = l ** np.arange(r, dtype=np.int32)
    eye = np.eye(r, dtype=np.int32)
    step = np.zeros((r, r), dtype=np.int32)
    for d in (cand // pows % l)[::-1]:
        step = (step @ x + d * eye) % l
    rows = np.zeros((n, r), dtype=np.int32)
    rows[0, 0] = 1
    k = 1
    while k < n:
        m = min(k, n - k)
        rows[k:k + m] = rows[:m] @ step.T % l
        if 1 in rows[k:k + m] @ pows:
            return None
        step = step @ step % l
        k += m
    return rows @ pows


# ---------------------------------------------------------------------------
# Base field


def lucas(fq: "Field", t: int, k: int) -> int:
    """V_k(t) in fq, with V_0 = 2, V_1 = t and V_(j+1) = t V_j - V_(j-1):
    the trace lam^k + lam^-k of lam^k whenever lam + 1/lam = t.

    Runs the Lucas ladder over the bits of k from the top, keeping
    (V_j, V_(j+1)): V_2j = V_j^2 - 2 and V_(2j+1) = V_j V_(j+1) - t.  If
    V_k(t) = 2 then mu = lam^k solves mu + 1/mu = 2, so (mu - 1)^2 = 0 and
    lam^k = 1; this holds in characteristic 2 too, where 2 = 0.
    """
    two = fq.add(1, 1)
    v, w = two, t
    for bit in bin(k)[2:]:
        vw = fq.sub(fq.mul(v, w), t)
        if bit == "1":
            v, w = vw, fq.sub(fq.mul(w, w), two)
        else:
            v, w = fq.sub(fq.mul(v, v), two), vw
    return v


class Field:
    """Shared surface of the field classes; subclasses own the arithmetic."""

    q: int
    generator: int                       # the first encoding of order q - 1

    def elements(self):
        return range(self.q)

    @cached_property
    def square_roots(self):
        """int64 array holding the smaller encoding of +-x at index x^2, and 0
        at the non-squares; both writes to x^2 carry min(x, -x)."""
        e = np.arange(self.q, dtype=np.int64)
        roots = np.zeros(self.q, dtype=np.int64)
        roots[self.mul_array(e, e)] = np.minimum(e, self.mul_array(self.neg(1), e))
        return roots

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def first_non_square(self):
        for x in range(1, self.q):
            if not self.is_square(x):
                return x
        raise InvariantViolated(f"F_{self.q} has no non-square")

    def first_primitive(self):
        for x in range(1, self.q):
            if self.element_order(x) == self.q - 1:
                return x
        raise InvariantViolated(f"F_{self.q}* has no generator, though it is cyclic")


class PrimeField(Field):
    """F_l for prime l; elements are the residues 0..l-1.  The powers of
    ``generator`` (``first_primitive``) are laid out by doubling blocks,
    powers[k:2k] = powers[:k] g^k, and inv[g^k] = g^-k is read off them."""

    def __init__(self, l: int):
        self.l = l
        self.r = 1
        self.q = l
        self.modulus = (0,)
        self.generator = step = self.first_primitive()
        powers, k = np.ones(l - 1, dtype=np.int64), 1
        while k < l - 1:                 # step = g^k
            m = min(k, l - 1 - k)
            powers[k:k + m] = powers[:m] * step % l
            step, k = step * step % l, k + m
        self._inv_array = np.zeros(l, dtype=np.int64)
        self._inv_array[powers] = powers[-np.arange(l - 1)]

    def add(self, x, y):
        return (x + y) % self.l

    def sub(self, x, y):
        return (x - y) % self.l

    def neg(self, x):
        return -x % self.l

    def mul(self, x, y):
        return (x * y) % self.l

    def inv(self, x):
        if x == 0:
            raise ZeroElement("0 has no inverse")
        return pow(x, -1, self.l)

    def add_array(self, x, y):
        return np.add(x, y, dtype=np.int64) % self.l

    def mul_array(self, x, y):
        return np.multiply(x, y, dtype=np.int64) % self.l

    def inv_array(self, x):
        return self._inv_array[x]

    def is_square(self, x):
        if self.l == 2 or x == 0:
            return True
        return pow(x, (self.l - 1) // 2, self.l) == 1

    @cached_property
    def _qm1_primes(self) -> tuple[int, ...]:
        """The primes dividing q - 1, factorised once per field."""
        return tuple(factorize(self.q - 1))

    def element_order(self, x):
        if x == 0:
            raise ZeroElement("order of 0 is undefined")
        o = self.q - 1
        for s in self._qm1_primes:
            while o % s == 0 and pow(x, o // s, self.l) == 1:
                o //= s
        return o


class ExtensionField(Field):
    """F_{l^r} for r >= 2, with exp/log (Zech) tables for O(1) arithmetic.

    With n = q - 1 and g = ``generator`` the first candidate whose
    ``_power_encodings`` walk runs to the end, log(0) is the sentinel 2n
    and the tables are laid out so that zero operands need no test: ``exp``
    repeats the n powers of g twice, reads 0 from index 2n on, and x + y is
    exp[log x + zech[log y - log x + 2n]], where zech reads log(1 + g^k)
    at offsets n..3n-1, log(y) - 2n below them (0 + y = y) and 0 above
    them (x + 0 = x).  The scalar methods index the lists, the array
    methods numpy copies of the same tables.
    """

    def __init__(self, l: int, r: int):
        self.l = l
        self.r = r
        self.q = q = l ** r
        self.modulus = _smallest_modulus(l, r)
        n = q - 1
        # X times X^i is X^(i+1), and X^r = -sum(c_i X^i)
        x = np.eye(r, k=-1, dtype=np.int32)
        x[:, -1] = [-c % l for c in self.modulus]
        # encodings below l lie in F_l*, of order dividing l - 1, so the
        # scan for the first encoding of order n starts at X
        walks = (_power_encodings(x, cand, n, l) for cand in range(l, q))
        exp = next((e for e in walks if e is not None), None)
        if exp is None:
            raise InvariantViolated(f"q={q}: no encoding generates F_q*")
        self.generator = int(exp[1])
        log = np.full(q, 2 * n, dtype=np.int32)
        log[exp] = np.arange(n)
        # zech shares log's int objects and neg and inv share exp's (3q fewer
        # ints); log(0) = 2n reads a 0 in both gathers, and -1 is g^(n/2) for odd q
        self.exp = exp.tolist() * 2 + [0] * (2 * n + 1)
        self.log = log.tolist()
        # 1 + e changes only the lowest digit of e
        zech = list(map(self.log.__getitem__, (exp - exp % l + (exp + 1) % l).tolist()))
        self.zech = list(range(-2 * n, -n)) + zech * 2 + [0] * (n + 1)
        self.neg_table = list(map(self.exp.__getitem__, (log + (n // 2 if l > 2 else 0)).tolist()))
        self.inv_table = list(map(self.exp.__getitem__, (n - log).tolist()))
        # int32 logs halve the index arrays that add_array and mul_array build
        self._exp_array = np.array(self.exp, dtype=np.int64)
        self._log_array = log
        self._zech_array = np.array(self.zech, dtype=np.int32)
        self._inv_array = np.array(self.inv_table, dtype=np.int64)

    def add(self, x, y):
        lx = self.log[x]
        return self.exp[lx + self.zech[self.log[y] - lx + 2 * self.q - 2]]

    def neg(self, x):
        return self.neg_table[x]

    def sub(self, x, y):
        return self.add(x, self.neg_table[y])

    def mul(self, x, y):
        return self.exp[self.log[x] + self.log[y]]

    def inv(self, x):
        if x == 0:
            raise ZeroElement("0 has no inverse")
        return self.inv_table[x]

    def add_array(self, x, y):
        lx = self._log_array[x]
        return self._exp_array[lx + self._zech_array[self._log_array[y] - lx + 2 * self.q - 2]]

    def mul_array(self, x, y):
        return self._exp_array[self._log_array[x] + self._log_array[y]]

    def inv_array(self, x):
        return self._inv_array[x]

    def is_square(self, x):
        if self.l == 2 or x == 0:
            return True
        return self.log[x] % 2 == 0

    def element_order(self, x):
        if x == 0:
            raise ZeroElement("order of 0 is undefined")
        qm1 = self.q - 1
        return qm1 // gcd(qm1, self.log[x])


@lru_cache(maxsize=16)
def make_field(l: int, r: int) -> Field:
    """Field context for F_{l^r}; deterministic modulus, cached per (l, r).

    The cache keeps the 16 fields used last: a sweep uses each field for
    its consecutive pairs only, and the O(q) tables of every field below
    q = 10^4 would take about 46 MB for the prime fields' inverses alone.
    """
    if not is_prime(l):
        raise NotPrime(f"{l} is not prime")
    if r < 1:
        raise ValueError("exponent must be positive")
    if r == 1:
        return PrimeField(l)
    return ExtensionField(l, r)


# ---------------------------------------------------------------------------
# Quadratic extension


class QuadraticExtension:
    """F_{q^2} over F_q with elements (lo, hi) in the basis {1, w}.

    Odd q: w^2 = c with c the first non-square of F_q, so Frobenius is
    (lo, hi) -> (lo, -hi).  Even q: w^2 = w + c with c the first element
    of absolute trace 1, so Frobenius is (lo, hi) -> (lo + hi, hi).
    """

    def __init__(self, base: Field):
        self.base = base
        self.q = base.q
        self.even = base.l == 2
        self._qp1_primes = list(factorize(self.q + 1))
        if self.even:
            self.c = self._first_trace_one()
        else:
            self.c = base.first_non_square()

    def _first_trace_one(self):
        fq = self.base
        for c in range(fq.q):
            t = c
            acc = c
            for _ in range(fq.r - 1):
                t = fq.mul(t, t)
                acc = fq.add(acc, t)
            if acc == 1:
                return c
        raise InvariantViolated(f"F_{fq.q} has no element of absolute trace 1")

    zero = (0, 0)
    one = (1, 0)

    def from_encoding(self, e):
        return (e % self.q, e // self.q)

    def encoding(self, u):
        return u[0] + u[1] * self.q

    def add(self, u, v):
        fq = self.base
        return (fq.add(u[0], v[0]), fq.add(u[1], v[1]))

    def neg(self, u):
        fq = self.base
        return (fq.neg(u[0]), fq.neg(u[1]))

    def sub(self, u, v):
        return self.add(u, self.neg(v))

    def mul(self, u, v):
        fq = self.base
        a, b = u
        x, y = v
        ax = fq.mul(a, x)
        by = fq.mul(b, y)
        cross = fq.add(fq.mul(a, y), fq.mul(b, x))
        if self.even:
            # w^2 = w + c
            return (fq.add(ax, fq.mul(by, self.c)), fq.add(cross, by))
        # w^2 = c
        return (fq.add(ax, fq.mul(by, self.c)), cross)

    def frobenius(self, u):
        fq = self.base
        if self.even:
            return (fq.add(u[0], u[1]), u[1])
        return (u[0], fq.neg(u[1]))

    def trace(self, u):
        t = self.add(u, self.frobenius(u))
        if t[1]:
            raise InvariantViolated(f"trace of {u} lies outside F_{self.q}")
        return t[0]

    def norm(self, u):
        n = self.mul(u, self.frobenius(u))
        if n[1]:
            raise InvariantViolated(f"norm of {u} lies outside F_{self.q}")
        return n[0]

    def inv(self, u):
        if u == self.zero:
            raise ZeroElement("0 has no inverse")
        fq = self.base
        n_inv = fq.inv(self.norm(u))
        ub = self.frobenius(u)
        return (fq.mul(ub[0], n_inv), fq.mul(ub[1], n_inv))

    def ratio_trace(self, u):
        """Trace s of u^(q-1) = u^q / u, for u outside F_q.

        u^q / u has norm 1, and its trace (u^2q + u^2) / N(u) is
        T(u)^2 / N(u) - 2.
        """
        fq = self.base
        tr = self.trace(u)
        return fq.sub(fq.div(fq.mul(tr, tr), self.norm(u)), fq.add(1, 1))

    def generates_norm_one(self, s) -> bool:
        """True iff the elements of norm 1 and trace s have order q + 1.

        Such v solve v + 1/v = s, so v^k has trace V_k(s) and v^k = 1 iff
        V_k(s) = 2 (``lucas``); v^(q+1) = N(v) = 1, so v has order q + 1
        iff V_((q+1)/r)(s) != 2 for every prime r dividing q + 1.
        """
        fq, n = self.base, self.q + 1
        two = fq.add(1, 1)
        return all(lucas(fq, s, n // r) != two for r in self._qp1_primes)

    def first_primitive(self):
        """First generator of F_{q^2}* in encoding order.

        u generates iff N(u) = u^(q+1) generates F_q* and u^(q-1) has order
        q + 1.  If so, the order d of u has d / gcd(d, q+1) = q - 1 and
        d / gcd(d, q-1) = q + 1.  A prime dividing only one of q - 1 and
        q + 1 then divides d to its full power in q^2 - 1; for 2 and odd q,
        v_2(d) - min(v_2(d), v_2(q+1)) = v_2(q-1) > 0 forces v_2(d) =
        v_2(q^2 - 1).  So d = q^2 - 1, and the scan, by encoding like a scan
        by element orders, picks the same gamma.  The encodings below q are
        F_q, whose elements have order dividing q - 1, so it starts at q.
        """
        fq, q = self.base, self.q
        for e in range(q, q * q):
            u = self.from_encoding(e)
            if (fq.element_order(self.norm(u)) == q - 1
                    and self.generates_norm_one(self.ratio_trace(u))):
                return u
        raise InvariantViolated(f"F_({q}^2)* has no generator, though it is cyclic")

    def pow(self, u, e):
        if e < 0:
            u, e = self.inv(u), -e
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, u)
            u = self.mul(u, u)
            e >>= 1
        return result


# ---------------------------------------------------------------------------
# Setup: alpha, t, beta


@dataclass(frozen=True)
class FieldSetup:
    """F_q, F_{q^2}, an element alpha of order q+1, its trace t, and a
    primitive element beta of F_q*."""

    pp: PrimePower
    fq: Field
    fq2: QuadraticExtension
    alpha: tuple[int, int]
    t: int
    beta: int


def build_setup(pp: PrimePower) -> FieldSetup:
    """Deterministic setup for PSL(2,q): scan xi by encoding, take the first
    xi**(q-1) of multiplicative order exactly q+1.

    The scan starts at encoding q, the first element outside F_q: the
    encodings 1..q-1 are F_q*, where xi**(q-1) = 1, so none of them can
    yield alpha and skipping them leaves the chosen alpha unchanged.  Each
    candidate is judged on the trace s of xi**(q-1) alone
    (``QuadraticExtension.ratio_trace`` and ``generates_norm_one``), an
    exact test of the same predicate, so alpha = xi^q / xi is the one a
    scan by scalar powers picks; only the winner is built, and t = s.
    beta is the field's ``generator``.
    """
    fq = make_field(pp.l, pp.r)
    fq2 = QuadraticExtension(fq)
    q = pp.q
    for e in range(q, q * q):
        xi = fq2.from_encoding(e)
        t = fq2.ratio_trace(xi)
        if fq2.generates_norm_one(t):
            break
    else:
        raise InvariantViolated(f"q={q}: no element of order q+1 in F_(q^2)*, "
                                "which is cyclic of order q^2-1")
    alpha = fq2.mul(fq2.frobenius(xi), fq2.inv(xi))
    if fq2.norm(alpha) != 1 or fq2.trace(alpha) != t:
        raise InvariantViolated(f"q={q}: xi^q / xi = {alpha} has not norm 1 and trace {t}")
    if t in (0, 1, fq.neg(1)):
        # only happens for q + 1 < 8 (alpha would satisfy X^6 = 1)
        raise ValueError(f"q={q}: trace of alpha degenerate (q+1 >= 8 required)")
    return FieldSetup(pp=pp, fq=fq, fq2=fq2, alpha=alpha, t=t, beta=fq.generator)
