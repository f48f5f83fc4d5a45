"""Output checks made apart from psl2units.

Everything here is recomputed from the definitions with this file's own
arithmetic, so a fault in the program's fields, action, orbit tables or
criteria cannot hide itself.  Only the documented conventions are shared
with the program: a field element is encoded as sum(c_i * l**i) in the
basis of the first monic irreducible modulus (low coefficients compared
first), point 0 of the projective line is infinity and point x + 1 is
the element with encoding x, and g = [[0, -1], [1, t]].

Each ``check_*`` function raises ``CheckFailed`` on the first violation.
"""

from __future__ import annotations

import itertools
import random


class CheckFailed(Exception):
    """A program output contradicts its independent recomputation."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Numbers


def prime_power(n: int):
    """(l, r) with n = l**r for a prime l, or None."""
    if n < 2:
        return None
    l = next(f for f in range(2, n + 1) if n % f == 0)
    r = 0
    while n % l == 0:
        n //= l
        r += 1
    return (l, r) if n == 1 else None


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def admissible_pairs(q_min: int, q_max: int) -> list[tuple[int, int]]:
    """(q, p): odd prime powers q in range, primes p > 5 dividing q + 1."""
    return [(q, p) for q in range(q_min, q_max + 1)
            if q % 2 and prime_power(q)
            for p in range(7, q + 2) if (q + 1) % p == 0 and is_prime(p)]


# ---------------------------------------------------------------------------
# F_q on encodings


def _poly_divides(f, g, l) -> bool:
    """Does monic g divide f over F_l?  Coefficients low degree first."""
    rem = list(f)
    dg = len(g) - 1
    for top in range(len(rem) - 1, dg - 1, -1):
        lead = rem[top]
        if lead:
            for i, c in enumerate(g):
                rem[top - dg + i] = (rem[top - dg + i] - lead * c) % l
    return not any(rem[:dg])


def _first_irreducible(l: int, r: int) -> tuple[int, ...]:
    """Low coefficients (c_0..c_{r-1}) of the first monic irreducible of
    degree r, tuples compared low coefficient first; irreducibility by
    trial division with every monic polynomial of degree 1..r/2."""
    divisors = [low + (1,) for k in range(1, r // 2 + 1)
                for low in itertools.product(range(l), repeat=k)]
    for low in itertools.product(range(l), repeat=r):
        f = low + (1,)
        if not any(_poly_divides(f, g, l) for g in divisors):
            return low
    raise CheckFailed(f"no irreducible of degree {r} over F_{l}")


class Field:
    """F_q on integer encodings, built from the definition of the basis."""

    def __init__(self, q: int):
        lr = prime_power(q)
        require(lr is not None, f"{q} is not a prime power")
        self.q = q
        self.l, self.r = l, r = lr
        if r == 1:
            return
        low = _first_irreducible(l, r)
        # exp/log tables from any element whose powers reach all of F_q*
        for gen in range(l, q):
            exp = [1]
            while len(exp) < q:
                nxt = self._poly_mul_x(exp[-1], gen, low)
                if nxt == 1:
                    break
                exp.append(nxt)
            if len(exp) == q - 1:
                break
        require(len(exp) == q - 1, f"F_{q}* has no generator")
        self.exp = exp
        self.log = {e: i for i, e in enumerate(exp)}

    def _digits(self, x):
        return [(x // self.l ** i) % self.l for i in range(self.r)]

    def _poly_mul_x(self, x, y, low):
        """x * y in F_l[X]/(X^r + sum low_i X^i), on encodings."""
        l, r = self.l, self.r
        dx, dy = self._digits(x), self._digits(y)
        prod = [0] * (2 * r - 1)
        for i, a in enumerate(dx):
            for j, b in enumerate(dy):
                prod[i + j] += a * b
        for top in range(2 * r - 2, r - 1, -1):
            lead = prod[top] % l
            prod[top] = 0
            for i, c in enumerate(low):
                prod[top - r + i] -= lead * c
        return sum((c % l) * l ** i for i, c in enumerate(prod[:r]))

    def add(self, x, y):
        if self.r == 1:
            return (x + y) % self.q
        l = self.l
        out, scale = 0, 1
        while x or y:
            out += ((x % l + y % l) % l) * scale
            x //= l
            y //= l
            scale *= l
        return out

    def neg(self, x):
        if self.r == 1:
            return -x % self.q
        return sum(((self.l - c) % self.l) * self.l ** i
                   for i, c in enumerate(self._digits(x)))

    def mul(self, x, y):
        if self.r == 1:
            return x * y % self.q
        if x == 0 or y == 0:
            return 0
        return self.exp[(self.log[x] + self.log[y]) % (self.q - 1)]

    def inv(self, x):
        require(x != 0, "inverse of 0")
        if self.r == 1:
            return pow(x, self.q - 2, self.q)
        return self.exp[-self.log[x] % (self.q - 1)]

    def det(self, m):
        a, b, c, d = m
        return self.add(self.mul(a, d), self.neg(self.mul(b, c)))

    def random_sl2(self, rng: random.Random):
        """A seeded determinant-1 matrix."""
        q = self.q
        a = rng.randrange(q)
        if a:
            b, c = rng.randrange(q), rng.randrange(q)
            return (a, b, c, self.mul(self.add(1, self.mul(b, c)), self.inv(a)))
        b = rng.randrange(1, q)
        return (0, b, self.neg(self.inv(b)), rng.randrange(q))


# ---------------------------------------------------------------------------
# The action on the projective line and the orbit structure of <g>


def perm(F: Field, m) -> list[int]:
    """Moebius images x -> (a x + b)/(c x + d) of every point index."""
    a, b, c, d = m
    out = [0 if c == 0 else F.mul(a, F.inv(c)) + 1]
    for x in range(F.q):
        den = F.add(F.mul(c, x), d)
        out.append(0 if den == 0 else F.mul(F.add(F.mul(a, x), b), F.inv(den)) + 1)
    return out


def inverse_perm(pm: list[int]) -> list[int]:
    out = [0] * len(pm)
    for x, y in enumerate(pm):
        out[y] = x
    return out


class Geometry:
    """g = [[0, -1], [1, t]], its two orbits O_0 (through infinity) and
    O_1, and the a-orbits inside them for a = g^d, d = (q + 1) / (2p)."""

    def __init__(self, F: Field, t: int, p: int):
        q = F.q
        self.F, self.p, self.n = F, p, q + 1
        self.pg = perm(F, (0, F.neg(1), 1, t))
        half = (q + 1) // 2
        require(half % p == 0, f"p={p} does not divide (q+1)/2")
        self.d = half // p
        self.orbits = []
        seen = set()
        for start in range(self.n):
            if start in seen:
                continue
            cyc = [start]
            while self.pg[cyc[-1]] != start:
                cyc.append(self.pg[cyc[-1]])
            seen.update(cyc)
            self.orbits.append(cyc)
        require([len(o) for o in self.orbits] == [half, half],
                f"g has orbit lengths {[len(o) for o in self.orbits]}")
        self.O = [set(o) for o in self.orbits]
        # a = g^d walks each g-orbit in steps of d
        self.a_orbits = [[cyc[j::self.d] for j in range(self.d)] for cyc in self.orbits]
        self.pa = [0] * self.n
        for cyc in self.orbits:
            for k, x in enumerate(cyc):
                self.pa[x] = cyc[(k + self.d) % half]

    def outside_dihedralizer(self, ph: list[int]) -> bool:
        """h g h^-1 is neither g nor g^-1 (the action is faithful)."""
        phinv = inverse_perm(ph)
        conj = [ph[self.pg[phinv[x]]] for x in range(self.n)]
        return conj != self.pg and conj != inverse_perm(self.pg)

    def orbit_sums(self, ph: list[int]) -> tuple[int, int]:
        """lhs = sum_j |h(O_0j) n O_0| |O_0j n g^h(O_1)| and rhs the same
        with O_0 and O_1 swapped in the a-orbit and g^h-orbit roles, for
        g^h = h^-1 g h."""
        phinv = inverse_perm(ph)
        gh = [phinv[self.pg[ph[y]]] for y in range(self.n)]
        gh_img = [{gh[y] for y in self.orbits[k]} for k in range(2)]
        o0 = self.O[0]
        sums = []
        for i, other in ((0, 1), (1, 0)):
            sums.append(sum(sum(ph[x] in o0 for x in orb) * len(gh_img[other].intersection(orb))
                            for orb in self.a_orbits[i]))
        return sums[0], sums[1]

    def unbalanced(self, ph: list[int]) -> bool:
        """Some 0 < b <= (p-1)/2 with D_b + D_-b != 0, where D_b =
        m^(b)[0][0][1] - m^(b)[0][1][0] and m^(b)[i][j][k] =
        |h a^b h^-1(O_i) n h(O_j) n g h(O_k)|."""
        p, pg = self.p, self.pg
        hO = [{ph[x] for x in o} for o in self.orbits]
        ghO = [{pg[ph[x]] for x in o} for o in self.orbits]
        phinv = inverse_perm(ph)
        layer = [phinv[x] for x in self.orbits[0]]  # h^-1(O_0)
        D = []
        for _ in range(p):
            moved = {ph[x] for x in layer}
            D.append(len(moved & hO[0] & ghO[1]) - len(moved & hO[1] & ghO[0]))
            layer = [self.pa[x] for x in layer]
        return any(D[b] + D[-b] for b in range(1, (p - 1) // 2 + 1))


# ---------------------------------------------------------------------------
# Checks on program outputs


def check_witness(geo: Geometry, h) -> None:
    """h has determinant 1, lies outside D and meets the orbit-sum condition."""
    F = geo.F
    require(len(h) == 4 and all(0 <= e < F.q for e in h), f"h={h} is not a matrix over F_{F.q}")
    require(F.det(h) == 1, f"det h != 1 for h={h}")
    ph = perm(F, h)
    require(geo.outside_dihedralizer(ph), f"h={h} normalizes <g>")
    lhs, rhs = geo.orbit_sums(ph)
    require(lhs != rhs, f"h={h} has equal orbit sums {lhs}")


def check_sweep(records: list[dict], q_min: int, q_max: int) -> None:
    """The sweep output names every admissible pair once, in order, and each
    witness is valid for its pair."""
    keys = [(r["q"], r["p"]) for r in records]
    require(keys == admissible_pairs(q_min, q_max), "pair list differs from the enumeration")
    for rec in records:
        q, p = rec["q"], rec["p"]
        require(rec["satisfied"] is True and rec.get("h") is not None,
                f"({q}, {p}) reports no witness")
        require((rec["l"], rec["r"]) == prime_power(q), f"({q}, {p}): wrong l, r")
        require(rec["d"] == (q + 1) // (2 * p), f"({q}, {p}): wrong d")
        F = Field(q)
        t = rec["t_encoding"]
        require(0 <= t < q and all(F.add(F.mul(x, F.add(x, F.neg(t))), 1) for x in range(q)),
                f"({q}, {p}): X^2 - {t}X + 1 has a root in F_q")
        check_witness(Geometry(F, t, p), rec["h"])


def check_exhaustive(rec: dict, seeded_rows, batch_verdicts) -> None:
    """Survey counts obey the group order and <g>-double-coset invariance,
    first_h is a witness, and the engine's verdicts on seeded rows agree
    with the recomputation: ``batch_verdicts`` is (differs, lhs, rhs)."""
    q, p = rec["q"], rec["p"]
    sat, total = (int(x) for x in rec["fraction"].split("/"))
    require(total == q * (q * q - 1) // 2 - (q + 1), f"total {total} != |G - D|")
    coset = ((q + 1) // 2) ** 2
    require(total % coset == 0 and sat % coset == 0,
            f"{sat}/{total} are not multiples of the double-coset size {coset}")
    require(0 < sat <= total and rec["tries"] == total, "survey counts out of range")
    geo = Geometry(Field(q), rec["t_encoding"], p)
    check_witness(geo, rec["h"])
    differs, lhs, rhs = batch_verdicts
    require(len(differs) == len(seeded_rows), "engine verdict count")
    for h, dv, lv, rv in zip(seeded_rows, differs, lhs, rhs):
        mine = geo.orbit_sums(perm(geo.F, h))
        require((bool(dv), int(lv), int(rv)) == (mine[0] != mine[1], *mine),
                f"engine verdict on h={h} differs from the recomputation")


def seeded_rows(geo: Geometry, seed: int, count: int) -> list[tuple]:
    """Seeded determinant-1 matrices outside D."""
    rng = random.Random(seed)
    rows = []
    while len(rows) < count:
        h = geo.F.random_sl2(rng)
        if geo.outside_dihedralizer(perm(geo.F, h)):
            rows.append(h)
    return rows


def check_certificates(geo: Geometry, hs, certs, reports) -> None:
    """Each certificate has a rank-one displacement, and its verdict equals
    the recomputed balance verdict and the program's criterion report."""
    require(len(certs) == len(hs) == len(reports), "certificate count")
    for h, cert, report in zip(hs, certs, reports):
        require(cert.tau_rank == 1, f"tau rank {cert.tau_rank} for h={h}")
        mine = geo.unbalanced(perm(geo.F, h))
        require(cert.ok == mine, f"certificate ok={cert.ok} but unbalanced={mine} for h={h}")
        require(report.unbalanced == mine, f"criterion_report disagrees for h={h}")

