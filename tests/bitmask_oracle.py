"""The orbit-sum condition and the balance triple counts as Python-bitmask
popcounts: an oracle for the numpy row functions of ``psl2units.criteria``.

It shares no code with them: the g- and a-orbits are its own point lists,
walked on perm_array(g) and perm_array(a), g^h comes from ``conj_pow`` and
its own permutation array, point sets are bitmasks over the point indices,
and every triple count m[b][i][j][k] = |h a^b h^-1(O_i) n h(O_j) n g h(O_k)|
is counted outright.  ``coset_key`` and ``norm_class`` name the
<g>-double coset and the norm class of an h outside D by scalar
``QuadraticExtension`` arithmetic, as an oracle for the surveys of
``psl2units.engine``.
"""

from __future__ import annotations

from dataclasses import dataclass

from psl2units.errors import BalanceFamiliesDisagree, HInDihedralizer, InvariantViolated

from conftest import ext_pow


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


def image_points(perm, points) -> int:
    """Image mask of a point list under a permutation array."""
    out = 0
    for pt in points:
        out |= 1 << perm[pt]
    return out


def conj_pow(group, x, h):
    """x conjugated in exponent convention: h^-1 * x * h."""
    return group.compose(group.compose(group.inverse(h), x), h)


def _cycles(perm, points) -> list[list[int]]:
    """The cycles of perm through the given points, each walked from the
    first of them not on an earlier cycle."""
    out, seen = [], set()
    for start in points:
        if start in seen:
            continue
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        seen.update(cycle)
        out.append(cycle)
    return out


def orbit_lists(gens) -> tuple[list[list[int]], list[list[list[int]]]]:
    """(g_orbits, a_orbits): g_orbits[i] is O_i in g-iteration order from its
    smallest point (O_0 through infinity, point 0); a_orbits[i] are the
    a-orbits inside O_i, each from its smallest point."""
    group = gens.group
    g_orbits = _cycles(group.perm_array(gens.g).tolist(), range(group.n_points))
    perm_a = group.perm_array(gens.a).tolist()
    return g_orbits, [_cycles(perm_a, sorted(orbit)) for orbit in g_orbits]


def _require_outside_dihedralizer(gens, h):
    if gens.group.in_dihedralizer(h, gens.g):
        raise HInDihedralizer("h normalizes <g>; the companion unit is trivial")


def orbit_sums(gens, h) -> tuple[bool, int, int]:
    """(lhs != rhs, lhs, rhs) of the orbit-sum condition for one h:
    lhs = sum_j |h(O_0j) n O_0| * |O_0j n g^h(O_1)|,
    rhs = sum_j |h(O_1j) n O_0| * |O_1j n g^h(O_0)|."""
    _require_outside_dihedralizer(gens, h)
    group = gens.group
    g_orbits, a_orbits = orbit_lists(gens)
    perm_h = group.perm_array(h).tolist()
    perm_gh = group.perm_array(conj_pow(group, gens.g, h)).tolist()
    ghO = [image_points(perm_gh, g_orbits[k]) for k in range(2)]
    mask_o0 = mask_of(g_orbits[0])
    lhs = rhs = 0
    for j in range(gens.d):
        lhs += intersect_count(image_points(perm_h, a_orbits[0][j]), mask_o0) \
            * intersect_count(mask_of(a_orbits[0][j]), ghO[1])
        rhs += intersect_count(image_points(perm_h, a_orbits[1][j]), mask_o0) \
            * intersect_count(mask_of(a_orbits[1][j]), ghO[0])
    return lhs != rhs, lhs, rhs


@dataclass
class IntersectionCounts:
    """m[j][k] = |h(O_j) n gh(O_k)|; mb[b][i][j][k] adds the h a^b h^-1(O_i)
    constraint, with b stored modulo p."""

    p: int
    m: list[list[int]]
    mb: list[list[list[list[int]]]]  # [b][i][j][k]

    def mb_sym(self, b: int, i: int, j: int, k: int) -> int:
        """Access with b in the symmetric window -(p-1)/2 .. (p-1)/2."""
        return self.mb[b % self.p][i][j][k]

    def shift_sum(self, b: int) -> int:
        """D_b + D_-b, with D_b = m[b][0][0][1] - m[b][0][1][0]."""
        return sum(self.mb_sym(s, 0, 0, 1) - self.mb_sym(s, 0, 1, 0) for s in (b, -b))


def intersection_counts(gens, h) -> IntersectionCounts:
    """All m and m^(b) counts for one h (q odd, h outside D)."""
    if gens.q % 2 == 0:
        raise ValueError("intersection counts are defined for odd q")
    _require_outside_dihedralizer(gens, h)
    group = gens.group
    p = gens.p
    perm_h = group.perm_array(h).tolist()
    perm_hinv = group.perm_array(group.inverse(h)).tolist()
    perm_g = group.perm_array(gens.g).tolist()
    perm_a = group.perm_array(gens.a).tolist()
    g_orbits, _ = orbit_lists(gens)

    h_pts = [[perm_h[pt] for pt in g_orbits[i]] for i in range(2)]
    hO = [image_points(perm_h, g_orbits[j]) for j in range(2)]
    ghO = [image_points(perm_g, h_pts[k]) for k in range(2)]
    m = [[intersect_count(hO[j], ghO[k]) for k in range(2)] for j in range(2)]

    mb = [[[[0, 0] for _ in range(2)] for _ in range(2)] for _ in range(p)]
    for i in range(2):
        layer = [perm_hinv[pt] for pt in g_orbits[i]]  # h^-1(O_i)
        for b in range(p):
            moved = image_points(perm_h, layer)  # h a^b h^-1 (O_i)
            for j in range(2):
                for k in range(2):
                    mb[b][i][j][k] = intersect_count(moved & hO[j], ghO[k])
            layer = [perm_a[pt] for pt in layer]

    counts = IntersectionCounts(p=p, m=m, mb=mb)
    assert_count_invariants(gens, counts)
    return counts


def assert_count_invariants(gens, c: IntersectionCounts):
    """Raise InvariantViolated unless the counts partition as they must."""
    half = (gens.q + 1) // 2
    m, mb, p = c.m, c.mb, c.p
    ok = (m[0][0] + m[0][1] == half and m[1][0] + m[1][1] == half
          and m[0][0] + m[1][0] == half and m[0][1] + m[1][1] == half
          and m[0][1] == m[1][0] and m[0][0] == m[1][1]
          and all(mb[b][0][j][k] + mb[b][1][j][k] == m[j][k]
                  for b in range(p) for j in range(2) for k in range(2))
          and mb[0][0][0][1] == mb[0][0][1][0]
          and mb[0][1][0][1] == mb[0][1][1][0])
    if not ok:
        raise InvariantViolated("intersection counts break the orbit partition "
                                "or the b = 0 symmetry")


def balance_table(gens, h, counts: IntersectionCounts | None = None) -> dict[int, bool]:
    """Per-shift balance equalities of the triple counts.

    For each 0 < b <= (p-1)/2 the entry is True iff
    m[b][0][0][1] + m[-b][0][0][1] == m[b][0][1][0] + m[-b][0][1][0];
    the same equality with first index 1 must agree shift by shift, else
    BalanceFamiliesDisagree is raised.
    """
    c = counts if counts is not None else intersection_counts(gens, h)
    table = {}
    for b in range(1, (gens.p - 1) // 2 + 1):
        eq0 = c.shift_sum(b) == 0
        eq1 = (c.mb_sym(b, 1, 0, 1) + c.mb_sym(-b, 1, 0, 1)
               == c.mb_sym(b, 1, 1, 0) + c.mb_sym(-b, 1, 1, 0))
        if eq0 != eq1:
            raise BalanceFamiliesDisagree(
                "the two balance families must agree shift by shift")
        table[b] = eq0
    return table


def cayley_image(gens, h):
    """w = (h(xi) - xi)/(h(xi) - xi^q) for h outside D and q odd, with
    xi = -alpha the fixed point of g in F_{q^2}."""
    _require_outside_dihedralizer(gens, h)
    fq2 = gens.setup.fq2
    xi = fq2.neg(gens.setup.alpha)
    a, b, c, d = ((x, 0) for x in h)
    num = fq2.add(fq2.mul(a, xi), b)  # h(xi) = num / den
    den = fq2.add(fq2.mul(c, xi), d)
    near = fq2.sub(num, fq2.mul(den, xi))
    far = fq2.sub(num, fq2.mul(den, fq2.frobenius(xi)))
    return fq2.mul(near, fq2.inv(far))


def coset_key(gens, h):
    """kappa(h) = w^((q+1)/2), w the Cayley image of h.

    h -> h(xi) identifies G/<g> with the points of P^1(F_{q^2}) off
    P^1(F_q), and <g> acts on w by the subgroup of order (q+1)/2 of
    F_{q^2}*, the kernel of x -> x^((q+1)/2); so two elements share a key
    exactly when they share a double coset <g> h <g>.
    """
    return ext_pow(gens.setup.fq2, cayley_image(gens, h), (gens.q + 1) // 2)


def norm_class(gens, h):
    """The smaller encoding of nu and 1/nu, nu = N(w) in F_q* the norm of
    the Cayley image of h: the survey's class of h."""
    nu = gens.setup.fq2.norm(cayley_image(gens, h))
    return min(nu, gens.setup.fq.inv(nu))
