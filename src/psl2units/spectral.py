"""Exact and floating-point certification of the free-pair hypotheses.

The conjugated Bass unit acts diagonalizably on the permutation module
of the projective line; a bicyclic candidate contributes a square-zero
displacement.  The pair generates a free group (after quotienting the
kernel overlaps W of the extreme eigenspaces) when four subspace
intersections are trivial.  Everything decisive is computed in exact
integer arithmetic: a linear combination of p-th roots of unity
vanishes iff its coefficient sequence is constant, so every kernel or
orthogonality test reduces to constancy of integer sequences
(``vanishes``).  Floating point appears only in the eigenvalue
magnitudes, where only the ordering matters and the gaps are large, and
in the independent dense oracle used to cross-check the exact verdict.

The exact certificate reads everything from at most three permutation
rows.  The displacement tau = rho(v - 1) of the candidate
v = 1 + (1 - x) y xhat is (I - P_x) P_y sum_j P_x^j, built by
``row_displacement`` from the rows of x and y alone, since the action is
a homomorphism: (x, y) = (g, h) for odd q and (sigma, g) for even q.
The image vector psi and the kernel functional phi are numpy gathers
from the row of h and the orbit table (g^-1 and the g-orbit labels).
Read once along the h-images of the a-orbits through the table's
``rows``, phi and psi give the profiles that decide escape and meet, and
their cyclic correlation gives the projection coefficients.  tau^2 = 0
is decided exactly, in int64 and without a BLAS product, by
``square_is_nonzero``: every column of tau^2 is tau times a column of
tau, so tau is multiplied only by one column of each distinct kind,
which costs O(n^2) for the at most three kinds a correct tau = psi phi^T
has.  Once tau = psi phi^T is checked exactly, its rank is
1 iff psi and phi are nonzero.  The group ring route (``nilpotent_part``
of ``paired_companion`` or ``sigma_companion``, and ``integer_rank``) is
the dense oracle's and the tests'.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionTooLarge, HInDihedralizer, InvalidSpec, InvariantViolated
from .group_ring import GroupRingElement, bicyclic_right
from .orbits import OrbitTable
from .projective import INF, CanonicalGenerators, Element, PSL2


# ---------------------------------------------------------------------------
# Exact cyclotomic arithmetic


def vanishes(c) -> bool:
    """True iff sum_b c_b zeta^b = 0, zeta a primitive p-th root of unity,
    p = len(c) prime: the integer sequence c is constant."""
    return len(set(c)) == 1


# ---------------------------------------------------------------------------
# Matrices of the permutation representation


def perm_matrix(group: PSL2, h: Element) -> np.ndarray:
    """0/1 matrix M with M[x, y] = 1 iff h(y) = x."""
    n = group.n_points
    out = np.zeros((n, n), dtype=np.int64)
    out[group.perm_array(h), np.arange(n)] = 1
    return out


def unit_matrix(group: PSL2, w: GroupRingElement) -> np.ndarray:
    """Image of a group ring element under the permutation representation."""
    n = group.n_points
    cols = np.arange(n)
    out = np.zeros((n, n), dtype=np.int64)
    for s, coeff in w.coeffs.items():
        if abs(coeff) >= 2 ** 40:
            raise OverflowError(f"coefficient {coeff} too large for an int64 matrix")
        out[group.perm_array(s), cols] += coeff
    return out


def nilpotent_part(group: PSL2, v: GroupRingElement) -> np.ndarray:
    """(v - 1) under the permutation representation."""
    return unit_matrix(group, v - 1)


def row_displacement(perm_x: np.ndarray, perm_y: np.ndarray) -> np.ndarray:
    """(I - P_x) P_y sum_j P_x^j, the image of (1 - x) y xhat, from the rows
    of x and y: column c gains e_(y x^j c) - e_(x y x^j c) for every j below
    the order of x, found by walking x's row back to the identity."""
    n = len(perm_x)
    cols = np.arange(n)
    tau = np.zeros((n, n), dtype=np.int64)
    cur = cols  # the row of x^j
    for _ in range(n):
        img = perm_y[cur]
        tau[img, cols] += 1
        tau[perm_x[img], cols] -= 1
        cur = perm_x[cur]
        if np.array_equal(cur, cols):
            return tau
    raise InvariantViolated(f"x does not return to the identity within {n} steps")


def square_is_nonzero(mat: np.ndarray) -> bool:
    """bool((mat @ mat).any()) for a square integer matrix, exactly: column j
    of mat @ mat is mat times column j of mat, so mat is multiplied only by
    the first column of each distinct kind (grouped by bytes), in
    O(n^2 k) for k distinct columns."""
    first = {}
    for j, col in enumerate(mat.T):
        first.setdefault(col.tobytes(), j)
    return bool((mat @ mat[:, list(first.values())]).any())


def sigma_companion(gens: CanonicalGenerators) -> GroupRingElement:
    """The fixed candidate 1 + (1 - sigma) g sigmahat."""
    return bicyclic_right(gens.group, gens.sigma, gens.g)


def paired_companion(gens: CanonicalGenerators, h: Element) -> GroupRingElement:
    """The h-indexed candidate 1 + (1 - g) h ghat (nontrivial iff h outside D)."""
    return bicyclic_right(gens.group, gens.g, h)


def integer_rank(mat: np.ndarray) -> int:
    """Exact rank over the rationals (distinct columns, then elimination)."""
    rows = [[Fraction(x) for x in col] for col in np.unique(mat, axis=1).T.tolist() if any(col)]
    rank = 0
    ncols = mat.shape[0]
    pivot_col = 0
    while rows and pivot_col < ncols:
        pivot_row = next((i for i, row in enumerate(rows) if row[pivot_col]), None)
        if pivot_row is None:
            pivot_col += 1
            continue
        rows[0], rows[pivot_row] = rows[pivot_row], rows[0]
        lead = rows[0][pivot_col]
        head = rows.pop(0)
        for row in rows:
            if row[pivot_col]:
                f = row[pivot_col] / lead
                for j in range(pivot_col, ncols):
                    row[j] -= f * head[j]
        rank += 1
        pivot_col += 1
    return rank


# ---------------------------------------------------------------------------
# Eigenvalue data of the Bass unit


@dataclass(frozen=True)
class EigenData:
    """Magnitudes of the Bass unit evaluated at the p-th roots of unity.

    values[b] = |u(zeta^b)| for 0 <= b <= (p-1)/2 as high-precision reals;
    b_plus and b_minus index the unique maximal and minimal magnitude.
    """

    p: int
    k: int
    m: int
    values: tuple
    b_plus: int
    b_minus: int


@lru_cache(maxsize=None)
def eigen_data(p: int, k: int, m: int) -> EigenData:
    """Magnitudes |u(zeta^b)| = |sin(pi k b/p) / sin(pi b/p)|^m.

    Requires k outside {0, 1, -1} mod p, k^m = 1 mod p and p | m; under
    these the magnitudes are pairwise distinct and the extremes are
    attained away from b = 0.  Cached per (p, k, m); a spec that fails a
    check raises on every call, as nothing is cached for it.
    """
    if k % p in (0, 1, p - 1):
        raise InvalidSpec(f"k={k} is 0 or +-1 mod {p}")
    if pow(k, m, p) != 1:
        raise InvalidSpec(f"k^m != 1 mod {p}")
    if m % p != 0:
        raise InvalidSpec(f"p={p} must divide m={m}")
    import mpmath  # imported here: a sweep never needs it, and it costs about 4 MB
    half = (p - 1) // 2
    with mpmath.workdps(50):
        values = [mpmath.mpf(1)]
        for b in range(1, half + 1):
            ratio = abs(mpmath.sin(mpmath.pi * k * b / p) / mpmath.sin(mpmath.pi * b / p))
            values.append(ratio ** m)
        # in sorted order every pair's relative gap is at least that of an
        # adjacent pair, so checking neighbours decides all pairs
        order = sorted(range(half + 1), key=values.__getitem__)
        for i, j in zip(order, order[1:]):
            gap = (values[j] - values[i]) / values[j]
            if not gap > 1e-6:
                raise InvariantViolated(f"p={p}, k={k}, m={m}: magnitude collision "
                                        f"at b={min(i, j)},{max(i, j)}")
        b_plus = max(range(1, half + 1), key=lambda b: values[b])
        b_minus = min(range(1, half + 1), key=lambda b: values[b])
        if not values[b_plus] > 1 > values[b_minus]:
            raise InvariantViolated(f"p={p}, k={k}, m={m}: an extreme magnitude "
                                    "is attained at b = 0")
    return EigenData(p=p, k=k, m=m, values=tuple(values), b_plus=b_plus, b_minus=b_minus)


# ---------------------------------------------------------------------------
# Exact checks of the diagonalizing matrix


def diagonalizer_identities(gens: CanonicalGenerators, tab: OrbitTable) -> tuple[bool, bool]:
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


# ---------------------------------------------------------------------------
# Projections and the exact certificate


def projection_coeffs(phi_prof: np.ndarray, w_prof: np.ndarray) -> tuple[int, ...]:
    """Coefficient sequence c with phi(pi_b0(w)) = (1/p) sum_b c_b zeta^(b b0).

    The profiles are phi and w read along the h-images of the a-orbits,
    ``tab.rows(phi[perm_h])``: phi_prof[o, t] = phi(h a^t(z_o)).  c_b applies
    phi to x -> w[h a^b h^-1 (x)] + w[h a^-b h^-1 (x)], which is the cyclic
    correlation of the two profiles at +b and -b, summed over the a-orbits.
    The projection of w onto the b0-eigenspace pair escapes ker(phi) for
    one (equivalently every) b0 != 0 iff the sequence is non-constant.
    """
    # For odd q, c_b = 2(D_b + D_-b) of criteria.shift_sums; the correlation
    # is computed here on its own so that the certificate stays a second
    # exact route to the balance verdict, not a reading of the first.
    p = phi_prof.shape[-1]
    windows = sliding_window_view(np.concatenate([w_prof, w_prof], axis=-1), p, axis=-1)
    corr = np.einsum("ot,obt->b", phi_prof, windows[:, :p])  # sum_t phi_t w_(t+b)
    return tuple((corr + corr[-np.arange(p) % p]).tolist())


def _odd_vectors(tab: OrbitTable, perm_h: np.ndarray):
    """Image vector (+1 on h(O_0) n gh(O_1), -1 on h(O_1) n gh(O_0)), which
    is 1_{h(O_0)} - 1_{gh(O_0)}, and the kernel functional (+1 on O_0, -1
    on O_1), for the row perm_h of h."""
    ind = np.empty_like(perm_h)  # [x in h(O_0)]
    ind[perm_h] = tab.glabel == 1
    return ind - ind[tab.perm_g_inv], np.where(tab.glabel == 1, 1, -1)


def _even_vectors(gens: CanonicalGenerators):
    """Image vector supported on -1/t and -beta^2/t, and the kernel
    functional (q-1, 0, -1, ..., -1) over (0, infinity, F_q*)."""
    fq = gens.group.fq
    t_inv = fq.inv(gens.setup.t)
    x_pos = fq.neg(t_inv)
    x_neg = fq.neg(fq.mul(fq.mul(gens.setup.beta, gens.setup.beta), t_inv))
    n = gens.group.n_points
    psi = np.zeros(n, dtype=np.int64)
    psi[x_pos + 1] = 1
    psi[x_neg + 1] = -1
    phi = np.full(n, -1, dtype=np.int64)
    phi[INF] = 0
    phi[0 + 1] = gens.q - 1
    return psi, phi


@dataclass(slots=True)
class ExactCertificate:
    """Outcome of the exact four-intersection check for one (h, k, m)."""

    q: int
    p: int
    k: int
    m: int
    parity: str
    h: Element
    b_plus: int
    b_minus: int
    tau_rank: int
    eigenspaces_escape: bool   # every relevant eigenspace leaves the kernel hyperplane
    image_meets: bool          # the image vector is non-orthogonal to each of them
    projections_escape: bool   # its extreme spectral projections leave the hyperplane
    ok: bool

    def as_dict(self):
        return {**asdict(self), "h": list(self.h)}


def _displacement(gens: CanonicalGenerators, h: Element, k: int, m: int,
                  perm_h: np.ndarray | None = None):
    """Parity of q, eigen data of the Bass unit and the dense displacement
    tau = rho(v - 1) of the candidate v that the certificates pair with it:
    1 + (1 - g) h ghat for odd q (h must avoid the dihedralizer) and
    1 + (1 - sigma) g sigmahat for even q.  Given the row perm_h of h, tau
    comes from ``row_displacement`` over the rows of (g, h) or (sigma, g);
    without it, from the group ring, which is the dense oracle's route."""
    group = gens.group
    parity = "even" if gens.q % 2 == 0 else "odd"
    ed = eigen_data(gens.p, k, m)
    if parity == "odd" and group.in_dihedralizer(h, gens.g):
        raise HInDihedralizer("h normalizes <g>")
    if perm_h is None:
        v = sigma_companion(gens) if parity == "even" else paired_companion(gens, h)
        return parity, ed, nilpotent_part(group, v)
    if parity == "even":
        x, perm_y = gens.sigma, group.perm_array(gens.g)
    else:
        x, perm_y = gens.g, perm_h
    return parity, ed, row_displacement(group.perm_array(x), perm_y)


def exact_certificate(gens: CanonicalGenerators, tab: OrbitTable, h: Element,
                      k: int, m: int) -> ExactCertificate:
    """Exact verdict on the four-intersection hypotheses for (u_h, candidate).

    Odd q pairs the conjugated Bass unit with the h-indexed bicyclic
    candidate (h must avoid the dihedralizer); even q uses the fixed
    sigma-based candidate with arbitrary h.  All structure facts are
    recomputed, never assumed; the contingent condition is whether the
    extreme projections of the image vector escape the kernel hyperplane.
    """
    perm_h = gens.group.perm_array(h)
    parity, ed, tau = _displacement(gens, h, k, m, perm_h)
    psi, phi = _odd_vectors(tab, perm_h) if parity == "odd" else _even_vectors(gens)

    if square_is_nonzero(tau):
        raise InvariantViolated("displacement must square to zero")
    if not np.array_equal(tau, np.outer(psi, phi)):
        raise InvariantViolated("displacement must factor through the expected image vector")
    if phi @ psi != 0:
        raise InvariantViolated("image vector must lie in the kernel hyperplane")
    rank = int(psi.any() and phi.any())  # the rank of psi phi^T, which tau equals
    if rank != 1:
        raise InvariantViolated(f"displacement has rank {rank}, not 1")

    # Only the nonzero shifts matter: the certificate needs the extreme
    # eigenspaces out of the kernel hyperplane and the image vector
    # non-orthogonal to some intermediate eigenspace.  (The 0-shift
    # eigenspace genuinely sits inside the hyperplane when q + 1 = p.)
    # phi and psi read along the h-images of the a-orbits, one a-orbit a row
    phi_prof, psi_prof = tab.rows(phi[perm_h]), tab.rows(psi[perm_h])
    escapes, meets = (bool((prof != prof[:, :1]).any()) for prof in (phi_prof, psi_prof))
    projections_escape = not vanishes(projection_coeffs(phi_prof, psi_prof))

    return ExactCertificate(
        q=gens.q, p=gens.p, k=k, m=m, parity=parity, h=h,
        b_plus=ed.b_plus, b_minus=ed.b_minus, tau_rank=rank,
        eigenspaces_escape=escapes, image_meets=meets,
        projections_escape=projections_escape,
        ok=escapes and meets and projections_escape,
    )


def recipe_element(gens: CanonicalGenerators, x0: int) -> Element:
    """The even-q element sending (x0, a(x0), a^2(x0)) to (0, 1/t, beta^2/t)."""
    group = gens.group
    fq = group.fq
    t_inv = fq.inv(gens.setup.t)
    b2t = fq.mul(fq.mul(gens.setup.beta, gens.setup.beta), t_inv)
    x1 = group.apply(gens.a, x0)
    x2 = group.apply(gens.a, x1)
    return group.three_point_map(x0, x1, x2, 0 + 1, t_inv + 1, b2t + 1)


# ---------------------------------------------------------------------------
# Dense numeric oracle

NUMERIC_TOL = 1e-8  # singular values below this times the largest count as zero


@dataclass
class NumericCertificate:
    q: int
    p: int
    k: int
    m: int
    parity: str
    b_plus: int
    b_minus: int
    dims: dict
    plus_kernel_trivial: bool
    minus_kernel_trivial: bool
    image_avoids_plus: bool
    image_avoids_minus: bool
    ok: bool

    def as_dict(self):
        return asdict(self)


def _numeric_rank(s: np.ndarray) -> int:
    """Singular values s (descending) above NUMERIC_TOL times the largest."""
    return int((s > NUMERIC_TOL * s[0]).sum()) if s.size and s[0] else 0


def _orth(cols: np.ndarray) -> np.ndarray:
    if cols.shape[1] == 0:
        return cols
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, :_numeric_rank(s)]


def _nullspace(mat: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(mat)
    return vh[_numeric_rank(s):].conj().T


def _rank(cols: np.ndarray) -> int:
    if cols.shape[1] == 0:
        return 0
    return _numeric_rank(np.linalg.svd(cols, compute_uv=False))


def _intersection_dim(a: np.ndarray, b: np.ndarray) -> int:
    ra, rb = _rank(a), _rank(b)
    if ra == 0 or rb == 0:
        return 0
    return ra + rb - _rank(np.hstack([a, b]))


def _intersection_basis(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] == 0 or b.shape[1] == 0:
        return a[:, :0]
    null = _nullspace(np.hstack([a, -b]))
    if null.shape[1] == 0:
        return a[:, :0]
    return _orth(a @ null[:a.shape[1], :])


def numeric_oracle(gens: CanonicalGenerators, tab: OrbitTable, h: Element,
                   k: int, m: int) -> NumericCertificate:
    """Dense complex-arithmetic re-derivation of the exact certificate.

    Builds the closed-form eigenbasis of the conjugated Bass unit action,
    the displacement matrix, the kernel overlaps W, and checks the four
    intersections in the quotient by rank computations with singular
    values thresholded at NUMERIC_TOL times the largest.  The displacement
    comes from the group ring (``nilpotent_part`` of the candidate), not
    from the permutation rows the exact certificate builds it from, so the
    two routes share no builder.
    """
    group = gens.group
    q = gens.q
    if q > 200:
        raise DimensionTooLarge(f"q={q} exceeds the dense oracle bound 200")
    parity, ed, tau = _displacement(gens, h, k, m)
    tau = tau.astype(complex)
    p = gens.p
    n = group.n_points

    perm_h = group.perm_array(h)
    zeta = np.exp(-2j * np.pi / p)
    plus_cols, minus_cols, zero_cols = [], [], []
    for images in tab.rows(perm_h).tolist():  # h-image of each a-orbit
        for bp in range(p):
            col = np.zeros(n, dtype=complex)
            for c_idx, x in enumerate(images):
                col[x] = zeta ** (c_idx * bp)
            cls = min(bp, p - bp)
            if cls == ed.b_plus:
                plus_cols.append(col)
            elif cls == ed.b_minus:
                minus_cols.append(col)
            else:
                zero_cols.append(col)
    v_plus = _orth(np.array(plus_cols).T)
    v_minus = _orth(np.array(minus_cols).T)
    v_zero = _orth(np.array(zero_cols).T)

    kernel = _nullspace(tau)
    w_parts = [_intersection_basis(v_plus, kernel),
               _intersection_basis(v_minus, kernel)]
    w = _orth(np.hstack(w_parts))
    proj = np.eye(n, dtype=complex) - w @ w.conj().T

    vb_plus = _orth(proj @ v_plus)
    vb_minus = _orth(proj @ v_minus)
    vb_zero = _orth(proj @ v_zero)
    tau_bar = proj @ tau
    ker_bar = _orth(proj @ _nullspace(tau_bar))
    im_bar = _orth(tau_bar)

    c1 = _intersection_dim(vb_plus, ker_bar) == 0
    c2 = _intersection_dim(vb_minus, ker_bar) == 0
    sum_plus = _orth(np.hstack([vb_zero, vb_plus]))
    sum_minus = _orth(np.hstack([vb_zero, vb_minus]))
    c3 = _intersection_dim(im_bar, sum_plus) == 0
    c4 = _intersection_dim(im_bar, sum_minus) == 0

    dims = {
        "V_plus": v_plus.shape[1], "V_minus": v_minus.shape[1],
        "V_zero": v_zero.shape[1], "W": w.shape[1],
        "Vbar_plus": vb_plus.shape[1], "Vbar_minus": vb_minus.shape[1],
        "image_bar": im_bar.shape[1], "kernel_bar": ker_bar.shape[1],
    }
    return NumericCertificate(
        q=q, p=p, k=k, m=m, parity=parity,
        b_plus=ed.b_plus, b_minus=ed.b_minus, dims=dims,
        plus_kernel_trivial=c1, minus_kernel_trivial=c2,
        image_avoids_plus=c3, image_avoids_minus=c4,
        ok=c1 and c2 and c3 and c4,
    )
