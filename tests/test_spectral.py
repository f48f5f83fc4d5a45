import dataclasses
import hashlib
import json
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psl2units.engine import ConditionEngine
from psl2units.errors import DimensionTooLarge, HInDihedralizer, InvalidSpec
from psl2units.group_ring import GroupRingElement, bass_unit, bicyclic_right
from psl2units.projective import INF
from psl2units.spectral import (
    diagonalizer_identities, eigen_data, exact_certificate, integer_rank,
    nilpotent_part, numeric_oracle, paired_companion, perm_matrix,
    projection_coeffs, recipe_element, row_displacement, sigma_companion,
    square_is_nonzero, unit_matrix, vanishes,
)

from bitmask_oracle import balance_table, intersection_counts
from conftest import _context, cached_context, random_outside_dihedralizer


# -- cyclotomic coefficients --------------------------------------------------


def test_cyclo_zero_iff_constant():
    assert vanishes((2, 2, 2, 2, 2, 2, 2))
    assert not vanishes((2, 2, 2, 2, 2, 2, 3))
    assert vanishes((0,) * 7)
    # against complex evaluation: about half the sequences are constant, the
    # others differ from a constant one in one place by -3..3
    rng = random.Random(0)
    for p in (5, 7, 11):
        zeta = np.exp(2j * np.pi / p)
        for _ in range(100):
            base = rng.randint(-5, 5)
            c = [base] * p
            if rng.random() < 0.5:
                c[rng.randrange(p)] += rng.randint(-3, 3)
            value = sum(coef * zeta ** i for i, coef in enumerate(c))
            assert vanishes(c) == (abs(value) < 1e-9), c


def test_cyclo_root_powers_sum_to_zero():
    p = 11
    total = [0] * p
    for e in range(p):
        total[e] += 1
        assert vanishes(total) == (e == p - 1)


# -- permutation matrices ------------------------------------------------------


def test_perm_matrix_homomorphism(ctx13):
    gens, _ = ctx13
    G = gens.group
    rng = random.Random(1)
    for _ in range(10):
        h1, h2 = G.random_element(rng), G.random_element(rng)
        m1, m2 = perm_matrix(G, h1), perm_matrix(G, h2)
        assert np.array_equal(perm_matrix(G, G.compose(h1, h2)), m1 @ m2)
    ident = perm_matrix(G, G.identity)
    assert np.array_equal(ident, np.eye(G.n_points, dtype=np.int64))
    m = perm_matrix(G, gens.g)
    assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()


def test_unit_matrix_is_linear(ctx13):
    gens, _ = ctx13
    G = gens.group
    u = bass_unit(G, gens.a, 2, 21)
    m = unit_matrix(G, u)
    expected = np.zeros_like(m)
    for s, c in u.coeffs.items():
        expected += c * perm_matrix(G, s)
    assert np.array_equal(m, expected)


# -- eigenvalue data -----------------------------------------------------------


def test_eigen_data_7_2_21():
    ed = eigen_data(7, 2, 21)
    assert ed.values[0] == 1
    assert (ed.b_plus, ed.b_minus) == (1, 3)
    with mpmath.workdps(50):
        for b in (1, 2, 3):
            ref = abs(2 * mpmath.cos(mpmath.pi * b / 7)) ** 21
            assert abs(ed.values[b] - ref) / ref < 1e-9
        for i in range(4):
            for j in range(i + 1, 4):
                gap = abs(ed.values[i] - ed.values[j]) / max(ed.values[i], ed.values[j])
                assert gap > 1e-6


def test_eigen_data_against_direct_evaluation():
    # independent oracle: evaluate the Bass-unit polynomial at the root
    # of unity directly
    p, k, m = 7, 2, 21
    ed = eigen_data(p, k, m)
    with mpmath.workdps(60):
        for b in range(0, 4):
            zeta_b = mpmath.exp(2j * mpmath.pi * b / p)
            geo = sum(zeta_b ** i for i in range(k)) ** m
            corr = mpmath.mpf(1 - k ** m) / p * sum(zeta_b ** i for i in range(p))
            val = geo + corr
            assert abs(mpmath.im(val)) < mpmath.mpf(10) ** -40
            assert abs(abs(val) - ed.values[b]) <= mpmath.mpf(10) ** -30 * ed.values[b]


def test_eigen_data_even_host():
    ed = eigen_data(17, 2, 272)
    assert ed.b_plus == 1 and ed.b_minus != 0
    assert ed.values[ed.b_plus] > 1 > ed.values[ed.b_minus]


def test_eigen_data_rejects_bad_specs():
    with pytest.raises(InvalidSpec):
        eigen_data(7, 1, 21)
    with pytest.raises(InvalidSpec):
        eigen_data(7, 6, 21)   # 6 = -1 mod 7
    with pytest.raises(InvalidSpec):
        eigen_data(7, 2, 20)   # 7 does not divide 20
    with pytest.raises(InvalidSpec):
        eigen_data(7, 3, 21)   # 3^21 != 1 mod 7


def test_eigen_data_is_shared_and_frozen():
    ed = eigen_data(7, 2, 21)
    assert eigen_data(7, 2, 21) is ed
    assert isinstance(ed.values, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ed.b_plus = 2
    for _ in range(2):  # a failed spec is not cached: it raises every time
        with pytest.raises(InvalidSpec):
            eigen_data(7, 3, 21)


# -- exact diagonalization ------------------------------------------------------


def test_diagonalizer_identities_q13(ctx13):
    gens, tab = ctx13
    unitary_ok, diagonal_ok = diagonalizer_identities(gens, tab)
    assert unitary_ok and diagonal_ok


def test_diagonalizer_identities_q16(ctx16):
    gens, tab = ctx16
    assert diagonalizer_identities(gens, tab) == (True, True)


# -- displacement matrices -------------------------------------------------------


def test_sigma_displacement_ranks(ctx13, ctx16):
    gens13, _ = ctx13
    tau13 = nilpotent_part(gens13.group, sigma_companion(gens13))
    assert integer_rank(tau13) == 2
    assert not (tau13 @ tau13).any()

    gens16, _ = ctx16
    tau16 = nilpotent_part(gens16.group, sigma_companion(gens16))
    assert integer_rank(tau16) == 1
    assert not (tau16 @ tau16).any()
    assert not tau16[:, INF].any()  # the column at infinity vanishes


def test_paired_displacement_rank_one(ctx13):
    gens, tab = ctx13
    G = gens.group
    rng = random.Random(2)
    for _ in range(100):
        h = random_outside_dihedralizer(gens, rng)
        tau = nilpotent_part(G, paired_companion(gens, h))
        assert integer_rank(tau) == 1
        assert not (tau @ tau).any()


def test_paired_displacement_image_and_kernel(ctx13):
    gens, tab = ctx13
    G = gens.group
    rng = random.Random(3)
    phi = np.where(tab.glabel == 1, 1, -1)
    for _ in range(20):
        h = random_outside_dihedralizer(gens, rng)
        tau = nilpotent_part(G, paired_companion(gens, h))
        # every nonzero column is +-(the image vector); kernel is the
        # balanced hyperplane
        cols = {tuple(tau[:, y]) for y in range(G.n_points)}
        cols.discard(tuple([0] * G.n_points))
        assert len(cols) == 2
        psi = np.array(next(iter(cols)))
        assert phi @ psi == 0  # image vector inside the kernel
        assert np.array_equal(tau @ psi, np.zeros(G.n_points, dtype=np.int64))


# -- the displacement from permutation rows against the group ring ------------------


def _row(G, m):
    return np.array(G.perm_array(m))


def test_row_displacement_matches_group_ring_on_all_h_q13(ctx13):
    gens, _ = ctx13
    G = gens.group
    perm_g = _row(G, gens.g)
    count = 0
    for h in G.enumerate_elements():
        if G.in_dihedralizer(h, gens.g):
            continue
        assert np.array_equal(row_displacement(perm_g, _row(G, h)),
                              nilpotent_part(G, paired_companion(gens, h)))
        count += 1
    assert count == 1078


@pytest.mark.parametrize("field", [(3, 3, 7), (83, 1, 7), (5, 3, 7)], ids=["27", "83", "125"])
def test_row_displacement_matches_group_ring_on_seeded_h(field):
    gens, _ = cached_context(*field)
    G = gens.group
    perm_g = _row(G, gens.g)
    rng = random.Random(gens.q)
    for _ in range(5):
        h = random_outside_dihedralizer(gens, rng)
        assert np.array_equal(row_displacement(perm_g, _row(G, h)),
                              nilpotent_part(G, paired_companion(gens, h)))


@pytest.mark.parametrize("field", [(2, 4, 17), (2, 5, 11), (2, 6, 13)], ids=["16", "32", "64"])
def test_row_displacement_matches_sigma_companion(field):
    gens, _ = cached_context(*field)
    G = gens.group
    assert np.array_equal(row_displacement(_row(G, gens.sigma), _row(G, gens.g)),
                          nilpotent_part(G, sigma_companion(gens)))


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([(13, 1, 7), (5, 2, 13), (3, 3, 7), (2, 4, 17), (2, 3, 3)]),
       x_name=st.sampled_from(["g", "sigma", "a"]), seed=st.integers(0, 2 ** 32))
def test_row_displacement_is_the_group_ring_image(field, x_name, seed):
    # (1 - x) y xhat for x of every order the generators have and any y,
    # over prime, extension and char 2 fields; y in the dihedralizer of x
    # gives the zero matrix on both routes
    gens, _ = cached_context(*field)
    G = gens.group
    x = getattr(gens, x_name)
    y = G.random_element(random.Random(seed))
    assert np.array_equal(row_displacement(_row(G, x), _row(G, y)),
                          nilpotent_part(G, bicyclic_right(G, x, y)))


@st.composite
def _pooled_columns(draw):
    """A small int64 matrix whose columns are multiples by -1, 0 or 1 of a
    pool of at most three columns, so repeated, zero and negated columns
    occur, as in tau = psi phi^T."""
    n = draw(st.integers(1, 7))
    pool = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         min_size=1, max_size=3))
    cols = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.sampled_from([-1, 0, 1])),
                         min_size=n, max_size=n))
    return np.array([[sign * pool[i][r] for i, sign in cols] for r in range(n)], dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(mat=_pooled_columns())
def test_square_is_nonzero_is_the_full_product(mat):
    assert square_is_nonzero(mat) == bool((mat @ mat).any())


def test_integer_rank_small_cases():
    assert integer_rank(np.zeros((4, 4), dtype=np.int64)) == 0
    assert integer_rank(np.eye(4, dtype=np.int64)) == 4
    m = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert integer_rank(m) == 2


# -- projections ---------------------------------------------------------------


def test_projection_coeffs_zero_vector(ctx13):
    gens, tab = ctx13
    G = gens.group
    rng = random.Random(4)
    h = random_outside_dihedralizer(gens, rng)
    perm_h = G.perm_array(h)
    phi = np.where(tab.glabel == 1, 1, -1)
    zero = np.zeros(G.n_points, dtype=np.int64)
    assert vanishes(projection_coeffs(tab.rows(phi[perm_h]), tab.rows(zero[perm_h])))


def test_projection_coeffs_reproduce_balance_quantities(ctx13, ctx27):
    from psl2units.spectral import _odd_vectors

    for gens, tab in (ctx13, ctx27):
        rng = random.Random(5)
        p = gens.p
        for _ in range(15):
            h = random_outside_dihedralizer(gens, rng)
            perm_h = np.array(gens.group.perm_array(h))
            psi, phi = _odd_vectors(tab, perm_h)
            c = projection_coeffs(tab.rows(phi[perm_h]), tab.rows(psi[perm_h]))
            counts = intersection_counts(gens, h)

            def diff(b):
                return (counts.mb[b % p][0][0][1] + counts.mb[-b % p][0][0][1]
                        - counts.mb[b % p][0][1][0] - counts.mb[-b % p][0][1][0])

            # the coefficient sequence doubles the balance defects
            for b in range(p):
                assert c[b] == 2 * diff(b)
            assert c[0] == 0


@pytest.mark.parametrize("ctx", ["ctx13", "ctx16", "ctx27"])
def test_projection_coeffs_match_the_conjugation_formula(ctx, request):
    # c_b = sum_x phi(x) (w(h a^b h^-1 x) + w(h a^-b h^-1 x)), read through
    # the rows of h, h^-1 and a, for random integer phi and w
    gens, tab = request.getfixturevalue(ctx)
    G, p = gens.group, gens.p
    rng = random.Random(7)
    h = G.random_element(rng)
    perm_h, cur, perm_a = (G.perm_array(x) for x in (h, G.inverse(h), gens.a))
    conj = []  # the rows of h a^b h^-1
    for _ in range(p):
        conj.append(perm_h[cur])
        cur = perm_a[cur]
    phi, w = (np.array([rng.randint(-5, 5) for _ in range(G.n_points)]) for _ in range(2))
    want = tuple(int(phi @ (w[conj[b]] + w[conj[-b % p]])) for b in range(p))
    assert projection_coeffs(tab.rows(phi[perm_h]), tab.rows(w[perm_h])) == want


def test_projection_partition_of_unity(ctx13):
    # summing all spectral projections returns the vector (checked in
    # floating point through the explicit formula)
    gens, tab = ctx13
    G = gens.group
    rng = random.Random(6)
    p = gens.p
    h = random_outside_dihedralizer(gens, rng)
    perm_h = G.perm_array(h)
    perm_hinv = G.perm_array(G.inverse(h))
    perm_a = G.perm_array(gens.a)
    conj = []
    cur = list(perm_hinv)
    for _ in range(p):
        conj.append([perm_h[v] for v in cur])
        cur = [perm_a[v] for v in cur]
    w = np.array([rng.randint(-5, 5) for _ in range(G.n_points)], dtype=float)
    zeta = np.exp(2j * np.pi / p)
    total = np.zeros(G.n_points, dtype=complex)
    for b0 in range((p - 1) // 2 + 1):
        proj = np.zeros(G.n_points, dtype=complex)
        for x in range(G.n_points):
            if b0 == 0:
                proj[x] = sum(w[conj[b][x]] for b in range(p)) / p
            else:
                proj[x] = sum((w[conj[b][x]] + w[conj[(p - b) % p][x]])
                              * zeta ** (b * b0) for b in range(p)) / p
        total += proj
    assert np.allclose(total.imag, 0, atol=1e-9)
    assert np.allclose(total.real, w, atol=1e-9)


# -- certificates ----------------------------------------------------------------


def test_certificate_rejects_dihedralizer(ctx13):
    gens, tab = ctx13
    with pytest.raises(HInDihedralizer):
        exact_certificate(gens, tab, gens.g, 2, 21)
    with pytest.raises(HInDihedralizer):
        numeric_oracle(gens, tab, gens.g, 2, 21)


def test_q13_all_h_certified(ctx13):
    gens, tab = ctx13
    G = gens.group
    count = 0
    for h in G.enumerate_elements():
        if G.in_dihedralizer(h, gens.g):
            continue
        cert = exact_certificate(gens, tab, h, 2, 21)
        assert cert.ok and cert.tau_rank == 1
        assert (cert.b_plus, cert.b_minus) == (1, 3)
        count += 1
    assert count == 1078


def test_certificate_matches_balance_criterion(ctx13, ctx25, ctx27, ctx37):
    # cross-module agreement of the two exact routes, with both outcomes
    # represented
    totals = {True: 0, False: 0}
    for gens, tab in (ctx13, ctx25, ctx27, ctx37):
        rng = random.Random(7)
        k, m = 2, gens.p * (gens.p - 1)
        if pow(2, m, gens.p) != 1:
            m *= 2
        for _ in range(250):
            h = random_outside_dihedralizer(gens, rng)
            cert = exact_certificate(gens, tab, h, k, m)
            unbalanced = not all(balance_table(gens, h).values())
            assert cert.ok == unbalanced
            totals[cert.ok] += 1
    assert totals[True] > 0 and totals[False] > 0


def test_certificate_decides_engine_balance_q27(ctx27):
    # the engine's unbalanced flag, which the density survey counts, is the
    # verdict of the exact certificate; q = 27 has balanced h in the sample
    gens, tab = ctx27
    rng = random.Random(11)
    hs = [random_outside_dihedralizer(gens, rng) for _ in range(300)]
    _, _, _, unbalanced = ConditionEngine(gens, tab).criteria_batch(
        np.array(hs, dtype=np.int64))
    for h, flag in zip(hs, unbalanced):
        assert exact_certificate(gens, tab, h, 2, 21).ok == bool(flag)
    assert 5 <= int((~unbalanced).sum()) < len(hs)


def test_even_recipe_certified_every_base_point(ctx16):
    gens, tab = ctx16
    for x0 in range(gens.group.n_points):
        assert exact_certificate(gens, tab, recipe_element(gens, x0), 2, 272).ok


def test_even_recipe_postconditions(ctx16):
    gens, tab = ctx16
    G = gens.group
    fq = G.fq
    t_inv = fq.inv(gens.setup.t)
    b2t = fq.mul(fq.mul(gens.setup.beta, gens.setup.beta), t_inv)
    x0 = 5
    h = recipe_element(gens, x0)
    x1 = G.apply(gens.a, x0)
    x2 = G.apply(gens.a, x1)
    assert G.apply(h, x0) == 0 + 1
    assert G.apply(h, x1) == t_inv + 1
    assert G.apply(h, x2) == b2t + 1


def test_numeric_oracle_structure(ctx13):
    gens, tab = ctx13
    rng = random.Random(8)
    h = random_outside_dihedralizer(gens, rng)
    res = numeric_oracle(gens, tab, h, 2, 21)
    assert res.ok
    # extreme eigenspaces survive the quotient with dimension exactly one
    assert res.dims["Vbar_plus"] == 1
    assert res.dims["Vbar_minus"] == 1
    assert res.dims["image_bar"] == 1


def test_numeric_oracle_dimension_guard():
    gens, tab = _context(211, 1, 53)
    with pytest.raises(DimensionTooLarge):
        numeric_oracle(gens, tab, gens.group.identity, 2, 53 * 52)


def test_oracle_agreement_on_mixed_outcomes(ctx27):
    gens, tab = ctx27
    rng = random.Random(9)
    k, m = 2, 21
    outcomes = {True: 0, False: 0}
    while outcomes[True] < 12 or outcomes[False] < 3:
        h = random_outside_dihedralizer(gens, rng)
        cert = exact_certificate(gens, tab, h, k, m)
        res = numeric_oracle(gens, tab, h, k, m)
        assert cert.ok == res.ok
        outcomes[cert.ok] += 1


# -- pinned certificates ----------------------------------------------------------

# balanced h (no unbalanced shift, so the certificate refuses them)
BALANCED = {27: [(13, 14, 22, 25), (9, 17, 9, 12)], 83: [(11, 36, 10, 63), (4, 49, 0, 21)]}
# sha256 over the json of exact_certificate(...).as_dict() on five seeded h
# outside D at q = 13, 27 and 83 each, the balanced h above and the q = 16
# recipe elements at x0 = 0, 1, 2, as computed when the certificate read its
# vectors and profiles from per-point loops over the orbit table's lists
CERTIFICATES_SHA256 = "778e95b96656156e3bdb68e17e8c025cba4d4ec73e29b395d72b26917bddb442"


def test_exact_certificates_pinned(ctx13, ctx16, ctx27):
    dicts = []
    for gens, tab in (ctx13, ctx27, cached_context(83, 1, 7)):
        rng = random.Random(gens.q)
        hs = [random_outside_dihedralizer(gens, rng) for _ in range(5)]
        certs = [exact_certificate(gens, tab, h, 2, 21) for h in hs + BALANCED.get(gens.q, [])]
        assert [c.ok for c in certs[5:]] == [False] * len(certs[5:])
        dicts += [c.as_dict() for c in certs]
    gens, tab = ctx16
    dicts += [exact_certificate(gens, tab, recipe_element(gens, x0), 2, 272).as_dict()
              for x0 in range(3)]
    blob = json.dumps(dicts, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == CERTIFICATES_SHA256


# sha256 over the json of exact_certificate(...).as_dict() on five seeded h
# outside D at q = 125, the largest q of the benchmark's certify workload,
# and the recipe elements at x0 = 0, 1, 2 for (q, p) = (32, 11) and (64, 13),
# as computed when the certificate built tau from the group ring
CERTIFICATES_LARGE_SHA256 = "8d9a7b40d845557fafa0eff09437af20502968e66af8e62ce0510db2defb0225"


def test_exact_certificates_pinned_at_q125_and_even_recipes():
    gens, tab = cached_context(5, 3, 7)
    rng = random.Random(gens.q)
    dicts = [exact_certificate(gens, tab, random_outside_dihedralizer(gens, rng), 2, 21).as_dict()
             for _ in range(5)]
    for l, r, p, m in ((2, 5, 11, 110), (2, 6, 13, 156)):
        gens, tab = cached_context(l, r, p)
        dicts += [exact_certificate(gens, tab, recipe_element(gens, x0), 2, m).as_dict()
                  for x0 in range(3)]
    assert all(d["ok"] and d["tau_rank"] == 1 for d in dicts)
    blob = json.dumps(dicts, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == CERTIFICATES_LARGE_SHA256
