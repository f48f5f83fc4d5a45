import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psl2units.classify import multiplicative_order
from psl2units.engine import ConditionEngine
from psl2units.finite_fields import is_prime
from psl2units import spectral
from psl2units.errors import DimensionTooLarge, HInDihedralizer, InvalidSpec, InvariantViolated
from psl2units.group_ring import GroupRingElement, bicyclic_right
from psl2units.projective import INF
from psl2units.spectral import (
    eigen_data, exact_certificate,
    integer_rank, nilpotent_part, numeric_oracle, projection_coeffs, recipe_element,
    row_displacement, unit_matrix, vanishes,
)

from bitmask_oracle import balance_table, intersection_counts
from conftest import (
    _context, bass_unit, cached_context, diagonalizer_identities, random_outside_dihedralizer,
)


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


def _perm_matrix(G, h):
    """0/1 matrix M with M[x, y] = 1 iff h(y) = x: unit_matrix of the term h."""
    return unit_matrix(G, GroupRingElement.from_element(G, h))


def test_perm_matrix_homomorphism(ctx13):
    gens, _ = ctx13
    G = gens.group
    rng = random.Random(1)
    for _ in range(10):
        h1, h2 = G.random_element(rng), G.random_element(rng)
        m1, m2 = _perm_matrix(G, h1), _perm_matrix(G, h2)
        assert np.array_equal(_perm_matrix(G, G.compose(h1, h2)), m1 @ m2)
    ident = _perm_matrix(G, G.identity)
    assert np.array_equal(ident, np.eye(G.n_points, dtype=np.int64))
    m = _perm_matrix(G, gens.g)
    assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()


def test_unit_matrix_is_linear(ctx13):
    gens, _ = ctx13
    G = gens.group
    u = bass_unit(G, gens.a, 2, 21)
    m = unit_matrix(G, u)
    expected = np.zeros_like(m)
    for s, c in u.coeffs.items():
        expected += c * _perm_matrix(G, s)
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
    with pytest.raises(InvalidSpec, match="m=0 must be a positive multiple"):
        eigen_data(7, 2, 0)    # passes the other checks, then magnitudes collide
    with pytest.raises(InvalidSpec, match="m=-21 must be a positive multiple"):
        eigen_data(7, 2, -21)  # 2^-21 = 1 mod 7: the extremes of m = 21, swapped


def test_eigen_data_closed_form_matches_mpmath():
    # k = 2: b_plus = 1 and b_minus = (p-1)/2, against the extremes of the
    # mpmath magnitudes, which must be distinct and straddle values[0] = 1
    primes = [p for p in range(7, 500) if is_prime(p)]
    assert len(primes) == 92
    for p in primes:
        m = p * multiplicative_order(2, p)
        ed = eigen_data(p, 2, m)
        values = spectral._magnitudes(p, 2, m)
        half = (p - 1) // 2
        assert ed.b_plus == max(range(1, half + 1), key=values.__getitem__) == 1, p
        assert ed.b_minus == min(range(1, half + 1), key=values.__getitem__) == half, p
        assert len(set(values)) == half + 1 and values[1] > 1 > values[half], p


def test_exact_certificate_leaves_mpmath_unimported():
    code = """
import random, sys
from psl2units.finite_fields import PrimePower, build_setup
from psl2units.orbits import build_orbits
from psl2units.projective import make_generators
from psl2units.spectral import exact_certificate
gens = make_generators(build_setup(PrimePower.from_q(27)), 7)
rng = random.Random(0)
h = gens.group.random_element(rng)
while gens.group.in_dihedralizer(h, gens.g):
    h = gens.group.random_element(rng)
exact_certificate(gens, build_orbits(gens), h, 2, 21)
print("mpmath" in sys.modules)
"""
    src = str(Path(spectral.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    tau13 = nilpotent_part(gens13.group, bicyclic_right(gens13.group, gens13.sigma, gens13.g))
    assert integer_rank(tau13) == 2
    assert not (tau13 @ tau13).any()

    gens16, _ = ctx16
    tau16 = nilpotent_part(gens16.group, bicyclic_right(gens16.group, gens16.sigma, gens16.g))
    assert integer_rank(tau16) == 1
    assert not (tau16 @ tau16).any()
    assert not tau16[:, INF].any()  # the column at infinity vanishes


def test_paired_displacement_rank_one(ctx13):
    gens, tab = ctx13
    G = gens.group
    rng = random.Random(2)
    for _ in range(100):
        h = random_outside_dihedralizer(gens, rng)
        tau = nilpotent_part(G, bicyclic_right(G, gens.g, h))
        assert integer_rank(tau) == 1
        assert not (tau @ tau).any()


def test_paired_displacement_image_and_kernel(ctx13):
    gens, tab = ctx13
    G = gens.group
    rng = random.Random(3)
    phi = np.where(tab.glabel == 1, 1, -1)
    for _ in range(20):
        h = random_outside_dihedralizer(gens, rng)
        tau = nilpotent_part(G, bicyclic_right(G, gens.g, h))
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


def _dense(perm_x, perm_y):
    """row_displacement over every column: the whole n x n tau."""
    return row_displacement(perm_x, perm_y, np.arange(len(perm_x)))


def test_row_displacement_matches_group_ring_on_all_h_q13(ctx13):
    gens, _ = ctx13
    G = gens.group
    perm_g = _row(G, gens.g)
    count = 0
    for h in G.enumerate_elements():
        if G.in_dihedralizer(h, gens.g):
            continue
        assert np.array_equal(_dense(perm_g, _row(G, h)),
                              nilpotent_part(G, bicyclic_right(G, gens.g, h)))
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
        assert np.array_equal(_dense(perm_g, _row(G, h)),
                              nilpotent_part(G, bicyclic_right(G, gens.g, h)))


@pytest.mark.parametrize("field", [(2, 4, 17), (2, 5, 11), (2, 6, 13)], ids=["16", "32", "64"])
def test_row_displacement_matches_sigma_companion(field):
    gens, _ = cached_context(*field)
    G = gens.group
    assert np.array_equal(_dense(_row(G, gens.sigma), _row(G, gens.g)),
                          nilpotent_part(G, bicyclic_right(G, gens.sigma, gens.g)))


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
    assert np.array_equal(_dense(_row(G, x), _row(G, y)),
                          nilpotent_part(G, bicyclic_right(G, x, y)))


def _walk_reference(perm_x, perm_y):
    """The dense tau by the plainest walk: the whole row of x^j is stepped
    and compared with the identity every step, where row_displacement
    steps only the walked points."""
    n = len(perm_x)
    cols = np.arange(n)
    tau = np.zeros((n, n), dtype=np.int64)
    cur = cols
    for _ in range(n):
        img = perm_y[cur]
        tau[img, cols] += 1
        tau[perm_x[img], cols] -= 1
        cur = perm_x[cur]
        if np.array_equal(cur, cols):
            return tau
    return None  # x does not return to the identity within n steps


def _walk_or_none(perm_x, perm_y):
    try:
        return _dense(perm_x, perm_y)
    except InvariantViolated as exc:
        assert f"within {len(perm_x)} steps" in str(exc)
        return None


def test_row_displacement_walks_past_an_early_return_of_the_first_moved_point():
    # x = (0 1)(2 3 4)(5): x^2 brings back 0, the first walked point, whose
    # return is tested before the rest, but x has order 6, which the walk
    # reaches within its n = 6 steps
    perm_x = np.array([1, 0, 3, 4, 2, 5])
    perm_y = np.array([3, 0, 5, 4, 1, 2])
    tau = _dense(perm_x, perm_y)
    assert tau.any()
    assert np.array_equal(tau, _walk_reference(perm_x, perm_y))


@st.composite
def _permutation_pairs(draw):
    """Rows of x and y on up to 9 points; x leaves a drawn set of points
    fixed, and either row may instead be any map of the points to
    themselves, mostly not a bijection."""
    n = draw(st.integers(1, 9))
    fixed = draw(st.sets(st.integers(0, n - 1)))
    moved = [i for i in range(n) if i not in fixed]
    perm_x = np.arange(n)
    perm_x[moved] = draw(st.permutations(moved))
    perm_y = np.array(draw(st.permutations(range(n))))
    maps = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    if draw(st.booleans()):
        perm_x = np.array(draw(maps))
    if draw(st.booleans()):
        perm_y = np.array(draw(maps))
    return perm_x, perm_y


@settings(max_examples=300, deadline=None)
@given(perms=_permutation_pairs())
def test_row_displacement_is_the_walk_over_whole_rows(perms):
    # an x of order above n (on 5 or more points), or no bijection, is
    # refused by both; so is the walk of one column per x-orbit, with
    # either message, which otherwise gives those columns of the reference
    perm_x, perm_y = perms
    tau, ref = _walk_or_none(perm_x, perm_y), _walk_reference(perm_x, perm_y)
    assert (tau is None) == (ref is None)
    assert ref is None or np.array_equal(tau, ref)
    reps = np.unique(_orbit_minima(perm_x))
    try:
        walked = row_displacement(perm_x, perm_y, reps)
    except InvariantViolated as exc:
        assert ref is None
        assert "cover every point" in str(exc) or f"within {len(perm_x)} steps" in str(exc)
    else:
        assert ref is not None and np.array_equal(walked, ref[:, reps])


@pytest.mark.parametrize("ctx", ["ctx13", "ctx16", "ctx27"])
def test_walked_columns_are_the_dense_columns(ctx, request):
    # the certificate walks the columns of one point per value of phi; they
    # are the dense tau's, whose columns are constant on the x-orbits
    gens, tab = request.getfixturevalue(ctx)
    G = gens.group
    if gens.q % 2:
        rng = random.Random(12)
        hs = [random_outside_dihedralizer(gens, rng) for _ in range(5)]
        cases = [(gens.g, h, *spectral._odd_vectors(tab, _row(G, h))) for h in hs]
    else:
        cases = [(gens.sigma, gens.g, *spectral._even_vectors(gens))]
    for x, y, psi, phi in cases:
        perm_x = _row(G, x)
        tau = _dense(perm_x, _row(G, y))
        assert np.array_equal(tau[:, perm_x], tau)
        _, reps = np.unique(phi, return_index=True)
        assert len(reps) == (2 if gens.q % 2 else 3)
        walked = row_displacement(perm_x, _row(G, y), reps)
        assert np.array_equal(walked, tau[:, reps])
        assert np.array_equal(tau, np.outer(psi, phi))


def _orbit_minima(perm_x):
    """The smallest point of each point's x-orbit."""
    least, cur = np.arange(len(perm_x)), perm_x
    for _ in range(len(perm_x)):
        least, cur = np.minimum(least, cur), perm_x[cur]
    return least


@pytest.mark.parametrize("ctx", ["ctx13", "ctx16"])
def test_row_displacement_refuses_columns_that_miss_an_x_orbit(ctx, request):
    # one column on each x-orbit but the last, whose columns would go unchecked
    gens, _ = request.getfixturevalue(ctx)
    G = gens.group
    x, y = (gens.g, gens.a) if gens.q % 2 else (gens.sigma, gens.g)
    perm_x, perm_y = _row(G, x), _row(G, y)
    reps = np.unique(_orbit_minima(perm_x))
    assert len(reps) == (2 if gens.q % 2 else 3)
    assert row_displacement(perm_x, perm_y, reps).shape == (G.n_points, len(reps))
    with pytest.raises(InvariantViolated, match="cover every point"):
        row_displacement(perm_x, perm_y, reps[:-1])


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
