"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they are produced.
"""

import hashlib
import json
import random
from functools import lru_cache

import mpmath
import pytest

from psl2units.classify import dpc_verdict, multiplicative_order
from psl2units.engine import ConditionEngine
from psl2units.finite_fields import PrimePower, factorize, make_field
from psl2units.group_ring import GroupRingElement, bicyclic_right
from psl2units.projective import PSL2
from psl2units.spectral import (
    eigen_data, exact_certificate, integer_rank,
    nilpotent_part, numeric_oracle, recipe_element,
)
from psl2units.sweep import admissible_primes, check_single, odd_prime_powers, \
    run_sweep

from conftest import (
    _context, bass_unit, diagonalizer_identities, element_order, random_outside_dihedralizer,
)


def _verdict(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    return ok


def test_criterion_1_sweep_reproduction(tmp_path):
    summary = run_sweep(q_min=7, q_max=1999, samples=200, seed=1, jobs=8,
                        out_path=tmp_path / "sweep.jsonl")
    ok = summary.all_satisfied
    assert _verdict(1, ok,
                    f"{summary.satisfied}/{summary.pairs} pairs satisfied "
                    f"on 7 <= q <= 1999 (samples=200)")


def test_sweep_witnesses_certified(tmp_path):
    # a second exact verdict on every witness of the sweep: the certificate
    # reads its projection coefficients off a correlation of its own, not
    # the criteria's shift sums; a refused witness is a finding, kept here
    out = tmp_path / "sweep.jsonl"
    summary = run_sweep(q_min=7, q_max=1999, samples=200, seed=1, out_path=out)
    refused = []
    for rec in map(json.loads, out.read_text().splitlines()):
        q, p, h = rec["q"], rec["p"], tuple(rec["h"])
        gens, tab = _context(rec["l"], rec["r"], p)
        if not exact_certificate(gens, tab, h, 2, p * multiplicative_order(2, p)).ok:
            refused.append((q, p, h))
    assert _verdict(1, summary.pairs == 327 and not refused,
                    f"{summary.pairs - len(refused)}/{summary.pairs} sweep witnesses "
                    f"certified on 7 <= q <= 1999, refused: {refused}")


# every pair with q + 1 = 2p and q < 1000, the family the paper proves
_TWO_P_PAIRS = [(13, 7), (25, 13), (37, 19), (61, 31), (73, 37), (81, 41), (121, 61),
                (157, 79), (193, 97), (277, 139), (313, 157), (361, 181), (397, 199),
                (421, 211), (457, 229), (541, 271), (613, 307), (625, 313), (661, 331),
                (673, 337), (733, 367), (757, 379), (841, 421), (877, 439), (997, 499)]


def test_two_p_pairs_are_every_such_pair_below_1000():
    assert _TWO_P_PAIRS == [(pp.q, (pp.q + 1) // 2) for pp in odd_prime_powers(7, 999)
                            if (pp.q + 1) // 2 in admissible_primes(pp.q)]


@pytest.mark.parametrize("q,p", _TWO_P_PAIRS)
def test_criterion_2_two_p_exactness(q, p):
    rec = check_single(q, p, exhaustive=True)
    num, den = rec.fraction
    ok = num == den
    assert _verdict(2, ok, f"(q={q}, p={p}) exhaustive fraction {num}/{den}")


@lru_cache(maxsize=None)
def _recipe_certificates(q, p, x0s):
    """Exact certificates of the even-q recipe elements at the base points
    x0s, with k = 2 and m = p * ord_p(2)."""
    pp = PrimePower.from_q(q)
    gens, tab = _context(pp.l, pp.r, p)
    m = p * multiplicative_order(2, p)
    return tuple(exact_certificate(gens, tab, recipe_element(gens, x0), 2, m) for x0 in x0s)


def _recipe_certified(q, p, x0s):
    return {x0: c.ok for x0, c in zip(x0s, _recipe_certificates(q, p, tuple(x0s)))}


def test_proven_family_p_equals_5():
    # PSL(2,4) = PSL(2,5): the recipe is certified from every base point
    certified = _recipe_certified(4, 5, range(5))
    assert _verdict("p=5 family", all(certified.values()),
                    f"(q=4, p=5): recipe certified at x0 in {sorted(certified)}")


# the pairs with q even, q <= 2^13 and p > 5 that pass the predicate, each
# from three base points; a certificate walks two or three columns of tau,
# so the largest, (8192, 2731), takes about 0.3 s and no n x n array
_EVEN_RECIPES = [(16, 17, (0, 1, 2)), (32, 11, (0, 1, 2)), (64, 13, (0, 1, 2)),
                 (128, 43, (0, 1, 2)), (256, 257, (0, 1, 2)), (512, 19, (0, 1, 2)),
                 (1024, 41, (0, 1, 2)), (2048, 683, (0, 1, 2)), (4096, 241, (0, 1, 2)),
                 (8192, 2731, (0, 1, 2))]


@pytest.mark.parametrize("q,p,x0s", _EVEN_RECIPES, ids=[f"{q}-{p}" for q, p, _ in _EVEN_RECIPES])
def test_proven_family_q_even(q, p, x0s):
    certified = _recipe_certified(q, p, x0s)
    assert _verdict("q-even family", all(certified.values()),
                    f"(q={q}, p={p}): recipe certified at x0 in {sorted(certified)}")


# sha256 over the json of the as_dict() of the recipe certificates at
# x0 = 0, 1, 2 for (2048, 683), (4096, 241) and (8192, 2731), as computed
# when the certificate built the dense n x n tau
LARGE_RECIPES_SHA256 = "5c2864c032476bebf8258dd1de89aeb17d6a7dc06d9a8e61efdfb92adf8b23a6"


def test_large_even_recipe_certificates_pinned():
    dicts = [c.as_dict() for q, p, x0s in _EVEN_RECIPES[-3:]
             for c in _recipe_certificates(q, p, x0s)]
    blob = json.dumps(dicts, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == LARGE_RECIPES_SHA256


_CENSUS_CACHE = {}


def _census(q, p):
    """Orbit-sum, certified and total counts over G - D for one pair; the
    two criterion-3 tests share one enumeration per pair."""
    if (q, p) not in _CENSUS_CACHE:
        pp = PrimePower.from_q(q)
        gens, tab = _context(pp.l, pp.r, p)
        _CENSUS_CACHE[(q, p)] = ConditionEngine(gens, tab).survey()
    return _CENSUS_CACHE[(q, p)]


@pytest.mark.parametrize("q", [27, 53, 125])
def test_criterion_3_density_exceeds_ninety_percent(q):
    # the density of h in G - D whose bicyclic unit is a free companion,
    # i.e. the h the exact certificate accepts (the unbalanced h); the
    # orbit-sum condition is a sufficient shortcut and must not count more
    pairs = [(q, p) for p in admissible_primes(q)]
    if not pairs:
        assert _verdict(3, True, f"q={q}: no admissible p (vacuous)")
        return
    censuses = {pair: _census(*pair) for pair in pairs}
    ok = all(c.unbalanced > 0.9 * c.total and c.satisfied <= c.unbalanced
             for c in censuses.values())
    detail = ", ".join(
        f"(q={qq}, p={pp}): certified {c.unbalanced}/{c.total} = "
        f"{c.unbalanced / c.total:.4f}, orbit-sum {c.satisfied}/{c.total} = "
        f"{c.satisfied / c.total:.4f}"
        for (qq, pp), c in censuses.items())
    assert _verdict(3, ok, detail)


def test_criterion_3_not_all_h_satisfy():
    # "but not all": some tested pair must have an h the certificate rejects
    rejected = {}
    for q in (27, 53, 125):
        for p in admissible_primes(q):
            c = _census(q, p)
            if c.unbalanced < c.total:
                rejected[(q, p)] = (c.total - c.unbalanced, c.total)
    detail = ", ".join(f"(q={q}, p={p}): {n} of {d} h not certified"
                       for (q, p), (n, d) in rejected.items())
    assert _verdict(3, bool(rejected),
                    detail or "every h certified in every tested pair")


def test_criterion_4_classification_agreement():
    from math import gcd
    results = []
    for q in (4, 5, 7, 9, 11, 13):
        order = q * (q * q - 1) // gcd(2, q + 1)
        for p in sorted(factorize(order)):
            if p <= 3:
                continue
            v = dpc_verdict(q, p, brute=True)
            results.append(((q, p), v.predicate, v.witnessed))
    ok = all(pred == wit for _, pred, wit in results)
    table = {key: pred for key, pred, _ in results}
    ok = ok and table[(4, 5)] is True and table[(9, 5)] is False
    assert _verdict(4, ok, f"predicate == brute force on {len(results)} pairs "
                           f"incl. (4,5)->True, (9,5)->False")


def test_criterion_5_exact_diagonalization(ctx13):
    gens, tab = ctx13
    unitary_ok, diagonal_ok = diagonalizer_identities(gens, tab)
    ok = unitary_ok and diagonal_ok
    assert _verdict(5, ok, "PbarP = pI and P a Pbar = p Diag(zeta^b) "
                           "exactly in cyclotomic arithmetic at (q,p)=(13,7)")


def test_criterion_6_rank_structure(ctx13, ctx16):
    def sigma_rank(gens):
        group = gens.group
        return integer_rank(nilpotent_part(group, bicyclic_right(group, gens.sigma, gens.g)))

    gens16, _ = ctx16
    r16 = sigma_rank(gens16)
    gens13, tab13 = ctx13
    r13 = sigma_rank(gens13)
    rng = random.Random(100)
    paired_ok = True
    for _ in range(100):
        h = random_outside_dihedralizer(gens13, rng)
        tau = nilpotent_part(gens13.group, bicyclic_right(gens13.group, gens13.g, h))
        paired_ok &= integer_rank(tau) == 1 and not (tau @ tau).any()
    ok = r16 == 1 and r13 == 2 and paired_ok
    assert _verdict(6, ok, f"rank(tau)={r16} at q=16, {r13} at q=13, "
                           f"100 seeded h-displacements rank 1 and square-zero")


def test_criterion_7_oracle_agreement(ctx13, ctx16):
    gens, tab = ctx13
    G = gens.group
    disagreements = 0
    count = 0
    for h in G.enumerate_elements():
        if G.in_dihedralizer(h, gens.g):
            continue
        cert = exact_certificate(gens, tab, h, 2, 21)
        res = numeric_oracle(gens, tab, h, 2, 21)
        disagreements += cert.ok != res.ok
        count += 1
    gens16, tab16 = ctx16
    rng = random.Random(7)
    count16 = 0
    for _ in range(20):
        x0 = rng.randrange(gens16.group.n_points)
        h = recipe_element(gens16, x0)
        cert = exact_certificate(gens16, tab16, h, 2, 272)
        res = numeric_oracle(gens16, tab16, h, 2, 272)
        disagreements += cert.ok != res.ok
        count16 += 1
    ok = disagreements == 0
    assert _verdict(7, ok, f"0 disagreements over {count} h at (13,7,2,21) "
                           f"and {count16} recipe elements at (16,17,2,272)"
                    if ok else f"{disagreements} disagreements")


def test_criterion_8_unit_identities(ctx13):
    psl25 = PSL2(make_field(5, 1))
    a5 = next(m for m in psl25.enumerate_elements()
              if element_order(psl25, m) == 5)
    one = GroupRingElement.one(psl25)
    pair_ok = bass_unit(psl25, a5, 2, 4) * \
        bass_unit(psl25, psl25.compose(a5, a5), 3, 4) == one

    inverse_ok = True
    for host, n in (((5, 1), 5), ((13, 1), 7), ((5, 2), 13)):
        group = PSL2(make_field(*host))
        g = next(m for m in group.enumerate_elements()
                 if element_order(group, m) == n)
        gone = GroupRingElement.one(group)
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
            inverse_ok &= u * v == gone

    gens, _ = ctx13
    G = gens.group
    bic_ok = True
    rng = random.Random(8)
    gone = GroupRingElement.one(G)
    zero = GroupRingElement.zero(G)
    for _ in range(100):
        h = random_outside_dihedralizer(gens, rng)
        v = bicyclic_right(G, gens.g, h)
        bic_ok &= (v - gone) * (v - gone) == zero and v * (2 - v) == gone

    ok = pair_ok and inverse_ok and bic_ok
    assert _verdict(8, ok, "Bass inverse pair in Z[PSL(2,5)], "
                           "inverse identities for n in {5,7,13}, "
                           "100 seeded bicyclic units square-zero/invertible")


def test_criterion_9_eigenvalue_data():
    ed = eigen_data(7, 2, 21)
    ok = ed.values[0] == 1
    with mpmath.workdps(50):
        for b in (1, 2, 3):
            ref = abs(2 * mpmath.cos(mpmath.pi * b / 7)) ** 21
            ok = ok and abs(ed.values[b] - ref) / ref < 1e-9
        for i in range(4):
            for j in range(i + 1, 4):
                gap = abs(ed.values[i] - ed.values[j]) / max(ed.values[i],
                                                             ed.values[j])
                ok = ok and gap > 1e-6
    ok = ok and (ed.b_plus, ed.b_minus) == (1, 3)
    assert _verdict(9, ok, f"(7,2,21): value(0)=1, magnitudes match "
                           f"(2cos(pi b/7))^21, b_plus={ed.b_plus}, "
                           f"b_minus={ed.b_minus}, gaps > 1e-6")


def test_criterion_10_combinatorial_identities():
    from bitmask_oracle import balance_table, intersection_counts
    hosts = [((13, 1), 7), ((5, 2), 13), ((3, 3), 7), ((37, 1), 19),
             ((53, 1), 3)]  # q=53 has no prime > 5 dividing q+1; use 3
    checked = 0
    ok = True
    for (l, r), p in hosts:
        gens, _ = _context(l, r, p)
        rng = random.Random(10)
        half = (gens.q + 1) // 2
        for _ in range(200):
            h = random_outside_dihedralizer(gens, rng)
            c = intersection_counts(gens, h)  # asserts the marginal
            # identities and the zero-shift equalities internally
            ok = ok and c.m[0][1] == c.m[1][0] and c.m[0][0] == c.m[1][1]
            ok = ok and c.m[0][0] + c.m[0][1] == half
            table = balance_table(gens, h, c)  # asserts family agreement
            ok = ok and set(table) == set(range(1, (gens.p - 1) // 2 + 1))
            checked += 1
    ok = ok and checked == 1000
    assert _verdict(10, ok, f"marginals, zero-shift equalities and balance "
                            f"family agreement exact on {checked} seeded "
                            f"(q, h) instances")
