import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psl2units.criteria import (
    criterion_report, orbit_layers, orbit_sums as row_orbit_sums, search_companion,
    shift_sums, verdicts,
)
from psl2units.engine import ConditionEngine
from psl2units.errors import BalanceFamiliesDisagree, HInDihedralizer, InvariantViolated

from bitmask_oracle import (
    balance_table, conj_pow, coset_key, image_points, intersect_count, intersection_counts,
    mask_of, norm_class, orbit_lists, orbit_sums,
)
from conftest import _context, cached_context, random_outside_dihedralizer


def companion_sums(gens, tab, h):
    """(lhs != rhs, lhs, rhs) of the orbit-sum condition, as criterion_report
    gives them."""
    rep = criterion_report(gens, tab, h)
    return rep.sums_differ, rep.lhs, rep.rhs


def test_rejects_dihedralizer_members(ctx13):
    gens, tab = ctx13
    with pytest.raises(HInDihedralizer):
        companion_sums(gens, tab, gens.g)
    with pytest.raises(HInDihedralizer):
        criterion_report(gens, tab, gens.a)
    with pytest.raises(HInDihedralizer):
        intersection_counts(gens, gens.a)


def test_count_marginals(ctx13, ctx27):
    for gens, _ in (ctx13, ctx27):
        rng = random.Random(0)
        half = (gens.q + 1) // 2
        for _ in range(20):
            h = random_outside_dihedralizer(gens, rng)
            c = intersection_counts(gens, h)
            assert c.m[0][0] + c.m[0][1] == half
            assert c.m[0][1] == c.m[1][0]
            assert c.m[0][0] == c.m[1][1]


def test_symmetric_cross_counts(ctx13):
    # |O_0 n g^h(O_1)| = |O_1 n g^h(O_0)| for every h
    gens, _ = ctx13
    G = gens.group
    g_orbits, _ = orbit_lists(gens)
    for h in G.enumerate_elements():
        gh = conj_pow(G, gens.g, h)
        perm = G.perm_array(gh).tolist()
        gh0 = image_points(perm, g_orbits[0])
        gh1 = image_points(perm, g_orbits[1])
        assert intersect_count(mask_of(g_orbits[0]), gh1) == \
            intersect_count(mask_of(g_orbits[1]), gh0)


def test_q13_every_h_satisfies(ctx13):
    gens, tab = ctx13
    G = gens.group
    total = satisfied = 0
    for h in G.enumerate_elements():
        if G.in_dihedralizer(h, gens.g):
            continue
        total += 1
        differs, lhs, rhs = companion_sums(gens, tab, h)
        satisfied += differs
    assert (satisfied, total) == (1078, 1078)


def test_orbit_sum_identity(ctx13, ctx25, ctx27, ctx37):
    # summing the shifted triple counts over all shifts reproduces the
    # two sides of the companion condition
    for gens, tab in (ctx13, ctx25, ctx27, ctx37):
        rng = random.Random(1)
        for _ in range(25):
            h = random_outside_dihedralizer(gens, rng)
            _, lhs, rhs = companion_sums(gens, tab, h)
            c = intersection_counts(gens, h)
            assert sum(c.mb[b][0][0][1] for b in range(gens.p)) == lhs
            assert sum(c.mb[b][0][1][0] for b in range(gens.p)) == rhs


def test_balance_families_agree(ctx13, ctx25, ctx27, ctx37):
    # asserted inside balance_table column by column
    seen_unbalanced = False
    for gens, _ in (ctx13, ctx25, ctx27, ctx37):
        rng = random.Random(2)
        for _ in range(125):
            h = random_outside_dihedralizer(gens, rng)
            table = balance_table(gens, h)
            assert set(table) == set(range(1, (gens.p - 1) // 2 + 1))
            seen_unbalanced |= not all(table.values())
    assert seen_unbalanced


def test_balance_family_mismatch_raises(ctx27):
    # inconsistent triple counts are refused with a typed error, not an
    # assert, so the check survives python -O
    gens, _ = ctx27
    rng = random.Random(2)
    h = random_outside_dihedralizer(gens, rng)
    while not all(balance_table(gens, h).values()):
        h = random_outside_dihedralizer(gens, rng)
    c = intersection_counts(gens, h)
    c.mb[1][1][0][1] += 1  # breaks shift 1 of the first-index-1 family only
    with pytest.raises(BalanceFamiliesDisagree):
        balance_table(gens, h, c)


def test_balanced_forces_equal_sums(ctx27):
    # contrapositive of the sufficiency lemma: full balance -> equality;
    # q = 27 has balanced h, so the implication is exercised nontrivially
    gens, tab = ctx27
    G = gens.group
    rng = random.Random(3)
    balanced_seen = 0
    for _ in range(3000):
        h = random_outside_dihedralizer(gens, rng)
        table = balance_table(gens, h)
        if all(table.values()):
            differs, lhs, rhs = companion_sums(gens, tab, h)
            assert not differs and lhs == rhs
            balanced_seen += 1
        if balanced_seen >= 25:
            break
    assert balanced_seen >= 5


def test_label_swap_preserves_verdict(ctx27):
    # swapping the two g-orbit labels flips nothing
    gens, tab = ctx27
    G = gens.group
    g_orbits, a_orbits = orbit_lists(gens)
    rng = random.Random(4)
    for _ in range(25):
        h = random_outside_dihedralizer(gens, rng)
        differs, lhs, rhs = companion_sums(gens, tab, h)
        perm_h = G.perm_array(h).tolist()
        gh = conj_pow(G, gens.g, h)
        perm_gh = G.perm_array(gh).tolist()
        ghO = [image_points(perm_gh, g_orbits[k]) for k in range(2)]
        mask_O1 = mask_of(g_orbits[1])
        lhs_s = rhs_s = 0
        for j in range(gens.d):
            lhs_s += intersect_count(image_points(perm_h, a_orbits[1][j]), mask_O1) \
                * intersect_count(mask_of(a_orbits[1][j]), ghO[0])
            rhs_s += intersect_count(image_points(perm_h, a_orbits[0][j]), mask_O1) \
                * intersect_count(mask_of(a_orbits[0][j]), ghO[1])
        assert (lhs_s != rhs_s) == differs


def test_criterion_report_fields(ctx27):
    gens, tab = ctx27
    rng = random.Random(5)
    saw_witness = saw_balanced = False
    for _ in range(200):
        h = random_outside_dihedralizer(gens, rng)
        rep = criterion_report(gens, tab, h)
        assert rep.sums_differ == (rep.lhs != rep.rhs)
        assert rep.unbalanced == (rep.witness_b is not None)
        if rep.sums_differ:
            assert rep.unbalanced  # sufficiency direction
        saw_witness |= rep.unbalanced
        saw_balanced |= not rep.unbalanced
        if saw_witness and saw_balanced:
            break
    assert saw_witness and saw_balanced


def test_criterion_report_matches_oracle(ctx13, ctx25, ctx27, ctx37):
    # the numpy rows against the bitmask triple counts: orbit sums, the
    # per-shift sums D_b + D_-b, the verdict and its witness
    for gens, tab in (ctx13, ctx25, ctx27, ctx37):
        rng = random.Random(12)
        for _ in range(60):
            h = random_outside_dihedralizer(gens, rng)
            rep = criterion_report(gens, tab, h)
            counts = intersection_counts(gens, h)
            table = balance_table(gens, h, counts)
            assert (rep.sums_differ, rep.lhs, rep.rhs) == orbit_sums(gens, h)
            assert rep.shift_sums == tuple(counts.shift_sum(b) for b in table)
            assert rep.unbalanced == (not all(table.values()))
            assert rep.witness_b == next((b for b, eq in table.items() if not eq), None)


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([(13, 1, 7), (5, 2, 13), (3, 3, 7), (2, 4, 17), (2, 3, 3)]),
       seed=st.integers(0, 2 ** 32))
def test_conjugate_labels_read_through_stored_inverse(field, seed):
    # the g^h labels the rows read through the table's g^-1 are those of
    # perm_array(conj_pow(g, h)), over prime, extension and char 2 fields
    gens, tab = cached_context(*field)
    G = gens.group
    h = G.random_element(random.Random(seed))
    perm_gh = G.perm_array(conj_pow(G, gens.g, h)).tolist()
    want = [0] * G.n_points
    for k, orbit in enumerate(orbit_lists(gens)[0]):
        for pt in orbit:
            want[perm_gh[pt]] = 1 + k  # perm_gh[pt] lies in g^h(O_k)
    # the signed cross layer is those labels minus the points' own labels
    _, cross = orbit_layers(tab, G.perm_array(h))
    assert np.array_equal(cross, tab.rows(np.array(want) - tab.glabel))


def test_search_companion_seeded(ctx13):
    gens, tab = ctx13
    res = search_companion(gens, tab, random.Random(42), max_tries=200)
    assert res.satisfied and res.tries <= 5
    res2 = search_companion(gens, tab, random.Random(42), max_tries=200)
    assert res.h == res2.h and res.tries == res2.tries


def test_search_companion_exhaustive_pool(ctx13):
    # the engine survey's candidate pool is G minus the dihedralizer
    gens, tab = ctx13
    G = gens.group
    pool = sum(not G.in_dihedralizer(h, gens.g) for h in G.enumerate_elements())
    assert pool == len(list(G.enumerate_elements())) - (gens.q + 1) == 1078


# -- engine agreement --------------------------------------------------------


def test_engine_matches_scalar(ctx13, ctx25, ctx27):
    for gens, tab in (ctx13, ctx25, ctx27):
        G = gens.group
        eng = ConditionEngine(gens, tab)
        rng = random.Random(6)
        mats = [G.random_element(rng) for _ in range(80)]
        arr = np.array(mats, dtype=np.int64)
        dmask = eng.in_dihedralizer_batch(arr)
        ok, lhs, rhs = eng.condition_batch(arr)
        for i, h in enumerate(mats):
            assert bool(dmask[i]) == G.in_dihedralizer(h, gens.g)
            if not dmask[i]:
                assert (bool(ok[i]), int(lhs[i]), int(rhs[i])) == \
                    companion_sums(gens, tab, h) == orbit_sums(gens, h)


def _dihedralizer(gens):
    """D as <g> and its coset w<g>, w = (a, b, b - a t, -a) the first such
    matrix of determinant 1; every one of them inverts g = (0, -1, 1, t)."""
    G, fq, t = gens.group, gens.group.fq, gens.setup.t
    w = next(m for a in fq.elements() for b in fq.elements()
             for m in [(a, b, fq.sub(b, fq.mul(a, t)), fq.neg(a))]
             if fq.sub(fq.mul(m[0], m[3]), fq.mul(m[1], m[2])) == 1)
    torus = [G.power(gens.g, k) for k in range((gens.q + 1) // gens.d_prime)]
    return torus + [G.compose(G.normalize(w), x) for x in torus]


@pytest.mark.parametrize("l, r, p", [(2, 3, 3), (13, 1, 7), (2, 4, 17), (3, 3, 7),
                                     (5, 3, 7)])
def test_engine_tables_match_scalar_action(l, r, p):
    # the engine's array arithmetic against the field's scalar route; the
    # engine refuses even q when it is built
    gens, tab = _context(l, r, p)
    G = gens.group
    if gens.q % 2 == 0:
        with pytest.raises(ValueError, match="odd q"):
            ConditionEngine(gens, tab)
        return
    eng = ConditionEngine(gens, tab)
    rng = random.Random(11)
    seeded = [G.random_element(rng) for _ in range(200)]
    dihedral = _dihedralizer(gens)
    assert len(set(dihedral)) == 2 * (gens.q + 1) // gens.d_prime
    for mats, in_d in ((seeded, None), (dihedral, True)):
        arr = np.array(mats, dtype=np.int64)
        perm = eng.mobius_batch(arr)
        negated = np.array([[G.fq.neg(e) for e in m] for m in mats], dtype=np.int64)
        assert np.array_equal(eng.mobius_batch(negated), perm)  # -M acts as M
        dmask = eng.in_dihedralizer_batch(arr)
        for i, h in enumerate(mats):
            assert np.array_equal(perm[i], G.perm_array(h))
            assert bool(dmask[i]) == G.in_dihedralizer(h, gens.g)
            assert in_d is None or bool(dmask[i]) == in_d


def test_engine_enumeration_is_psl(ctx13, ctx16):
    gens, tab = ctx13
    G = gens.group
    seen = set()
    count = 0
    for mats in ConditionEngine(gens, tab).enumerate_batches():
        for row in mats:
            seen.add(G.normalize(tuple(int(x) for x in row)))
            count += 1
    assert count == len(seen) == G.order()
    with pytest.raises(ValueError, match="odd q"):
        ConditionEngine(*ctx16)


def test_engine_survey_counts(ctx13, ctx27):
    gens, tab = ctx13
    sv = ConditionEngine(gens, tab).survey()
    assert (sv.satisfied, sv.unbalanced, sv.total) == (1078, 1078, 1078)
    assert (sv.first_h, sv.first_tries) == ((0, 1, 12, 0), 1)
    gens, tab = ctx27
    sv = ConditionEngine(gens, tab).survey()
    assert sv.total == 9828 - 28
    assert (sv.satisfied, sv.unbalanced, sv.total) == (8624, 9408, 9800)
    assert (sv.first_h, sv.first_tries) == ((1, 2, 1, 0), 2)


def test_engine_balance_matches_scalar(ctx13, ctx25, ctx27, ctx37):
    for gens, tab in (ctx13, ctx25, ctx27, ctx37):
        eng = ConditionEngine(gens, tab)
        rng = random.Random(9)
        hs = [random_outside_dihedralizer(gens, rng) for _ in range(200)]
        differs, lhs, rhs, unbalanced = eng.criteria_batch(
            np.array(hs, dtype=np.int64))
        for i, h in enumerate(hs):
            rep = criterion_report(gens, tab, h)
            assert bool(unbalanced[i]) == rep.unbalanced \
                == (not all(balance_table(gens, h).values()))
            assert (bool(differs[i]), int(lhs[i]), int(rhs[i])) == \
                companion_sums(gens, tab, h) == orbit_sums(gens, h)


def _signed_rows(tab, on_o0, on_o1):
    """A layer read along the table's rows: on_o0 on O_0, on_o1 on O_1."""
    return tab.rows(np.where(tab.glabel == 1, on_o0, on_o1).astype(np.int8))


def test_engine_balance_mismatch_raises(ctx27):
    # inconsistent layers: every point in g^h(O_1) and none in h^-1(O_0);
    # the family with first index 0 sees balance, the one with first index
    # 1 does not
    _, tab = ctx27
    cross = _signed_rows(tab, 1, 0)
    with pytest.raises(BalanceFamiliesDisagree):
        shift_sums(np.zeros_like(cross)[None], cross[None])


def test_zero_shift_defect_raises(ctx27):
    # layers whose cross total vanishes but whose D_0 is (q + 1)/2: O_0
    # inside both h^-1(O_0) and g^h(O_1), O_1 inside g^h(O_0)
    _, tab = ctx27
    with pytest.raises(InvariantViolated, match="shift 0"):
        shift_sums(_signed_rows(tab, 1, 0), _signed_rows(tab, 1, -1))


def test_engine_census_q27(ctx27):
    # the census counts (orbit-sum condition, unbalanced, total) come from
    # the one survey and agree with every h in G - D evaluated
    eng = ConditionEngine(*ctx27)
    sv = eng.survey()
    assert (sv.satisfied, sv.unbalanced, sv.total) == (8624, 9408, 9800)
    total, satisfied, unbalanced, _, _ = _brute_survey(eng)
    assert (satisfied, unbalanced, total) == (8624, 9408, 9800)


def test_lazy_verdict_checks_rows_meeting_the_condition(ctx27):
    # verdicts reads no shift sum on a row with lhs != rhs, but the cross
    # total and D_0 checks still run there.  The corrupted layers: every
    # point in h^-1(O_0) and in g^h(O_1) (cross total |O_0|), and those of
    # test_zero_shift_defect_raises (D_0 = (q + 1)/2); both have lhs != rhs
    gens, tab = ctx27
    good = orbit_layers(tab, gens.group.perm_array((1, 2, 1, 0)))
    for layer, cross, error, match in (
            (_signed_rows(tab, 1, 1), _signed_rows(tab, 1, 0), BalanceFamiliesDisagree, "agree"),
            (_signed_rows(tab, 1, 0), _signed_rows(tab, 1, -1), InvariantViolated, "shift 0")):
        assert row_orbit_sums(layer, cross)[0]
        with pytest.raises(error, match=match):
            verdicts(np.stack([good[0], layer]), np.stack([good[1], cross]))


def _layers(eng, mats):
    return orbit_layers(eng.tab, eng.mobius_batch(mats))


# -- double-coset surveys against full enumeration ---------------------------


def _outside_d(eng):
    """Every element of G - D, in enumeration order, as one array."""
    mats = np.concatenate(list(eng.enumerate_batches()))
    return mats[~eng.in_dihedralizer_batch(mats)]


def _brute_survey(eng):
    """(total, satisfied, unbalanced, first_h, first_tries) with every h in
    G - D evaluated."""
    mats = _outside_d(eng)
    ok, _, _, unbalanced = eng.criteria_batch(mats)
    hits = np.flatnonzero(ok)
    first = eng.gens.group.normalize(tuple(int(x) for x in mats[hits[0]])) \
        if hits.size else None
    return (mats.shape[0], int(ok.sum()), int(unbalanced.sum()), first,
            int(hits[0]) + 1 if hits.size else 0)


@pytest.mark.parametrize("l, r, p", [(13, 1, 7), (5, 2, 13), (3, 3, 7), (37, 1, 19),
                                     (41, 1, 7)])
def test_double_coset_survey_matches_full_enumeration(l, r, p, monkeypatch):
    # criteria_batch sees one row per norm class and then gamma's three
    # partners, all in distinct double cosets; the first_h walk reads the
    # class table and calls no condition_batch
    eng = ConditionEngine(*_context(l, r, p))
    want = _brute_survey(eng)
    evaluated = {"condition_batch": [], "criteria_batch": []}
    for name, calls in evaluated.items():
        method = getattr(eng, name)
        monkeypatch.setattr(eng, name, lambda mats, method=method, calls=calls:
                            calls.append(mats.copy()) or method(mats))
    sv = eng.survey()
    assert (sv.total, sv.satisfied, sv.unbalanced, sv.first_h, sv.first_tries) == want
    reps = np.concatenate(evaluated["criteria_batch"]).tolist()
    half = (eng.q - 1) // 2
    assert len({coset_key(eng.gens, tuple(row)) for row in reps}) == len(reps) == half + 3
    classes = [norm_class(eng.gens, tuple(row)) for row in reps]
    assert len(set(classes[:half])) == half
    assert classes[half:] == [classes[0]] * 3
    assert evaluated["condition_batch"] == []


def test_survey_and_census_memory_linear_in_q():
    # the engine keeps O(q) arrays and evaluates CHUNK_ROWS rows at a time;
    # one q x q int64 table would take 32 MB at q = 1997
    gens, tab = _context(1997, 1, 37)
    tracemalloc.start()
    try:
        eng = ConditionEngine(gens, tab)
        eng.survey()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 10 ** 6


@pytest.mark.parametrize("ctx", ["ctx13", "ctx27"])
def test_orbit_sum_difference_is_the_sum_of_shift_sums(ctx, request):
    # lhs - rhs = sum_b D_b = D_0 + the shift sums, and D_0 = 0: a row
    # with lhs != rhs is unbalanced, so the balance scan may skip it
    eng = ConditionEngine(*request.getfixturevalue(ctx))
    mats = _outside_d(eng)
    _, lhs, rhs = eng.condition_batch(mats)
    assert np.array_equal(lhs - rhs, shift_sums(*_layers(eng, mats)).sum(axis=-1))


@pytest.mark.parametrize("ctx", ["ctx13", "ctx27"])
def test_coset_keys_are_the_double_cosets(ctx, request):
    # 2q - 4 key classes of |<g>|^2 elements each, every verdict constant
    # on a class
    eng = ConditionEngine(*request.getfixturevalue(ctx))
    mats = _outside_d(eng)
    fq2 = eng.gens.setup.fq2
    keys = [fq2.encoding(coset_key(eng.gens, tuple(row))) for row in mats.tolist()]
    classes, inverse, sizes = np.unique(keys, return_inverse=True, return_counts=True)
    assert len(classes) == 2 * eng.q - 4
    assert set(sizes.tolist()) == {((eng.q + 1) // 2) ** 2}
    columns = np.stack([col.astype(np.int64) for col in eng.criteria_batch(mats)], axis=1)
    for k in range(len(classes)):
        assert len(np.unique(columns[inverse == k], axis=0)) == 1


@pytest.mark.parametrize("ctx", ["ctx13", "ctx25", "ctx27", "ctx37"])
def test_verdicts_constant_on_norm_classes(ctx, request):
    # every h in G - D: (q-1)/2 classes {nu, 1/nu}, of 4 |T|^2 elements
    # and 2 |T|^2 at nu = -1, with both verdicts constant on each
    eng = ConditionEngine(*request.getfixturevalue(ctx))
    q = eng.q
    mats = _outside_d(eng)
    keys = [norm_class(eng.gens, tuple(row)) for row in mats.tolist()]
    classes, inverse, sizes = np.unique(keys, return_inverse=True, return_counts=True)
    assert len(classes) == (q - 1) // 2
    minus_one = eng.fq.neg(1)
    size = ((q + 1) // 2) ** 2
    assert dict(zip(classes.tolist(), sizes.tolist())) == \
        {c: (2 if c == minus_one else 4) * size for c in classes.tolist()}
    differs, _, _, unbalanced = eng.criteria_batch(mats)
    columns = np.stack([differs, unbalanced], axis=1)
    for k in range(len(classes)):
        assert len(np.unique(columns[inverse == k], axis=0)) == 1


@pytest.mark.parametrize("column", [0, 3])
def test_partner_verdict_mismatch_raises(ctx27, monkeypatch, column):
    # gamma^-1, gamma^q and gamma^(q-2) share gamma's norm class, so the
    # survey checks their verdicts against gamma's: one flipped verdict
    # (differs or unbalanced) of the last partner is refused
    eng = ConditionEngine(*ctx27)
    evaluate = eng.criteria_batch

    def flipped(mats):
        out = [np.array(col) for col in evaluate(mats)]
        out[column][-1] ^= True
        return tuple(out)

    monkeypatch.setattr(eng, "criteria_batch", flipped)
    with pytest.raises(InvariantViolated, match="other verdicts"):
        eng.survey()


def test_repeated_double_coset_raises(ctx27, monkeypatch):
    # the constructed rows are checked, not trusted: a row replaced by
    # another element g h g of the previous row's double coset is rejected
    eng = ConditionEngine(*ctx27)
    G, g = eng.gens.group, eng.gens.g
    build = eng._cayley_rows

    def repeating(w):
        rows = build(w)
        rows[1] = G.compose(G.compose(g, tuple(int(x) for x in rows[0])), g)
        return rows

    monkeypatch.setattr(eng, "_cayley_rows", repeating)
    with pytest.raises(InvariantViolated, match="double coset"):
        eng.survey()


def test_double_coset_survey_rejects_even_q(ctx16):
    with pytest.raises(ValueError, match="odd q"):
        ConditionEngine(*ctx16)


_PROPERTY_PAIRS = {13: (13, 1, 7), 25: (5, 2, 13), 27: (3, 3, 7), 37: (37, 1, 19)}
_ENGINES = {}


def _engine(q):
    if q not in _ENGINES:
        _ENGINES[q] = ConditionEngine(*_context(*_PROPERTY_PAIRS[q]))
    return _ENGINES[q]


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(sorted(_PROPERTY_PAIRS)), seed=st.integers(0, 2 ** 32),
       i=st.integers(0, 18), j=st.integers(0, 18))
def test_verdicts_constant_on_double_cosets(q, seed, i, j):
    # criteria_batch and the oracle's coset key of c h c' equal those of h
    # for h outside D and c, c' in <g>
    eng = _engine(q)
    gens = eng.gens
    G = gens.group
    h = random_outside_dihedralizer(gens, random.Random(seed))
    order = (q + 1) // 2
    moved = G.compose(G.compose(G.power(gens.g, i % order), h), G.power(gens.g, j % order))
    rows = np.array([h, moved], dtype=np.int64)
    verdicts = [col.tolist() for col in eng.criteria_batch(rows)]
    assert all(col[0] == col[1] for col in verdicts)
    assert coset_key(gens, h) == coset_key(gens, moved)


_BALANCED = {}


def _balanced_rows(q):
    """The rows of G - D whose every shift sum is 0."""
    if q not in _BALANCED:
        eng = _engine(q)
        mats = _outside_d(eng)
        _BALANCED[q] = mats[~shift_sums(*_layers(eng, mats)).any(axis=-1)]
    return _BALANCED[q]


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from(sorted(_PROPERTY_PAIRS)), seed=st.integers(0, 2 ** 32))
def test_lazy_balance_verdict_matches_full_scan(q, seed):
    # criteria_batch reads the shift sums only where lhs == rhs; on random
    # rows of G - D, with balanced rows mixed in wherever the pair has
    # them, its verdict is the full scan's
    eng = _engine(q)
    gens = eng.gens
    rng = random.Random(seed)
    rows = [random_outside_dihedralizer(gens, rng) for _ in range(48)]
    balanced = _balanced_rows(q).tolist()
    assert len(balanced) == {27: 392}.get(q, 0)
    rows += rng.sample(balanced, min(8, len(balanced)))
    rng.shuffle(rows)
    rows = np.array(rows, dtype=np.int64)
    full = shift_sums(*_layers(eng, rows)).any(axis=-1)
    assert np.array_equal(eng.criteria_batch(rows)[3], full)
    assert (~full).sum() >= min(8, len(balanced))
