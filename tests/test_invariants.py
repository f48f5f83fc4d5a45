"""Checks that decide verdicts raise InvariantViolated, also under python -O,
and the package imports without its heavy optional modules."""

import ast
import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psl2units
from psl2units import spectral
from psl2units.errors import InvariantViolated
from psl2units.finite_fields import PrimePower, build_setup
from psl2units.orbits import build_orbits
from psl2units.projective import make_generators

from bitmask_oracle import assert_count_invariants, intersection_counts
from conftest import random_outside_dihedralizer

SRC = str(Path(psl2units.__file__).resolve().parents[1])


def _run(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120)


def test_generators_of_a_corrupted_setup_are_rejected():
    # t = 2 makes g = [[0, -1], [1, 2]] unipotent, of order 13, not 7
    setup = dataclasses.replace(build_setup(PrimePower.from_q(13)), t=2)
    with pytest.raises(InvariantViolated, match="g does not have order 7"):
        make_generators(setup, 7)


def test_corrupted_counts_are_rejected(ctx13):
    gens, _ = ctx13
    counts = intersection_counts(gens, random_outside_dihedralizer(gens, random.Random(5)))
    counts.mb[1][0][0][1] += 1
    with pytest.raises(InvariantViolated):
        assert_count_invariants(gens, counts)


def test_certificate_rejects_a_wrong_rank(ctx13, monkeypatch):
    # the rank is read off the checked factorisation tau = psi phi^T: a zero
    # image vector with a zero displacement factors, squares to zero and
    # lies in the kernel, and must still be refused as rank 0
    gens, tab = ctx13
    h = random_outside_dihedralizer(gens, random.Random(6))
    assert spectral.exact_certificate(gens, tab, h, 2, 21).tau_rank == 1
    true_vectors = spectral._odd_vectors

    def zero_image(tab, perm_h):
        psi, phi = true_vectors(tab, perm_h)
        return 0 * psi, phi

    monkeypatch.setattr(spectral, "row_displacement",
                        lambda perm_x, perm_y: np.zeros((len(perm_x),) * 2, dtype=np.int64))
    monkeypatch.setattr(spectral, "_odd_vectors", zero_image)
    with pytest.raises(InvariantViolated, match="rank 0, not 1"):
        spectral.exact_certificate(gens, tab, h, 2, 21)


def test_certificate_rejects_a_wrong_displacement(ctx13, monkeypatch):
    # the certificate recomputes tau = psi phi^T and tau^2 = 0 rather than
    # assuming them
    gens, tab = ctx13
    h = random_outside_dihedralizer(gens, random.Random(6))
    true_rows = spectral.row_displacement
    monkeypatch.setattr(spectral, "row_displacement",
                        lambda perm_x, perm_y: 2 * true_rows(perm_x, perm_y))
    with pytest.raises(InvariantViolated, match="factor through"):
        spectral.exact_certificate(gens, tab, h, 2, 21)
    monkeypatch.setattr(spectral, "row_displacement",
                        lambda perm_x, perm_y: true_rows(perm_x, perm_y)
                        + np.eye(len(perm_x), dtype=np.int64))
    with pytest.raises(InvariantViolated, match="square to zero"):
        spectral.exact_certificate(gens, tab, h, 2, 21)


@pytest.mark.parametrize("ctx", ["ctx13", "ctx16"])
def test_certificate_rejects_an_image_vector_off_the_kernel(ctx, request, monkeypatch):
    # tau = psi' phi^T with phi . psi' != 0 has only two (odd q) or three
    # (even q) distinct columns, like a correct tau, but squares to
    # (phi . psi') tau, which is not zero
    gens, tab = request.getfixturevalue(ctx)
    if gens.q % 2:
        h, m = random_outside_dihedralizer(gens, random.Random(6)), 21
        psi, phi = spectral._odd_vectors(tab, gens.group.perm_array(h))
    else:
        h, m = spectral.recipe_element(gens, 0), 17 * 8
        psi, phi = spectral._even_vectors(gens)
    assert spectral.exact_certificate(gens, tab, h, 2, m).ok
    psi_off = psi.copy()
    psi_off[np.flatnonzero(phi)[0]] += 1
    bad = np.outer(psi_off, phi)
    assert phi @ psi_off != 0 and len(np.unique(bad, axis=1).T) == (2 if gens.q % 2 else 3)
    monkeypatch.setattr(spectral, "row_displacement", lambda perm_x, perm_y: bad)
    with pytest.raises(InvariantViolated, match="square to zero"):
        spectral.exact_certificate(gens, tab, h, 2, m)


def test_certificate_rejects_an_order_that_does_not_close(ctx13):
    # the walk along x's row stops after n steps: a row that is no
    # permutation of finite order below n + 1 is refused
    perm_x = np.array([1, 2, 0, 0])  # maps 3 into the cycle, never back
    with pytest.raises(InvariantViolated, match="within 4 steps"):
        spectral.row_displacement(perm_x, np.arange(4))


def test_orbits_of_a_wrong_g_are_rejected(ctx13):
    # sigma has order 6, so its orbit through the point 1 does not close
    # after p * d = 7 steps
    gens, _ = ctx13
    with pytest.raises(InvariantViolated, match="g-orbit through 2 is not of length 7"):
        build_orbits(dataclasses.replace(gens, g=gens.sigma))


def test_eigen_data_rejects_collisions_and_misplaced_extremes(monkeypatch):
    import mpmath
    assert spectral.eigen_data(7, 2, 21).values[0] == 1
    spectral.eigen_data.cache_clear()  # recompute under the patched sine below
    monkeypatch.setattr(mpmath, "sin", lambda x: mpmath.mpf(1))  # every magnitude 1
    with pytest.raises(InvariantViolated, match="magnitude collision at b=0,1"):
        spectral.eigen_data(7, 2, 21)
    monkeypatch.setattr(mpmath, "sin", lambda x: x + 10)  # every magnitude above 1
    with pytest.raises(InvariantViolated, match="extreme magnitude"):
        spectral.eigen_data(7, 2, 21)


def _rejected_under_python_O(code: str) -> str:
    """Run ``code`` under python -O, after checking that -O strips its
    leading ``assert False``; return its stdout."""
    code = "from psl2units.errors import InvariantViolated\nassert False\n" + code
    assert _run(code).returncode != 0
    proc = _run(code, "-O")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_invariant_checks_survive_python_O():
    assert _rejected_under_python_O("""
import dataclasses
from psl2units.finite_fields import PrimePower, build_setup
from psl2units.projective import make_generators
setup = dataclasses.replace(build_setup(PrimePower.from_q(13)), t=2)
try:
    make_generators(setup, 7)
except InvariantViolated:
    print("rejected")
""") == "rejected"


def test_orbit_checks_survive_python_O():
    # a g of the wrong order is refused, and so is an a with the orbits of
    # the true a but the wrong step along them (a^2 or a^-1)
    assert _rejected_under_python_O("""
import dataclasses
from psl2units.finite_fields import PrimePower, build_setup
from psl2units.orbits import build_orbits
from psl2units.projective import make_generators
gens = make_generators(build_setup(PrimePower.from_q(13)), 7)
G = gens.group
build_orbits(gens)
for name, wrong in (("g", gens.sigma), ("a", G.power(gens.a, 2)), ("a", G.inverse(gens.a))):
    try:
        build_orbits(dataclasses.replace(gens, **{name: wrong}))
    except InvariantViolated as exc:
        print("step" in str(exc))
""") == "False\nTrue\nTrue"


def test_double_coset_check_survives_python_O():
    # the survey rejects constructed rows that repeat a double coset
    assert _rejected_under_python_O("""
from psl2units.engine import ConditionEngine
from psl2units.finite_fields import PrimePower, build_setup
from psl2units.orbits import build_orbits
from psl2units.projective import make_generators
gens = make_generators(build_setup(PrimePower.from_q(27)), 7)
eng = ConditionEngine(gens, build_orbits(gens))
build = eng._cayley_rows
def repeating(w):
    rows = build(w)
    rows[1] = rows[0]
    return rows
eng._cayley_rows = repeating
try:
    eng.survey()
except InvariantViolated as exc:
    print("double coset" in str(exc))
""") == "True"


def test_zero_shift_check_survives_python_O():
    # layers whose balance defect at shift 0 is not zero are refused
    assert _rejected_under_python_O("""
import numpy as np
from psl2units.criteria import shift_sums
from psl2units.finite_fields import PrimePower, build_setup
from psl2units.orbits import build_orbits
from psl2units.projective import make_generators
tab = build_orbits(make_generators(build_setup(PrimePower.from_q(27)), 7))
def signed(on_o0, on_o1):
    return tab.rows(np.where(tab.glabel == 1, on_o0, on_o1).astype(np.int8))
try:
    shift_sums(signed(1, 0), signed(1, -1))
except InvariantViolated as exc:
    print("shift 0" in str(exc))
""") == "True"


def test_lazy_balance_checks_survive_python_O():
    # corrupted layers on a row with lhs != rhs, where the lazy verdict
    # reads no shift sum, are still refused
    assert _rejected_under_python_O("""
import numpy as np
from psl2units.criteria import orbit_sums, verdicts
from psl2units.errors import BalanceFamiliesDisagree
from psl2units.finite_fields import PrimePower, build_setup
from psl2units.orbits import build_orbits
from psl2units.projective import make_generators
tab = build_orbits(make_generators(build_setup(PrimePower.from_q(27)), 7))
def signed(on_o0, on_o1):
    return tab.rows(np.where(tab.glabel == 1, on_o0, on_o1).astype(np.int8))[None]
for layer, cross in ((signed(1, 1), signed(1, 0)), (signed(1, 0), signed(1, -1))):
    print(bool(orbit_sums(layer, cross)[0][0]))
    try:
        verdicts(layer, cross)
    except (BalanceFamiliesDisagree, InvariantViolated) as exc:
        print(type(exc).__name__)
""") == "True\nBalanceFamiliesDisagree\nTrue\nInvariantViolated"


def test_factorisation_check_survives_python_O():
    # a displacement built twice too large squares to zero but does not
    # factor through the image vector
    assert _rejected_under_python_O("""
from psl2units import spectral
from psl2units.finite_fields import PrimePower, build_setup
from psl2units.orbits import build_orbits
from psl2units.projective import make_generators
gens = make_generators(build_setup(PrimePower.from_q(13)), 7)
tab = build_orbits(gens)
h = (1, 2, 1, 3)
print(spectral.exact_certificate(gens, tab, h, 2, 21).tau_rank)
true_rows = spectral.row_displacement
spectral.row_displacement = lambda perm_x, perm_y: 2 * true_rows(perm_x, perm_y)
try:
    spectral.exact_certificate(gens, tab, h, 2, 21)
except InvariantViolated as exc:
    print("factor through" in str(exc))
""") == "1\nTrue"


def test_square_zero_check_survives_python_O():
    # a displacement psi' phi^T whose image vector leaves the kernel
    # hyperplane has two distinct columns and does not square to zero
    assert _rejected_under_python_O("""
import numpy as np
from psl2units import spectral
from psl2units.finite_fields import PrimePower, build_setup
from psl2units.orbits import build_orbits
from psl2units.projective import make_generators
gens = make_generators(build_setup(PrimePower.from_q(13)), 7)
tab = build_orbits(gens)
h = (1, 2, 1, 3)
print(spectral.exact_certificate(gens, tab, h, 2, 21).tau_rank)
psi, phi = spectral._odd_vectors(tab, gens.group.perm_array(h))
psi[0] += 1
spectral.row_displacement = lambda perm_x, perm_y: np.outer(psi, phi)
try:
    spectral.exact_certificate(gens, tab, h, 2, 21)
except InvariantViolated as exc:
    print("square to zero" in str(exc))
""") == "1\nTrue"


def test_unit_matrix_guard_survives_python_O():
    # a coefficient that could overflow the int64 matrix is refused
    assert _rejected_under_python_O("""
from psl2units.finite_fields import make_field
from psl2units.group_ring import GroupRingElement
from psl2units.projective import PSL2
from psl2units.spectral import unit_matrix
G = PSL2(make_field(13, 1))
print(unit_matrix(G, GroupRingElement.one(G) * (2 ** 40 - 1))[0, 0])
try:
    unit_matrix(G, GroupRingElement.one(G) * 2 ** 40)
except OverflowError:
    print("rejected")
""") == f"{2 ** 40 - 1}\nrejected"


def test_three_point_check_survives_python_O():
    # the interpolation check decides every even-q recipe certificate
    assert _rejected_under_python_O("""
from psl2units.finite_fields import make_field
from psl2units.projective import PSL2
G = PSL2(make_field(2, 4))
print(G.apply(G.three_point_map(1, 2, 3, 4, 5, 6), 3))
G.apply = lambda m, pt: pt  # an action that moves no point
try:
    G.three_point_map(1, 2, 3, 4, 5, 6)
except InvariantViolated:
    print("rejected")
""") == "6\nrejected"


def test_src_has_no_assert():
    # python -O strips assert statements, and an AssertionError reads as a
    # test failure; unreachable states raise InvariantViolated instead
    found = []
    for path in sorted(Path(psl2units.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Assert)
                    or isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_unreachable_states_raise_invariant_violated(ctx13):
    gens, _ = ctx13
    with pytest.raises(InvariantViolated, match="zero matrix"):
        gens.group.normalize((0, 0, 0, 0))


def test_import_loads_neither_mpmath_nor_process_pool(tmp_path):
    # a sweep needs neither; mpmath alone costs about 4 MB of RSS at import
    proc = _run("import sys, psl2units; "
                "print(sorted(m for m in ('mpmath', 'concurrent.futures') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # the package no longer re-exports, so the spectral layer loads without
    # the sweep and its hashlib (OpenSSL, about 3.6 MB of RSS) and logging
    proc = _run("import sys, psl2units.spectral; print(sorted(m for m in "
                "('psl2units.sweep', 'hashlib', 'logging', 'mpmath') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # an exhaustive check never hashes, and a sweep hashes with the
    # interpreter's builtin sha256, so neither loads hashlib; a sweep that
    # meets no counterexample logs nothing and does not load logging
    proc = _run("import sys, psl2units.sweep as sweep; "
                "sweep.check_single(27, 7, exhaustive=True); print('hashlib' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    out = tmp_path / "sweep.jsonl"
    proc = _run("import sys, psl2units.sweep as sweep; "
                f"sweep.run_sweep(7, 30, out_path={str(out)!r}); "
                "print(sorted(m for m in ('hashlib', '_hashlib', 'logging') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
