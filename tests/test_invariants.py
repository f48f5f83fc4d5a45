"""Checks that decide verdicts raise InvariantViolated, also under python -O,
and the package imports without its heavy optional modules.

python -O strips assert statements and code under ``__debug__``, and
nothing else.  test_src_has_no_assert refuses both in src/, so no check
there can vanish under -O.  test_verdict_checks_raise_under_python_O is the
empirical side of the same rule: it runs every test marked verdict_check,
in this module and the others, once more in one python -O child.
"""

import ast
import dataclasses
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psl2units
from psl2units import spectral
from psl2units.errors import InvariantViolated
from psl2units.finite_fields import PrimePower, QuadraticExtension, build_setup
from psl2units.group_ring import GroupRingElement
from psl2units.orbits import build_orbits
from psl2units.projective import make_generators
from psl2units.spectral import unit_matrix

from bitmask_oracle import assert_count_invariants, intersection_counts
from conftest import random_outside_dihedralizer

SRC = str(Path(psl2units.__file__).resolve().parents[1])


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=300)


@pytest.mark.verdict_check
def test_setup_winner_check_is_refused(monkeypatch):
    # a scan fed traces off by one accepts some xi, whose xi^q / xi then
    # has a trace other than the one the scan read
    true_trace = QuadraticExtension.ratio_trace
    monkeypatch.setattr(QuadraticExtension, "ratio_trace",
                        lambda self, u: self.base.add(true_trace(self, u), 1))
    with pytest.raises(InvariantViolated, match="has not norm 1 and trace"):
        build_setup(PrimePower.from_q(13))


@pytest.mark.verdict_check
def test_generators_of_a_corrupted_setup_are_rejected():
    # t = 2 makes g = [[0, -1], [1, 2]] unipotent, of order 13
    setup = dataclasses.replace(build_setup(PrimePower.from_q(13)), t=2)
    with pytest.raises(InvariantViolated, match="^q=13: g does not have order 7$"):
        make_generators(setup, 7)


@pytest.mark.verdict_check
def test_semisimple_wrong_order_g_is_rejected_under_python_O():
    # t = beta + 1/beta makes g split semisimple, conjugate to sigma: its
    # trace is not +-2 and its order is 6, not 7.  Its name predates the
    # verdict_check marker; test_verdict_checks_raise_under_python_O reruns
    # it under -O
    setup = build_setup(PrimePower.from_q(13))
    fq = setup.fq
    setup = dataclasses.replace(setup, t=fq.add(setup.beta, fq.inv(setup.beta)))
    with pytest.raises(InvariantViolated, match="^q=13: g does not have order 7$"):
        make_generators(setup, 7)


@pytest.mark.verdict_check
def test_corrupted_counts_are_rejected(ctx13):
    gens, _ = ctx13
    counts = intersection_counts(gens, random_outside_dihedralizer(gens, random.Random(5)))
    counts.mb[1][0][0][1] += 1
    with pytest.raises(InvariantViolated):
        assert_count_invariants(gens, counts)


@pytest.mark.verdict_check
def test_certificate_rejects_a_wrong_rank(ctx13, monkeypatch):
    # the rank is read off the checked factorisation tau = psi phi^T: a zero
    # image vector with a zero displacement factors and lies in the kernel,
    # and must still be refused as rank 0
    gens, tab = ctx13
    h = random_outside_dihedralizer(gens, random.Random(6))
    assert spectral.exact_certificate(gens, tab, h, 2, 21).tau_rank == 1
    true_vectors = spectral._odd_vectors

    def zero_image(tab, perm_h):
        psi, phi = true_vectors(tab, perm_h)
        return 0 * psi, phi

    monkeypatch.setattr(spectral, "row_displacement", lambda perm_x, perm_y, cols:
                        np.zeros((len(perm_x), len(cols)), dtype=np.int64))
    monkeypatch.setattr(spectral, "_odd_vectors", zero_image)
    with pytest.raises(InvariantViolated, match="rank 0, not 1"):
        spectral.exact_certificate(gens, tab, h, 2, 21)


@pytest.mark.verdict_check
def test_certificate_rejects_a_wrong_displacement(ctx13, monkeypatch):
    # the certificate recomputes tau = psi phi^T rather than assuming it:
    # 2 tau and tau + I differ from psi phi^T on the walked columns
    gens, tab = ctx13
    h = random_outside_dihedralizer(gens, random.Random(6))
    true_rows = spectral.row_displacement
    monkeypatch.setattr(spectral, "row_displacement",
                        lambda perm_x, perm_y, cols: 2 * true_rows(perm_x, perm_y, cols))
    with pytest.raises(InvariantViolated, match="factor through"):
        spectral.exact_certificate(gens, tab, h, 2, 21)
    monkeypatch.setattr(spectral, "row_displacement",
                        lambda perm_x, perm_y, cols: true_rows(perm_x, perm_y, cols)
                        + np.eye(len(perm_x), dtype=np.int64)[:, cols])
    with pytest.raises(InvariantViolated, match="factor through"):
        spectral.exact_certificate(gens, tab, h, 2, 21)


@pytest.mark.verdict_check
@pytest.mark.parametrize("ctx", ["ctx13", "ctx16"])
def test_certificate_rejects_an_image_vector_off_the_kernel(ctx, request, monkeypatch):
    # tau = psi' phi^T with phi . psi' != 0 factors through psi', but
    # squares to (phi . psi') tau, which is not zero
    gens, tab = request.getfixturevalue(ctx)
    if gens.q % 2:
        h, m, vectors = random_outside_dihedralizer(gens, random.Random(6)), 21, "_odd_vectors"
        psi, phi = spectral._odd_vectors(tab, gens.group.perm_array(h))
    else:
        h, m, vectors = spectral.recipe_element(gens, 0), 17 * 8, "_even_vectors"
        psi, phi = spectral._even_vectors(gens)
    assert spectral.exact_certificate(gens, tab, h, 2, m).ok
    psi_off = psi.copy()
    psi_off[np.flatnonzero(phi)[0]] += 1
    assert phi @ psi_off != 0
    monkeypatch.setattr(spectral, vectors, lambda *args: (psi_off, phi))
    monkeypatch.setattr(spectral, "row_displacement",
                        lambda perm_x, perm_y, cols: np.outer(psi_off, phi[cols]))
    with pytest.raises(InvariantViolated, match="kernel hyperplane"):
        spectral.exact_certificate(gens, tab, h, 2, m)


def _column_faults():
    """Faults of the walked columns at odd q, as patches of spectral's
    row_displacement or _odd_vectors, each with the message that refuses
    it: an entry poked in the last row of a walked column, a phi of one
    value on both g-orbits, whose one walked column leaves an orbit out,
    and a phi changed at one point, so off the g-orbits."""
    rows, vectors = spectral.row_displacement, spectral._odd_vectors

    def poked(perm_x, perm_y, cols):
        tau = rows(perm_x, perm_y, cols)
        tau[-1, -1] += 1
        return tau

    def mixed(tab, perm_h):
        psi, phi = vectors(tab, perm_h)
        return psi, abs(phi)

    def off_orbits(tab, perm_h):
        psi, phi = vectors(tab, perm_h)
        phi[-1] = 0
        return psi, phi

    return {"poked": ({"row_displacement": poked}, "factor through"),
            "mixed": ({"_odd_vectors": mixed}, "cover every point"),
            "off_orbits": ({"_odd_vectors": off_orbits}, "constant on the x-orbits")}


H263 = (85, 170, 103, 107)  # outside D at (263, 11), with an ok certificate


@pytest.fixture(scope="module")
def ctx263():
    # n = 264 points: the poked entry lies far below the first rows
    gens = make_generators(build_setup(PrimePower.from_q(263)), 11)
    return gens, build_orbits(gens)


@pytest.mark.verdict_check
@pytest.mark.parametrize("fault", ["poked", "mixed", "off_orbits"])
def test_certificate_rejects_a_walked_column_fault(ctx263, fault, monkeypatch):
    gens, tab = ctx263
    assert spectral.exact_certificate(gens, tab, H263, 3, 55).ok
    patches, match = _column_faults()[fault]
    for name, fn in patches.items():
        monkeypatch.setattr(spectral, name, fn)
    with pytest.raises(InvariantViolated, match=match):
        spectral.exact_certificate(gens, tab, H263, 3, 55)


@pytest.mark.verdict_check
def test_certificate_rejects_an_order_that_does_not_close(ctx13):
    # the walk along x's row stops after n steps: a row that is no
    # permutation of finite order below n + 1 is refused
    perm_x = np.array([1, 2, 0, 0])  # maps 3 into the cycle, never back
    with pytest.raises(InvariantViolated, match="within 4 steps"):
        spectral.row_displacement(perm_x, np.arange(4), np.arange(4))


@pytest.mark.verdict_check
def test_orbits_of_a_wrong_g_are_rejected(ctx13):
    # sigma has order 6, so its orbit through the point 1 does not close
    # after p * d = 7 steps
    gens, _ = ctx13
    with pytest.raises(InvariantViolated, match="g-orbit through 2 is not of length 7"):
        build_orbits(dataclasses.replace(gens, g=gens.sigma))


@pytest.mark.verdict_check
@pytest.mark.parametrize("ctx,k", [(ctx, k) for ctx, p in (("ctx13", 7), ("ctx25", 13), ("ctx27", 7))
                                   for k in range(2, p)])
def test_orbits_of_a_wrong_power_of_a_are_rejected(ctx, k, request):
    # a^k has the orbits of a, but steps k places along them
    gens, _ = request.getfixturevalue(ctx)
    with pytest.raises(InvariantViolated, match="a does not step one place"):
        build_orbits(dataclasses.replace(gens, a=gens.group.power(gens.a, k)))


@pytest.mark.verdict_check
def test_eigen_data_rejects_collisions_and_misplaced_extremes(monkeypatch):
    # k = 2 takes the closed form, so the checked mpmath route runs at k = 3
    # (3 has order 6 mod 7, so m = 42)
    import mpmath
    assert spectral.eigen_data(7, 3, 42).values[0] == 1
    spectral.eigen_data.cache_clear()  # recompute under the patched sine below
    monkeypatch.setattr(mpmath, "sin", lambda x: mpmath.mpf(1))  # every magnitude 1
    with pytest.raises(InvariantViolated, match="magnitude collision at b=0,1"):
        spectral.eigen_data(7, 3, 42)
    monkeypatch.setattr(mpmath, "sin", lambda x: x + 10)  # every magnitude above 1
    with pytest.raises(InvariantViolated, match="extreme magnitude"):
        spectral.eigen_data(7, 3, 42)


@pytest.mark.verdict_check
def test_unreachable_states_raise_invariant_violated(ctx13):
    gens, _ = ctx13
    with pytest.raises(InvariantViolated, match="zero matrix"):
        gens.group.normalize((0, 0, 0, 0))


@pytest.mark.verdict_check
def test_unit_matrix_refuses_a_coefficient_that_could_overflow(ctx13):
    G = ctx13[0].group
    assert unit_matrix(G, GroupRingElement.one(G) * (2 ** 40 - 1))[0, 0] == 2 ** 40 - 1
    with pytest.raises(OverflowError, match="too large for an int64 matrix"):
        unit_matrix(G, GroupRingElement.one(G) * 2 ** 40)


@pytest.mark.verdict_check
def test_three_point_map_refuses_an_action_that_moves_no_point(ctx16, monkeypatch):
    # the interpolation check decides every even-q recipe certificate
    G = ctx16[0].group
    assert G.apply(G.three_point_map(1, 2, 3, 4, 5, 6), 3) == 6
    monkeypatch.setattr(G, "apply", lambda m, pt: pt)
    with pytest.raises(InvariantViolated, match="does not send"):
        G.three_point_map(1, 2, 3, 4, 5, 6)


def test_src_has_no_assert():
    # python -O strips assert statements and code under __debug__, and an
    # AssertionError reads as a test failure; unreachable states raise
    # InvariantViolated instead
    found = []
    for path in sorted(Path(psl2units.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Assert) or isinstance(node, ast.Name)
                    and node.id in ("AssertionError", "__debug__")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_verdict_checks_raise_under_python_O():
    # every verdict_check test once more, in one python -O child; pytest
    # rewrites the asserts of the tests, so they still check, while src/
    # runs as -O compiled it.  pytest warns of the stripped asserts only
    # under -O, and the summary names no skip, failure or error
    tests = Path(__file__).parent
    proc = _run("-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", "--strict-markers",
                "-m", "verdict_check", str(tests))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "are you using python -O?" in proc.stdout
    summary = proc.stdout.splitlines()[-1]
    assert re.fullmatch(r"\d+ passed, \d+ deselected, \d+ warnings? in .*", summary), summary


def test_import_loads_neither_mpmath_nor_process_pool(tmp_path):
    # a sweep needs neither; mpmath alone costs about 4 MB of RSS at import
    proc = _run("-c", "import sys, psl2units; "
                "print(sorted(m for m in ('mpmath', 'concurrent.futures') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # the package no longer re-exports, so the spectral layer loads without
    # the sweep and its hashlib (OpenSSL, about 3.6 MB of RSS) and logging
    proc = _run("-c", "import sys, psl2units.spectral; print(sorted(m for m in "
                "('psl2units.sweep', 'hashlib', 'logging', 'mpmath') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # an exhaustive check never hashes, and a sweep hashes with the
    # interpreter's builtin sha256, so neither loads hashlib; a sweep that
    # meets no counterexample logs nothing and does not load logging
    proc = _run("-c", "import sys, psl2units.sweep as sweep; "
                "sweep.check_single(27, 7, exhaustive=True); print('hashlib' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    out = tmp_path / "sweep.jsonl"
    proc = _run("-c", "import sys, psl2units.sweep as sweep; "
                f"sweep.run_sweep(7, 30, out_path={str(out)!r}); "
                "print(sorted(m for m in ('hashlib', '_hashlib', 'logging') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
