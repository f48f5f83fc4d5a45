"""The benchmark's hold on the program: its self-test passes, and its
per-layer trace finds, wraps and restores every name it looks up."""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=PERFBENCH, capture_output=True,
                          text=True, timeout=300)


def test_perfbench_selftest_passes():
    proc = _run("selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("0 failures")


def test_trace_installs_and_restores():
    # one small call per workload while traced, then every wrapped name
    # must be back to the function it replaced
    proc = _run("-c", """
import random, tempfile
from pathlib import Path
import run
run._load_program()
from spans import Tracer
from psl2units import spectral, sweep
from psl2units.finite_fields import PrimePower, build_setup
from psl2units.orbits import build_orbits
from psl2units.projective import make_generators
tracer = Tracer()
run._install_trace(tracer)
wrapped = list(tracer._undo)
try:
    with tempfile.TemporaryDirectory() as tmp:
        sweep.run_sweep(7, 30, out_path=Path(tmp) / "s.jsonl")
    sweep.check_single(27, 7, exhaustive=True)
    gens = make_generators(build_setup(PrimePower.from_q(13)), 7)
    spectral.exact_certificate(gens, build_orbits(gens), (1, 2, 1, 3), 2, 21)
finally:
    tracer.restore()
print(all(owner.__dict__[attr] is orig for owner, attr, orig in wrapped))
print(sorted(set(tracer.names)))
""")
    assert proc.returncode == 0, proc.stderr
    restored, names = proc.stdout.splitlines()
    assert restored == "True"
    for span in ("orbits.build_orbits", "criteria.search_companion", "engine.init",
                 "engine.enumerate_batches", "engine.mobius_batch", "engine.survey",
                 "spectral.exact_certificate", "projective.perm_array"):
        assert repr(span) in names
