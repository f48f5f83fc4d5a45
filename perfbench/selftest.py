#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Builds small real outputs with psl2units (a sweep over 7..200, the
exhaustive survey at q = 27, certificates at q = 27), shows that every
check accepts them, then feeds each check corrupted copies and shows
that each one is rejected.  Exits 1 if a clean output fails or a
corruption passes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import shutil
import sys
import tempfile

import run

run._load_program()

import numpy as np  # noqa: E402
import oracle  # noqa: E402
from psl2units import spectral, sweep  # noqa: E402
from psl2units.criteria import criterion_report  # noqa: E402
from psl2units.engine import ConditionEngine  # noqa: E402
from psl2units.finite_fields import PrimePower, build_setup  # noqa: E402
from psl2units.orbits import build_orbits  # noqa: E402
from psl2units.projective import make_generators  # noqa: E402

Q_MAX = 200
failures = []


def expect(ok: bool, name: str, fn, *args) -> None:
    try:
        fn(*args)
        passed = True
    except oracle.CheckFailed as exc:
        passed, reason = False, str(exc)
    if passed == ok:
        print(f"ok    {name}" + ("" if passed else f"  ({reason})"))
    else:
        print(f"FAIL  {name}: check {'rejected' if ok else 'accepted'} it")
        failures.append(name)


def context(q, p):
    gens = make_generators(build_setup(PrimePower.from_q(q)), p)
    tab = build_orbits(gens)
    return gens, tab, oracle.Geometry(oracle.Field(q), gens.setup.t, p)


def failing_h(geo, seed=0):
    """A determinant-1 h outside D whose orbit sums are equal."""
    for h in oracle.seeded_rows(geo, seed, 10_000):
        lhs, rhs = geo.orbit_sums(oracle.perm(geo.F, h))
        if lhs == rhs:
            return list(h)
    raise RuntimeError("no h with equal orbit sums")


def sweep_cases(tmp):
    out = tmp / "sweep.jsonl"
    sweep.run_sweep(7, Q_MAX, seed=3, out_path=out)
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    expect(True, "sweep: clean output", oracle.check_sweep, recs, 7, Q_MAX)
    i27 = next(i for i, r in enumerate(recs) if r["q"] == 27)

    def mutated(change, i=i27):
        bad = copy.deepcopy(recs)
        change(bad[i])
        return bad

    geo27 = context(27, 7)[2]
    cases = {
        "record dropped": recs[:i27] + recs[i27 + 1:],
        "records reordered": [recs[1], recs[0]] + recs[2:],
        "satisfied false": mutated(lambda r: r.update(satisfied=False)),
        "witness missing": mutated(lambda r: r.pop("h")),
        "h = [0, 0, 0, 0]": mutated(lambda r: r.update(h=[0, 0, 0, 0])),
        "h of determinant -1": mutated(lambda r: r.update(h=[0, 1, 1, 0])),
        "h in D (identity)": mutated(lambda r: r.update(h=[1, 0, 0, 1])),
        "h with equal orbit sums": mutated(lambda r: r.update(h=failing_h(geo27))),
        "t with a root (X^2 - 2X + 1)": mutated(lambda r: r.update(t_encoding=2)),
        "wrong d": mutated(lambda r: r.update(d=r["d"] + 1)),
    }
    for name, bad in cases.items():
        expect(False, f"sweep: {name}", oracle.check_sweep, bad, 7, Q_MAX)


def exhaustive_cases():
    q, p = 27, 7
    rec = sweep.check_single(q, p, exhaustive=True).to_json_dict()
    gens, tab, geo = context(q, p)
    rows = oracle.seeded_rows(geo, 5, 300)
    verdicts = ConditionEngine(gens, tab).condition_batch(np.array(rows, dtype=np.int64))
    expect(True, "exhaustive: clean output", oracle.check_exhaustive, rec, rows, verdicts)
    sat, total = (int(x) for x in rec["fraction"].split("/"))
    flipped = [v.copy() for v in verdicts]
    flipped[0][7] = not flipped[0][7]
    shifted = [v.copy() for v in verdicts]
    shifted[1][11] += 1
    cases = {
        "total + 1": (dict(rec, fraction=f"{sat}/{total + 1}", tries=total + 1), verdicts),
        "satisfied - 1": (dict(rec, fraction=f"{sat - 1}/{total}"), verdicts),
        "satisfied moved by one double coset past total":
            (dict(rec, fraction=f"{total + 196}/{total}"), verdicts),
        "first_h with equal orbit sums": (dict(rec, h=failing_h(geo)), verdicts),
        "engine verdict flipped on one row": (rec, flipped),
        "engine lhs off by one on one row": (rec, shifted),
    }
    for name, (bad, v) in cases.items():
        expect(False, f"exhaustive: {name}", oracle.check_exhaustive, bad, rows, v)


def certify_cases():
    gens, tab, geo = context(27, 7)
    rng = random.Random(4)
    hs = [gens.group.normalize(h) for h in oracle.seeded_rows(geo, 6, 60)]
    certs = [spectral.exact_certificate(gens, tab, h, 2, 21) for h in hs]
    reports = [criterion_report(gens, tab, h) for h in hs]
    expect(True, "certify: clean output", oracle.check_certificates, geo, hs, certs, reports)
    balanced = next(i for i, c in enumerate(certs) if not c.ok)
    unbalanced = next(i for i, c in enumerate(certs) if c.ok)
    i = rng.randrange(len(hs))

    def with_cert(j, **change):
        bad = list(certs)
        bad[j] = dataclasses.replace(certs[j], **change)
        return bad

    def with_report(j, **change):
        bad = list(reports)
        bad[j] = dataclasses.replace(reports[j], **change)
        return bad

    cases = {
        "ok flipped on an unbalanced h": (with_cert(unbalanced, ok=False), reports),
        "ok flipped on a balanced h": (with_cert(balanced, ok=True), reports),
        "tau rank 2": (with_cert(i, tau_rank=2), reports),
        "criterion report flipped": (certs, with_report(balanced, unbalanced=True)),
        "certificate missing": (certs[:-1], reports),
    }
    for name, (c, r) in cases.items():
        expect(False, f"certify: {name}", oracle.check_certificates, geo, hs, c, r)


def repeat_cases():
    first = [{"q": 7, "h": [1, 2, 3, 4], "elapsed_ms": 5}]
    expect(True, "rounds: elapsed_ms may differ", run._require_repeats,
           [first, [dict(first[0], elapsed_ms=9)]])
    expect(False, "rounds: a later round differs", run._require_repeats,
           [first, [dict(first[0], h=[1, 2, 3, 5])]])


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    tmp = run.Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        sweep_cases(tmp)
        exhaustive_cases()
        certify_cases()
        repeat_cases()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"\n{len(failures)} failures" + (f": {failures}" if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
