#!/usr/bin/env python3
"""Benchmark of psl2units: the paper's sweep, an exhaustive survey and the
exact certificate, each checked against ``oracle``'s recomputation.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A run repeats whole rounds of the same
operations until another round would pass ``--seconds`` (always at least
one), checks the outputs, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates traced and untraced rounds
and reports the per-layer metrics (see README.md).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # serial runs on a 2-CPU box; set before numpy loads

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SWEEP_RANGE = (7, 999)
SWEEP_SAMPLES = 200
EXHAUSTIVE_PAIR = (27, 7)
EXHAUSTIVE_CHECK_ROWS = 300
# (q, p, certificates per round, how many of them balanced)
CERTIFY_INPUTS = ((27, 7, 10, 2), (83, 7, 12, 2), (125, 7, 8, 0))
CERTIFY_K, CERTIFY_M = 2, 21
NUMERIC_CHECKS_PER_Q = 2
SETUP_REPEATS = 11
# The speed probe: Moebius images of PROBE_MATRICES seeded matrices at
# q = PROBE_Q, with oracle's own arithmetic.  One untimed pass warms the
# caches the program has cooled; the probe is the mean of PROBE_PASSES more.
# It runs between operations once PROBE_EVERY seconds have passed since the
# last one.  REF_PROBE_S is its median in a calm stretch of the reference
# machine (README), so that times scaled to it read about as raw seconds
# there.
PROBE_Q, PROBE_MATRICES, PROBE_PASSES = 125, 20, 2
PROBE_EVERY = 0.1
REF_PROBE_S = 0.0030


def _load_program():
    if not (SRC / "psl2units" / "__init__.py").is_file():
        sys.exit(f"error: no psl2units sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401  (part of set-up, like the program's own import)
    import psl2units  # noqa: F401


# ---------------------------------------------------------------------------
# Workloads.  Each builds its inputs in __init__ (set-up), runs one round in
# round(clock), calling clock.begin() when the timed part starts, clock.op()
# at the end of each operation and clock.end() when the timed part ends, and
# returns (operations, failed, output).  check() checks the collected
# outputs with the timer stopped.


def _fresh_fields():
    """Empty the program's per-process field cache, so that every round
    builds its fields as the first round (and a fresh process) does."""
    from psl2units import finite_fields
    finite_fields.make_field.cache_clear()


class Sweep:
    """run_sweep over odd q in SWEEP_RANGE, serial; one operation per pair."""

    def __init__(self, seed: int, tmp: Path):
        self.seed, self.out = seed, tmp / "sweep.jsonl"

    def round(self, clock):
        from psl2units import sweep
        out = self.out
        _fresh_fields()
        clock.begin()
        summary = sweep.run_sweep(*SWEEP_RANGE, samples=SWEEP_SAMPLES, seed=self.seed,
                                  jobs=1, out_path=out, progress=lambda key, rec: clock.op())
        clock.end()
        records = [json.loads(line) for line in out.read_text().splitlines()]
        out.unlink()
        out.with_name(out.name + ".journal").unlink()
        failed = sum(not r["satisfied"] for r in records)
        return len(records), failed, (summary.pairs, summary.satisfied, records)

    def check(self, outputs):
        import oracle
        pairs, satisfied, records = outputs[0]
        oracle.require(pairs == len(records) and satisfied == sum(r["satisfied"] for r in records),
                       "the sweep summary disagrees with its output file")
        oracle.check_sweep([r for r in records if r["satisfied"]], *SWEEP_RANGE)
        _require_repeats(outputs)


class Exhaustive:
    """check_single(27, 7, exhaustive=True); one operation per candidate h."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def round(self, clock):
        from psl2units import sweep
        _fresh_fields()
        clock.begin()
        rec = sweep.check_single(*EXHAUSTIVE_PAIR, exhaustive=True)
        clock.op()
        clock.end()
        return rec.tries, 0, rec.to_json_dict()

    def check(self, outputs):
        import numpy as np
        import oracle
        from psl2units.engine import ConditionEngine
        from psl2units.finite_fields import PrimePower, build_setup
        from psl2units.orbits import build_orbits
        from psl2units.projective import make_generators
        rec = outputs[0]
        q, p = EXHAUSTIVE_PAIR
        gens = make_generators(build_setup(PrimePower.from_q(q)), p)
        geo = oracle.Geometry(oracle.Field(q), rec["t_encoding"], p)
        rows = oracle.seeded_rows(geo, self.seed, EXHAUSTIVE_CHECK_ROWS)
        verdicts = ConditionEngine(gens, build_orbits(gens)).condition_batch(
            np.array(rows, dtype=np.int64))
        oracle.check_exhaustive(rec, rows, verdicts)
        _require_repeats(outputs)


class Certify:
    """exact_certificate on seeded h outside D; one operation per certificate."""

    def __init__(self, seed: int, tmp: Path):
        import numpy as np
        import oracle
        from psl2units.engine import ConditionEngine
        from psl2units.finite_fields import PrimePower, build_setup
        from psl2units.orbits import build_orbits
        from psl2units.projective import make_generators
        self.seed = seed
        self.items = []
        for q, p, count, balanced in CERTIFY_INPUTS:
            gens = make_generators(build_setup(PrimePower.from_q(q)), p)
            tab = build_orbits(gens)
            engine = ConditionEngine(gens, tab)
            F = oracle.Field(q)
            rng = random.Random(f"certify:{seed}:{q}")
            picked = {False: [], True: []}  # keyed by "unbalanced"
            want = {False: balanced, True: count - balanced}
            while any(len(picked[k]) < want[k] for k in picked):
                mats = np.array([F.random_sl2(rng) for _ in range(512)], dtype=np.int64)
                mats = mats[~engine.in_dihedralizer_batch(mats)]
                unbalanced = engine.criteria_batch(mats)[3]
                for row, flag in zip(mats, unbalanced):
                    if len(picked[bool(flag)]) < want[bool(flag)]:
                        picked[bool(flag)].append(gens.group.normalize(tuple(int(x) for x in row)))
            hs = picked[False] + picked[True]
            rng.shuffle(hs)
            self.items.append((gens, tab, hs, balanced))

    def round(self, clock):
        from psl2units import spectral
        certs = []
        failed = 0
        clock.begin()
        for gens, tab, hs, _ in self.items:
            for h in hs:
                try:
                    certs.append(spectral.exact_certificate(gens, tab, h, CERTIFY_K, CERTIFY_M))
                except Exception as exc:  # counted as a failed operation, reported below
                    print(f"certificate failed for q={gens.q} h={h}: {exc!r}", file=sys.stderr)
                    certs.append(None)
                    failed += 1
                clock.op()
        clock.end()
        return len(certs), failed, certs

    def check(self, outputs):
        import oracle
        from psl2units.criteria import criterion_report
        from psl2units.spectral import numeric_oracle
        certs = iter(outputs[0])
        for gens, tab, hs, balanced in self.items:
            mine = [next(certs) for _ in hs]
            kept = [(h, c) for h, c in zip(hs, mine) if c is not None]
            geo = oracle.Geometry(oracle.Field(gens.q), gens.setup.t, gens.p)
            oracle.check_certificates(geo, [h for h, _ in kept], [c for _, c in kept],
                                      [criterion_report(gens, tab, h) for h, _ in kept])
            oracle.require(sum(not c.ok for _, c in kept) == balanced,
                           f"q={gens.q}: expected {balanced} balanced inputs")
            rng = random.Random(f"numeric:{self.seed}:{gens.q}")
            for h, c in rng.sample(kept, NUMERIC_CHECKS_PER_Q):
                num = numeric_oracle(gens, tab, h, CERTIFY_K, CERTIFY_M)
                oracle.require(num.ok == c.ok, f"numeric oracle disagrees for q={gens.q} h={h}")
        dicts = [[c.as_dict() if c else None for c in out] for out in outputs]
        _require_repeats(dicts)


WORKLOADS = {"sweep": Sweep, "exhaustive": Exhaustive, "certify": Certify}


def _require_repeats(outputs):
    """Every round reproduces the first (sweep records up to elapsed_ms)."""
    import oracle

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "elapsed_ms"}
        if isinstance(x, (list, tuple)):
            return [strip(v) for v in x]
        return x
    first = strip(outputs[0])
    oracle.require(all(strip(o) == first for o in outputs[1:]), "a round differs from the first")


# ---------------------------------------------------------------------------
# Measurement


class SpeedProbe:
    """Times a fixed piece of pure-Python work that the program cannot
    change.  The machine drifts between speed levels that hold from seconds
    to minutes, longer than a run, so a raw time says as much about the
    level as about the program; a time over the probe's time taken next to
    it does not.  The collector is off while the probe runs, so that a
    program that leaves a large heap behind cannot slow the probe and hide
    its cost."""

    def __init__(self):
        import oracle
        self.field = oracle.Field(PROBE_Q)
        rng = random.Random(0)
        self.mats = [self.field.random_sl2(rng) for _ in range(PROBE_MATRICES)]

    def __call__(self) -> float:
        from oracle import perm
        enabled = gc.isenabled()
        gc.disable()
        try:
            for m in self.mats:
                perm(self.field, m)
            t0 = time.perf_counter()
            for _ in range(PROBE_PASSES):
                for m in self.mats:
                    perm(self.field, m)
            return (time.perf_counter() - t0) / PROBE_PASSES
        finally:
            if enabled:
                gc.enable()

    def scaled(self, timed) -> float:
        """Run `timed()`, which returns seconds, between two probes; return
        those seconds scaled to the reference speed."""
        before = self()
        took = timed()
        return took * 2 * REF_PROBE_S / (before + self())


class Rounds:
    """The clock of whole rounds of one workload and their results.

    Each round is a list of spans (seconds, probe index, is an operation):
    the time from the end of one operation, or of a probe after it, to the
    end of the next, with the index of the last probe before it.  With a
    probe, the rounds are scaled: each span by the mean of the probes on
    either side of it; probe time lies in no span.  Without one (the traced
    run, whose spans would count the probe in the program's layers) the
    rounds are raw."""

    def __init__(self, probe: SpeedProbe | None = None):
        self.probe = probe
        self.probes = [probe()] if probe else []
        self.rounds, self.ops, self.failed, self.outputs = [], [], [], []
        self._last_probe = time.perf_counter()

    def run(self, work) -> None:
        self.rounds.append([])
        ops, failed, output = work.round(self)
        self.ops.append(ops)
        self.failed.append(failed)
        self.outputs.append(output)

    def begin(self) -> None:
        self._mark = time.perf_counter()

    def op(self, is_op: bool = True) -> None:
        now = time.perf_counter()
        self.rounds[-1].append((now - self._mark, len(self.probes) - 1, is_op))
        if self.probe and now - self._last_probe >= PROBE_EVERY:
            self.probes.append(self.probe())
            self._last_probe = time.perf_counter()
        self._mark = time.perf_counter()

    def end(self) -> None:
        """The timed part's time after its last operation."""
        self.op(is_op=False)

    def close(self) -> None:
        """A last probe, after the last span."""
        if self.probe:
            self.probes.append(self.probe())

    def _seconds(self, span) -> float:
        seconds, k, _ = span
        if not self.probe:
            return seconds
        return seconds * 2 * REF_PROBE_S / (self.probes[k] + self.probes[k + 1])

    def walls(self) -> list[float]:
        return [sum(self._seconds(span) for span in spans) for spans in self.rounds]

    def wall(self) -> float:
        """The median round."""
        return statistics.median(self.walls())

    def per_op(self) -> list[float]:
        """Each operation's median time over the rounds."""
        times = [[self._seconds(span) for span in spans if span[2]] for spans in self.rounds]
        return [statistics.median(op) for op in zip(*times)]


def _tail(latencies: list) -> float:
    """The highest of the 99th, 95th and 90th percentiles with at least ten
    samples beyond it, else the largest sample.  The sample count is the
    number of operations in a round, fixed per workload, so the percentile
    chosen never changes between runs."""
    for pct in (99, 95, 90):
        if len(latencies) * (100 - pct) / 100 >= 10:
            return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return max(latencies)


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             "--workload", workload, "--seed", str(seed), "--setup-only"],
                            cwd=ROOT, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    took = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up probe failed")
    return took


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _checked(work, outputs) -> bool:
    import oracle
    try:
        work.check(outputs)
    except oracle.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False
    return True


def end_to_end(workload: str, seed: int, seconds: float, work):
    """Every time is scaled to the reference speed by the probes next to
    it (SpeedProbe).  wall_s is the median round; the operation percentiles
    use each operation's median over the rounds.  setup_s is the median of
    SETUP_REPEATS fresh processes, started one at a time and spread over
    the run."""
    probe = SpeedProbe()
    runs = Rounds(probe)
    setups, took = [], []
    start = time.perf_counter()
    while True:  # whole rounds until the next would end after `seconds`
        t0 = time.perf_counter()
        runs.run(work)
        took.append(time.perf_counter() - t0)
        if len(setups) * seconds <= (time.perf_counter() - start) * SETUP_REPEATS:
            setups.append(probe.scaled(lambda: _setup_probe(workload, seed)))
        if time.perf_counter() - start + statistics.median(took) > seconds:
            break
    runs.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_REPEATS:
        setups.append(probe.scaled(lambda: _setup_probe(workload, seed)))
    correct = _checked(work, runs.outputs)
    per_op = runs.per_op()
    wall = runs.wall()
    metrics = {
        "wall_s": _metric(wall, "s"),
        "ops_per_s": _metric((runs.ops[0] - runs.failed[0]) / wall, "1/s"),
        "op_p50_ms": _metric(statistics.median(per_op) * 1000, "ms"),
        "op_tail_ms": _metric(_tail(per_op) * 1000, "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    raw = sorted(took)
    print(f"{workload}: {len(raw)} rounds of {len(per_op)} operations, {len(runs.probes)} "
          f"probes; raw round with probes min {raw[0]:.3f} s, median "
          f"{statistics.median(raw):.3f} s, max {raw[-1]:.3f} s; probe median "
          f"{statistics.median(runs.probes) * 1000:.2f} ms (reference {REF_PROBE_S * 1000:.2f} ms)",
          file=sys.stderr)
    return correct, sum(runs.ops), sum(runs.failed), metrics


# span name -> per-layer metric; times are self times per traced round
LAYERS = {
    "finite_fields.build_setup": "finite_fields.build_setup_s",
    "projective.make_generators": "projective.make_generators_s",
    "orbits.build_orbits": "orbits.build_orbits_s",
    "criteria.search_companion": "criteria.search_companion_s",
    "sweep.evaluate_pair": "sweep.evaluate_pair_s",
    "sweep.run_sweep": "sweep.write_s",
    "engine.init": "engine.init_s",
    "engine.enumerate_batches": "engine.enumerate_batches_s",
    "engine.in_dihedralizer_batch": "engine.in_dihedralizer_batch_s",
    "engine.condition_batch": "engine.condition_batch_s",
    "engine.mobius_batch": "engine.mobius_batch_s",
    "engine.survey": "engine.survey_s",
    "spectral.exact_certificate": "spectral.exact_certificate_s",
    "spectral.nilpotent_part": "spectral.nilpotent_part_s",
    "group_ring.bicyclic_right": "group_ring.bicyclic_right_s",
    "spectral.integer_rank": "spectral.integer_rank_s",
    "spectral.projection_coeffs": "spectral.projection_coeffs_s",
    "spectral.eigen_data": "spectral.eigen_data_s",
    "projective.perm_array": "projective.perm_array_s",
}
COUNTS = ("criteria.candidates", "engine.rows", "engine.candidates",
          "projective.perm_array_calls")


def _install_trace(tracer):
    """Wrap each layer where its caller looks it up: the benchmark calls
    sweep.run_sweep, sweep.check_single and spectral.exact_certificate
    through their modules, and those modules call the rest by name."""
    from psl2units import engine, projective, spectral, sweep

    def search_counts(counts, args, result):
        counts["criteria.candidates"] += result.tries
        counts["criteria.hits"] += result.h is not None

    def batch_rows(counts, mats):
        counts["engine.rows"] += mats.shape[0]

    def condition_rows(counts, args, result):
        counts["engine.candidates"] += args[1].shape[0]

    def perm_calls(counts, args, result):
        counts["projective.perm_array_calls"] += 1

    tracer.wrap(sweep, "run_sweep", "sweep.run_sweep")
    tracer.wrap(sweep, "evaluate_pair", "sweep.evaluate_pair")
    tracer.wrap(sweep, "build_setup", "finite_fields.build_setup")
    tracer.wrap(sweep, "make_generators", "projective.make_generators")
    tracer.wrap(sweep, "build_orbits", "orbits.build_orbits")
    tracer.wrap(sweep, "search_companion", "criteria.search_companion", search_counts)
    cls = engine.ConditionEngine
    tracer.wrap(cls, "__init__", "engine.init")
    tracer.wrap_generator(cls, "enumerate_batches", "engine.enumerate_batches", batch_rows)
    tracer.wrap(cls, "in_dihedralizer_batch", "engine.in_dihedralizer_batch")
    tracer.wrap(cls, "condition_batch", "engine.condition_batch", condition_rows)
    tracer.wrap(cls, "mobius_batch", "engine.mobius_batch")
    tracer.wrap(cls, "survey", "engine.survey")
    for name in ("exact_certificate", "nilpotent_part", "integer_rank", "projection_coeffs",
                 "eigen_data"):
        tracer.wrap(spectral, name, f"spectral.{name}")
    tracer.wrap(spectral, "bicyclic_right", "group_ring.bicyclic_right")
    tracer.wrap(projective.PSL2, "perm_array", "projective.perm_array", perm_calls)


def per_layer(workload: str, seed: int, seconds: float, work):
    """Pairs of rounds, one traced and one not, until the next pair would
    end after `seconds`; the tracing overhead is the median over the pairs
    of the traced round's raw time minus the untraced one's, so that the
    two sides of each difference meet the same machine speed.
    The layers' self times are raw seconds per traced round."""
    from spans import Tracer
    tracer = Tracer()
    traced, plain = Rounds(), Rounds()
    start = time.perf_counter()
    while True:
        _install_trace(tracer)
        try:
            traced.run(work)
        finally:
            tracer.restore()
        plain.run(work)
        if time.perf_counter() - start + 2 * plain.wall() > seconds:
            break
    correct = _checked(work, traced.outputs + plain.outputs)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload}-seed{seed}.jsonl")

    rounds = len(traced.rounds)
    own = tracer.self_times()
    nested = tracer.self_times(nested_only=True)
    metrics = {metric: _metric(own.get(span, 0.0) / rounds, "s")
               for span, metric in LAYERS.items()}
    for name in COUNTS:
        metrics[name] = _metric(tracer.counts.get(name, 0) / rounds, "count")
    cand = tracer.counts.get("criteria.candidates", 0)
    metrics["criteria.hits_per_candidate"] = _metric(
        tracer.counts.get("criteria.hits", 0) / cand if cand else 0.0, "ratio")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(t - u for t, u in zip(traced.walls(), plain.walls())), "s")
    # The root span (run_sweep, evaluate_pair under check_single, or
    # exact_certificate) is left out: its self time is whatever no inner
    # layer covers, and with it the shares would add up to 1 by construction.
    metrics["trace.layer_share"] = _metric(sum(nested.values()) / sum(traced.walls()), "ratio")
    runs = (traced, plain)
    return (correct, sum(sum(r.ops) for r in runs), sum(sum(r.failed) for r in runs),
            metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit (set-up probe)")
    args = ap.parse_args(argv)

    _load_program()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        work = WORKLOADS[args.workload](args.seed, tmp)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        measure = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = measure(args.workload, args.seed,
                                                      args.seconds, work)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
