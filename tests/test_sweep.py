import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import psl2units
from psl2units.cli import main
from psl2units.errors import InadmissiblePair
from psl2units.sweep import (
    SweepRecord, admissible_primes, check_single, odd_prime_powers, run_sweep,
    task_seed,
)


def record_from_json(d: dict) -> SweepRecord:
    """The record a JSON line of the sweep output was written from."""
    frac = None
    if "fraction" in d:
        num, den = d["fraction"].split("/")
        frac = (int(num), int(den))
    return SweepRecord(q=d["q"], l=d["l"], r=d["r"], p=d["p"], d=d["d"],
                       t_encoding=d["t_encoding"], h=d.get("h"), tries=d["tries"],
                       satisfied=d["satisfied"], fraction=frac,
                       elapsed_ms=d["elapsed_ms"], mode=d["mode"])


def test_admissible_primes():
    assert admissible_primes(13) == [7]
    assert admissible_primes(27) == [7]
    assert admissible_primes(37) == [19]
    assert admissible_primes(53) == []          # 54 = 2 * 3^3
    assert admissible_primes(9) == []           # 10 = 2 * 5, no p > 5
    assert admissible_primes(2197) == [157]     # 2198 = 2 * 7 * 157; 13 = -1 mod 7


def test_seeds_and_digests_are_sha256():
    # the interpreter's builtin sha256 gives what hashlib's does
    for seed, q, p in ((0, 13, 7), (1, 27, 7), (12345, 997, 499)):
        want = hashlib.sha256(f"{seed}:{q}:{p}".encode()).digest()
        assert task_seed(seed, q, p) == int.from_bytes(want[:8], "big")
    rec = SweepRecord(q=27, l=3, r=3, p=7, d=2, t_encoding=5, h=[1, 2, 3, 4], tries=1,
                      satisfied=True, fraction=(3, 7), elapsed_ms=12, mode="SAMPLED")
    payload = {k: v for k, v in rec.to_json_dict().items() if k != "elapsed_ms"}
    assert rec.digest() == hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_odd_prime_powers_range():
    qs = [pp.q for pp in odd_prime_powers(7, 50)]
    assert qs == [7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49]


def test_task_seed_stable():
    assert task_seed(1, 13, 7) == task_seed(1, 13, 7)
    assert task_seed(1, 13, 7) != task_seed(2, 13, 7)
    assert task_seed(1, 13, 7) != task_seed(1, 27, 7)


def test_admissibility_matches_order_condition_below_2000():
    # on the gating range the predicate rejects no prime divisor p > 5 of
    # q + 1, so the swept pairs are those of the divisor filter alone; the
    # first exception in the stretch range is (2197, 7)
    from psl2units.classify import ORDER_CONDITION, dpc_predicate
    from psl2units.finite_fields import factorize
    for pp in odd_prime_powers(7, 1999):
        assert admissible_primes(pp.q) == sorted(p for p in factorize(pp.q + 1) if p > 5)
        for p in admissible_primes(pp.q):
            assert dpc_predicate(pp.q, p).reason == ORDER_CONDITION, (pp.q, p)
    assert dpc_predicate(2197, 7).predicate is False
    assert dpc_predicate(2197, 157).reason == ORDER_CONDITION


def test_check_single_exhaustive_13():
    rec = check_single(13, 7, exhaustive=True)
    assert rec.satisfied and rec.mode == "EXHAUSTIVE"
    assert rec.fraction == (1078, 1078)
    assert rec.tries == 1078
    assert rec.d == 1 and rec.l == 13 and rec.r == 1


def test_check_single_exhaustive_25():
    rec = check_single(25, 13, exhaustive=True)
    assert rec.fraction == (7774, 7774)


def test_check_single_exhaustive_27():
    rec = check_single(27, 7, exhaustive=True)
    num, den = rec.fraction
    assert den == 9828 - 28
    assert 0 < num < den  # not every h works at q = 27


def test_check_single_sampled_deterministic():
    r1 = check_single(13, 7, samples=200, seed=5)
    r2 = check_single(13, 7, samples=200, seed=5)
    assert r1.h == r2.h and r1.tries == r2.tries
    assert r1.satisfied and r1.mode == "SAMPLED"
    assert r1.fraction is None


def test_check_single_inadmissible():
    with pytest.raises(InadmissiblePair) as exc:
        check_single(16, 17)
    assert exc.value.reason == "q even"
    with pytest.raises(InadmissiblePair) as exc:
        check_single(15, 7)
    assert exc.value.reason == "q not a prime power"
    with pytest.raises(InadmissiblePair) as exc:
        check_single(1, 7)
    assert exc.value.reason == "q not a prime power"
    with pytest.raises(InadmissiblePair) as exc:
        check_single(13, 6)
    assert exc.value.reason == "p not prime"
    with pytest.raises(InadmissiblePair) as exc:
        check_single(9, 5)
    assert exc.value.reason == "p <= 5"
    with pytest.raises(InadmissiblePair) as exc:
        check_single(13, 11)
    assert exc.value.reason == "p does not divide q+1"
    with pytest.raises(InadmissiblePair) as exc:
        check_single(2197, 7)
    assert exc.value.reason.startswith("no dihedral p-critical element")


def test_check_single_q_below_four_has_its_own_reason():
    # 3 is a prime power; PSL(2, 3) is refused because it is not simple
    with pytest.raises(InadmissiblePair) as exc:
        check_single(3, 7)
    assert exc.value.reason == "q < 4: PSL(2,q) is not simple"


def test_record_json_roundtrip():
    rec = check_single(13, 7, exhaustive=True)
    data = json.loads(rec.to_json_line())
    assert list(data) == ["q", "l", "r", "p", "d", "t_encoding", "h", "tries",
                          "satisfied", "fraction", "elapsed_ms", "mode"]
    back = record_from_json(data)
    assert back.digest() == rec.digest()


def test_run_sweep_deterministic(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    s1 = run_sweep(7, 120, samples=50, seed=3, jobs=1, out_path=out1)
    s2 = run_sweep(7, 120, samples=50, seed=3, jobs=1, out_path=out2)
    assert s1.all_satisfied

    def strip(path):
        lines = []
        for line in path.read_text().splitlines():
            d = json.loads(line)
            d.pop("elapsed_ms")
            lines.append(json.dumps(d))
        return lines

    assert strip(out1) == strip(out2)


def test_run_sweep_parallel_matches_serial(tmp_path):
    out1 = tmp_path / "serial.jsonl"
    out2 = tmp_path / "par.jsonl"
    run_sweep(7, 200, samples=50, seed=3, jobs=1, out_path=out1)
    run_sweep(7, 200, samples=50, seed=3, jobs=4, out_path=out2)

    def strip(path):
        out = []
        for line in path.read_text().splitlines():
            d = json.loads(line)
            d.pop("elapsed_ms")
            out.append(json.dumps(d))
        return out

    assert strip(out1) == strip(out2)


def test_run_sweep_reversed_range_keeps_existing_output(tmp_path):
    # a reversed range is refused before the output or its journal is
    # opened; an ordered range without odd prime powers is a 0/0 success
    out = tmp_path / "keep.jsonl"
    run_sweep(7, 30, samples=50, seed=1, out_path=out)
    kept = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    for resume in (False, True):
        with pytest.raises(ValueError, match="q_min=2000 is above q_max=7"):
            run_sweep(2000, 7, out_path=out, resume=resume)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == kept
    summary = run_sweep(8, 8, out_path=tmp_path / "empty.jsonl")
    assert (summary.pairs, summary.satisfied, summary.all_satisfied) == (0, 0, True)


@pytest.mark.parametrize("q_max,jobs,cpus,workers", [
    (60, 10 ** 6, 4, 4),      # bounded by the CPUs
    (60, 10 ** 6, 64, 6),     # by the 6 pending pairs
    (60, 3, 64, 3),           # by jobs
    (60, 10 ** 6, 1, None),   # one CPU: serial
    (60, 10 ** 6, None, None),  # an unknown CPU count counts as one
    (13, 8, 8, None),         # one pending pair: serial
], ids=["cpus", "pairs", "jobs", "one-cpu", "unknown-cpus", "one-pair"])
def test_run_sweep_pool_size(tmp_path, monkeypatch, q_max, jobs, cpus, workers):
    # a stand-in pool records its size and maps in this process, so no
    # worker is started whatever jobs asks for
    import concurrent.futures

    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    serial = tmp_path / "serial.jsonl"
    run_sweep(7, q_max, samples=50, seed=3, jobs=1, out_path=serial)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    out = tmp_path / "pooled.jsonl"
    run_sweep(7, q_max, samples=50, seed=3, jobs=jobs, out_path=out)
    assert made == ([] if workers is None else [workers])

    def strip(path):
        return [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
                for line in path.read_text().splitlines()]

    assert strip(out) == strip(serial)
    # a resumed sweep with nothing pending starts no pool
    made.clear()
    run_sweep(7, q_max, samples=50, seed=3, jobs=jobs, out_path=out, resume=True)
    assert made == [] and strip(out) == strip(serial)


def test_run_sweep_resume(tmp_path):
    out = tmp_path / "full.jsonl"
    summary = run_sweep(7, 150, samples=50, seed=4, jobs=1, out_path=out)
    full_lines = out.read_text().splitlines()
    journal_lines = (tmp_path / "full.jsonl.journal").read_text().splitlines()
    assert len(full_lines) == len(journal_lines) == summary.pairs

    # simulate a crash: keep the first 3 completed records plus one
    # orphan record whose journal line was never written
    crash = tmp_path / "crash.jsonl"
    crash.write_text("\n".join(full_lines[:4]) + "\n")
    (tmp_path / "crash.jsonl.journal").write_text("\n".join(journal_lines[:3]) + "\n")

    resumed = run_sweep(7, 150, samples=50, seed=4, jobs=1, out_path=crash,
                        resume=True)
    assert resumed.all_satisfied

    def strip(lines):
        out = []
        for line in lines:
            d = json.loads(line)
            d.pop("elapsed_ms")
            out.append(json.dumps(d))
        return out

    assert strip(crash.read_text().splitlines()) == strip(full_lines)


def _records(path: Path) -> list[dict]:
    """The records of a sweep output, without their elapsed_ms."""
    return [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
            for line in path.read_text().splitlines()]


def test_run_sweep_resume_with_a_narrower_range(tmp_path):
    # the records of 7..100 outside 7..30 are neither written nor counted
    out, fresh = tmp_path / "wide.jsonl", tmp_path / "fresh.jsonl"
    assert run_sweep(7, 100, seed=1, out_path=out).pairs == 12
    resumed = run_sweep(7, 30, seed=1, out_path=out, resume=True)
    assert (resumed.pairs, resumed.satisfied) == (3, 3)
    run_sweep(7, 30, seed=1, out_path=fresh)
    assert _records(out) == _records(fresh)
    assert len((tmp_path / "wide.jsonl.journal").read_text().splitlines()) == 3


@pytest.mark.parametrize("flags", [{"seed": 2}, {"samples": 1}], ids=["seed", "samples"])
def test_run_sweep_resume_under_other_flags_reruns_every_pair(tmp_path, flags):
    out, fresh = tmp_path / "first.jsonl", tmp_path / "fresh.jsonl"
    first = run_sweep(7, 150, samples=50, seed=1, out_path=out)
    other = {"samples": 50, "seed": 1, **flags}
    ran = []
    resumed = run_sweep(7, 150, out_path=out, resume=True,
                        progress=lambda key, rec: ran.append(key), **other)
    assert len(ran) == resumed.pairs == first.pairs
    run_sweep(7, 150, out_path=fresh, **other)
    assert _records(out) == _records(fresh)
    # resuming again under the same flags runs nothing
    ran.clear()
    run_sweep(7, 150, out_path=out, resume=True, progress=lambda key, rec: ran.append(key),
              **other)
    assert ran == [] and _records(out) == _records(fresh)


def test_run_sweep_resume_reruns_a_journal_without_flags(tmp_path):
    # a journal whose entries name no seed and samples counts nothing as done
    out = tmp_path / "old.jsonl"
    first = run_sweep(7, 150, samples=50, seed=1, out_path=out)
    journal = tmp_path / "old.jsonl.journal"
    entries = [json.loads(line) for line in journal.read_text().splitlines()]
    assert all((e.pop("seed"), e.pop("samples")) == (1, 50) for e in entries)
    journal.write_text("".join(json.dumps(e) + "\n" for e in entries))
    before = _records(out)
    ran = []
    run_sweep(7, 150, samples=50, seed=1, out_path=out, resume=True,
              progress=lambda key, rec: ran.append(key))
    assert len(ran) == first.pairs and _records(out) == before


def test_run_sweep_resume_drops_torn_last_lines(tmp_path):
    # an interrupted write leaves the last line of the output or of the
    # journal cut short; resume drops such a line and runs its pair again
    def digests(path):
        return [record_from_json(json.loads(line)).digest()
                for line in path.read_text().splitlines()]

    clean = tmp_path / "clean.jsonl"
    run_sweep(7, 150, samples=50, seed=4, jobs=1, out_path=clean)
    lines = clean.read_text().splitlines()
    journal = (tmp_path / "clean.jsonl.journal").read_text().splitlines()
    for torn_out, torn_journal in ((True, False), (False, True), (True, True)):
        out = tmp_path / f"torn_{torn_out}_{torn_journal}.jsonl"
        kept_out = lines[:5] + ([lines[5][:20]] if torn_out else [lines[5]])
        kept_journal = journal[:5] + ([journal[5][:20]] if torn_journal else [journal[5]])
        out.write_text("\n".join(kept_out))
        (tmp_path / (out.name + ".journal")).write_text("\n".join(kept_journal))
        for _ in range(2):  # a second resume reads what the first one appended
            summary = run_sweep(7, 150, samples=50, seed=4, jobs=1, out_path=out,
                                resume=True)
            assert summary.all_satisfied and summary.pairs == len(lines)
            assert digests(out) == digests(clean)
            assert len((tmp_path / (out.name + ".journal")).read_text().splitlines()) \
                == len(lines)



def _partial_line(line: str, bad: str) -> str:
    """A line that is valid JSON but not a full record or journal entry:
    an array, a q in a list, or the object without its key ``bad``."""
    if bad == "array":
        return "[1, 2]"
    obj = json.loads(line)
    if bad == "listed q":
        return json.dumps(dict(obj, q=[obj["q"]]))
    return json.dumps({k: v for k, v in obj.items() if k != bad})


@pytest.mark.parametrize("bad, in_journal", [
    ("tries", False), ("array", False), ("listed q", False),
    ("digest", True), ("array", True), ("listed q", True)])
def test_run_sweep_resume_reruns_valid_json_partial_record(tmp_path, bad, in_journal):
    # a record or journal entry that is valid JSON but not well formed
    # counts as torn: resume runs its pair again instead of stopping
    clean = tmp_path / "clean.jsonl"
    run_sweep(7, 100, samples=50, seed=2, jobs=1, out_path=clean)
    lines = clean.read_text().splitlines()
    out_lines, journal = lines[:], (tmp_path / "clean.jsonl.journal").read_text().splitlines()
    partial = journal if in_journal else out_lines
    partial[3] = _partial_line(partial[3], bad)
    out = tmp_path / "partial.jsonl"
    out.write_text("\n".join(out_lines) + "\n")
    (tmp_path / "partial.jsonl.journal").write_text("\n".join(journal) + "\n")
    resumed = run_sweep(7, 100, samples=50, seed=2, jobs=1, out_path=out, resume=True)
    assert (resumed.pairs, resumed.satisfied, resumed.counterexamples) \
        == (len(lines), len(lines), [])
    assert [record_from_json(json.loads(line)).digest()
            for line in out.read_text().splitlines()] \
        == [record_from_json(json.loads(line)).digest() for line in lines]


def test_run_sweep_emits_expected_pairs(tmp_path):
    out = tmp_path / "pairs.jsonl"
    run_sweep(7, 100, samples=50, seed=0, jobs=1, out_path=out)
    keys = [(json.loads(line)["q"], json.loads(line)["p"])
            for line in out.read_text().splitlines()]
    assert keys == [(13, 7), (25, 13), (27, 7), (37, 19), (41, 7), (43, 11),
                    (61, 31), (67, 17), (73, 37), (81, 41), (83, 7), (97, 7)]


# -- CLI ----------------------------------------------------------------------


def test_cli_check(capsys):
    rc = main(["check", "--q", "13", "--p", "7", "--exhaustive"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["fraction"] == "1078/1078"


def test_cli_check_inadmissible(capsys):
    rc = main(["check", "--q", "16", "--p", "17"])
    assert rc == 2
    assert "inadmissible" in capsys.readouterr().err


def test_cli_classify(capsys):
    rc = main(["classify", "--q", "13", "--p", "7", "--brute-force"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["predicate"] is True and data["witnessed"] is True


def test_cli_spectral(capsys):
    # find a witness h first
    rec = check_single(13, 7, samples=20, seed=1)
    h = ",".join(str(x) for x in rec.h)
    rc = main(["spectral", "--q", "13", "--p", "7", "--k", "2", "--m", "21",
               "--h", h, "--numeric"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["oracles_agree"] is True
    assert data["b_plus"] == 1 and data["b_minus"] == 3


def test_cli_spectral_dihedralizer_error(capsys):
    from psl2units.finite_fields import PrimePower, build_setup
    from psl2units.projective import make_generators
    setup = build_setup(PrimePower.make(13, 1))
    gens = make_generators(setup, 7)
    h = ",".join(str(x) for x in gens.g)
    rc = main(["spectral", "--q", "13", "--p", "7", "--k", "2", "--m", "21",
               "--h", h])
    assert rc == 2
    assert "normalizes" in capsys.readouterr().err


def test_cli_spectral_bad_matrix(capsys):
    rc = main(["spectral", "--q", "13", "--p", "7", "--k", "2", "--m", "21",
               "--h", "1,0,0,2"])
    assert rc == 2


@pytest.mark.parametrize("argv,message", [
    (["spectral", "--q", "10", "--p", "7", "--k", "2", "--m", "21", "--h", "1,0,0,1"],
     "10 is not a prime power"),
    (["spectral", "--q", "13", "--p", "5", "--k", "2", "--m", "20", "--h", "1,0,0,1"],
     "p=5 does not divide"),
    (["spectral", "--q", "13", "--p", "7", "--k", "1", "--m", "21", "--h", "1,0,0,1"],
     "k=1 is 0 or +-1 mod 7"),
    (["spectral", "--q", "27", "--p", "7", "--k", "2", "--m", "0", "--h", "1,2,1,0"],
     "m=0 must be a positive multiple"),
    (["spectral", "--q", "27", "--p", "7", "--k", "2", "--m", "-21", "--h", "1,1,0,1"],
     "m=-21 must be a positive multiple"),
    (["classify", "--q", "12", "--p", "7"], "12 is not a prime power"),
    (["check", "--q", "3", "--p", "7"], "inadmissible: q < 4"),
    (["check", "--q", "27", "--p", "7", "--samples", "0"], "samples=0 must be at least 1"),
    (["check", "--q", "27", "--p", "7", "--samples", "-3"], "samples=-3 must be at least 1"),
    (["sweep", "--q-min", "7", "--q-max", "30", "--samples", "0"],
     "samples=0 must be at least 1"),
    (["sweep", "--q-min", "7", "--q-max", "30", "--jobs", "0"], "jobs=0 must be at least 1"),
    (["sweep", "--q-min", "7", "--q-max", "30", "--jobs", "-2"], "jobs=-2 must be at least 1"),
    (["sweep", "--q-min", "2000", "--q-max", "7"], "q_min=2000 is above q_max=7"),
], ids=["spectral-q-not-prime-power", "spectral-p-not-dividing", "spectral-bad-k",
        "spectral-m-zero", "spectral-m-negative", "classify-q-not-prime-power",
        "check-q-below-four", "check-samples-zero", "check-samples-negative", "sweep-samples-zero",
        "sweep-jobs-zero", "sweep-jobs-negative", "sweep-range-reversed"])
def test_cli_bad_input_is_a_typed_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)  # where a sweep would write its default --out
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())  # refused before any output or journal


@pytest.mark.parametrize("out,message", [
    ("missing/s.jsonl", "No such file or directory"),
    ("a-directory", "Is a directory"),
], ids=["missing-directory", "out-is-a-directory"])
def test_cli_sweep_unwritable_out_is_a_typed_error(tmp_path, monkeypatch, capsys, out, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-directory").mkdir()
    assert main(["sweep", "--q-min", "7", "--q-max", "30", "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and out in err


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "cli.jsonl"
    rc = main(["sweep", "--q-min", "7", "--q-max", "60", "--samples", "50",
               "--seed", "2", "--out", str(out), "--quiet"])
    assert rc == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "pairs satisfied" in printed



def _cli(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(psl2units.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "psl2units.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)


def test_cli_sweep_resume_reruns_partial_record(tmp_path):
    # a record line without its mode is run again, with exit code 0
    out = tmp_path / "cli.jsonl"
    argv = ("sweep", "--q-min", "7", "--q-max", "60", "--samples", "50", "--seed", "2",
            "--out", str(out), "--quiet")
    assert _cli(*argv).returncode == 0
    lines = out.read_text().splitlines()
    out.write_text("\n".join([_partial_line(lines[0], "mode")] + lines[1:]) + "\n")
    proc = _cli(*argv, "--resume")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    digests = [record_from_json(json.loads(line)).digest()
               for line in (lines[0], out.read_text().splitlines()[0])]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("q, h", [("27", "27,0,0,1"), ("13", "-12,1,0,1")])
def test_cli_spectral_rejects_entries_outside_the_field(q, h):
    proc = _cli("spectral", "--q", q, "--p", "7", "--k", "2", "--m", "21", f"--h={h}")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "not all encodings" in proc.stderr

def test_cli_console_script_installed():
    proc = _cli("check", "--q", "13", "--p", "7", "--exhaustive")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["satisfied"] is True


def test_run_sweep_resume_reruns_altered_line(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(7, 200, samples=200, seed=0, jobs=1, out_path=out)
    lines = out.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    i = next(i for i, r in enumerate(records) if (r["q"], r["p"]) == (13, 7))
    original = record_from_json(records[i]).digest()
    altered = dict(records[i], h=[0, 0, 0, 0], satisfied=False)
    lines[i] = json.dumps(altered, separators=(", ", ": "))
    out.write_text("\n".join(lines) + "\n")

    resumed = run_sweep(7, 200, samples=200, seed=0, jobs=1, out_path=out, resume=True)
    assert (resumed.pairs, resumed.satisfied, resumed.counterexamples) == (31, 31, [])
    after = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["q"], r["p"]) for r in after] == [(r["q"], r["p"]) for r in records]
    redone = next(r for r in after if (r["q"], r["p"]) == (13, 7))
    assert redone["satisfied"] and record_from_json(redone).digest() == original


# sha256 over the record digests of run_sweep(7, 999, samples=200, seed=1),
# one per line in output order, as computed before the alpha scan started at
# encoding q, perm_array lost its per-point apply and generator orders were
# checked by prime divisors
SWEEP_7_999_SHA256 = "1ff838b921339e0d4f660a7995c3d61be323d479cf04cae6a06cc371f5793128"


def test_run_sweep_records_pinned(tmp_path):
    out = tmp_path / "sweep.jsonl"
    summary = run_sweep(7, 999, samples=200, seed=1, jobs=1, out_path=out)
    assert (summary.pairs, summary.satisfied) == (164, 164)
    digests = [record_from_json(json.loads(line)).digest()
               for line in out.read_text().splitlines()]
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == SWEEP_7_999_SHA256


# the same digest over run_sweep(7, 9999, samples=200, seed=1): every
# q < 10000, the range the paper verified by computer, as BENCH_vector.json
# records it
SWEEP_7_9999_SHA256 = "6bbfaafbf9c40687ca3fda348be25cb05d2cce32d3be5e950f76fa4cc014c34c"


def test_run_sweep_full_range_pinned(tmp_path):
    out = tmp_path / "sweep.jsonl"
    summary = run_sweep(7, 9999, samples=200, seed=1, jobs=2, out_path=out)
    assert (summary.pairs, summary.satisfied) == (1598, 1598)
    digests = [record_from_json(json.loads(line)).digest()
               for line in out.read_text().splitlines()]
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == SWEEP_7_9999_SHA256


# the same digest over run_sweep(99701, 99999, samples=200, seed=1): the 48
# pairs of the last 28 q below 10^5, all prime, where the orbit tables and
# the prime-field inverse tables are largest; computed with g's orbits
# walked point by point and the inverses found by repeated squaring
SWEEP_99701_99999_SHA256 = "01bd2beb6d9668b600aacb6a8f8c2095f36a130f0d637828c672189c2586eb46"


def test_run_sweep_near_ten_to_the_fifth_pinned(tmp_path):
    out = tmp_path / "sweep.jsonl"
    summary = run_sweep(99701, 99999, samples=200, seed=1, jobs=1, out_path=out)
    assert (summary.pairs, summary.satisfied) == (48, 48)
    digests = [record_from_json(json.loads(line)).digest()
               for line in out.read_text().splitlines()]
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == SWEEP_99701_99999_SHA256


# sha256 of json.dumps([to_json_dict() without elapsed_ms], sort_keys=True)
# over check_single(q, p, exhaustive=True) for the 164 admissible pairs of
# 7..999 in (q, p) order, as computed when the survey evaluated one row per
# <g>-double coset and found first_h by the condition on the enumeration
EXHAUSTIVE_7_999_SHA256 = "fa247442909c479042988c7f8eb1a108f878f9c2e21b3129f41297206bd24f03"


def test_exhaustive_records_pinned():
    records = []
    for pp in odd_prime_powers(7, 999):
        for p in admissible_primes(pp.q):
            rec = check_single(pp.q, p, exhaustive=True).to_json_dict()
            del rec["elapsed_ms"]
            records.append(rec)
    assert len(records) == 164
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == EXHAUSTIVE_7_999_SHA256
