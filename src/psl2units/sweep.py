"""Sweep driver: find a companion witness for every admissible (q, p).

For every odd prime power q in range and every prime p > 5 dividing
q + 1 a task searches G - D for an element satisfying the companion
condition, either by seeded sampling or by deterministic exhaustion.
Results are streamed as JSON lines in canonical (q, p) order; an
append-only journal of digests makes interrupted runs resumable with
exactly-once semantics.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# the interpreter's builtin sha256 first, as ``random`` does for sha512:
# hashlib loads OpenSSL, about 3.6 MB of RSS
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .classify import dpc_predicate
from .criteria import search_companion
from .engine import ConditionEngine
from .errors import InadmissiblePair
from .finite_fields import PrimePower, build_setup, factorize, is_prime
from .orbits import build_orbits
from .projective import make_generators

SAMPLED = "SAMPLED"
EXHAUSTIVE = "EXHAUSTIVE"


@dataclass
class SweepRecord:
    q: int
    l: int
    r: int
    p: int
    d: int
    t_encoding: int
    h: Optional[list[int]]
    tries: int
    satisfied: bool
    fraction: Optional[tuple[int, int]]  # unreduced (satisfied, total)
    elapsed_ms: int
    mode: str

    def to_json_dict(self) -> dict:
        out = {"q": self.q, "l": self.l, "r": self.r, "p": self.p, "d": self.d,
               "t_encoding": self.t_encoding}
        if self.h is not None:
            out["h"] = self.h
        out["tries"] = self.tries
        out["satisfied"] = self.satisfied
        if self.fraction is not None:
            out["fraction"] = f"{self.fraction[0]}/{self.fraction[1]}"
        out["elapsed_ms"] = self.elapsed_ms
        out["mode"] = self.mode
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(", ", ": "))

    def digest(self) -> str:
        return _payload_digest(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "SweepRecord":
        frac = None
        if "fraction" in d:
            num, den = d["fraction"].split("/")
            frac = (int(num), int(den))
        return cls(q=d["q"], l=d["l"], r=d["r"], p=d["p"], d=d["d"],
                   t_encoding=d["t_encoding"], h=d.get("h"), tries=d["tries"],
                   satisfied=d["satisfied"], fraction=frac,
                   elapsed_ms=d["elapsed_ms"], mode=d["mode"])


def _payload_digest(record: dict) -> str:
    """sha256 of a record's JSON object without its ``elapsed_ms``."""
    payload = {k: v for k, v in record.items() if k != "elapsed_ms"}
    return sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def admissible_primes(q: int) -> list[int]:
    """Prime divisors p > 5 of q + 1 for which PSL(2,q) has a dihedral
    p-critical element, in increasing order."""
    return sorted(p for p in factorize(q + 1) if p > 5 and dpc_predicate(q, p).predicate)


def odd_prime_powers(lo: int, hi: int):
    for q in range(lo | 1, hi + 1, 2):
        try:
            pp = PrimePower.from_q(q)
        except ValueError:
            continue
        yield pp


def task_seed(seed: int, q: int, p: int) -> int:
    """Stable per-task seed (independent of Python hash randomization)."""
    digest = sha256(f"{seed}:{q}:{p}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def evaluate_pair(q: int, p: int, samples: int, seed: int, exhaustive: bool) -> SweepRecord:
    """Run the witness search for one admissible pair and build its record."""
    started = time.monotonic()
    pp = PrimePower.from_q(q)
    setup = build_setup(pp)
    gens = make_generators(setup, p)
    tab = build_orbits(gens)

    h = None
    tries = 0
    fraction = None
    if exhaustive:
        survey = ConditionEngine(gens, tab).survey()
        h = survey.first_h
        tries = survey.total
        fraction = (survey.satisfied, survey.total)
    else:
        rng = random.Random(task_seed(seed, q, p))
        result = search_companion(gens, tab, rng, max_tries=samples)
        h, tries = result.h, result.tries
    elapsed_ms = int((time.monotonic() - started) * 1000)
    return SweepRecord(
        q=q, l=pp.l, r=pp.r, p=p, d=gens.d, t_encoding=setup.t,
        h=list(h) if h is not None else None, tries=tries,
        satisfied=h is not None, fraction=fraction,
        elapsed_ms=elapsed_ms, mode=EXHAUSTIVE if exhaustive else SAMPLED,
    )


def check_single(q: int, p: int, exhaustive: bool = False, samples: int = 200,
                 seed: int | None = None) -> SweepRecord:
    """Validated single-pair check; raises InadmissiblePair with the reason."""
    if q % 2 == 0:
        raise InadmissiblePair(q, p, "q even")
    try:
        PrimePower.from_q(q)
    except ValueError:
        raise InadmissiblePair(q, p, "q not a prime power") from None
    if not is_prime(p):
        raise InadmissiblePair(q, p, "p not prime")
    if p <= 5:
        raise InadmissiblePair(q, p, "p <= 5")
    if (q + 1) % p != 0:
        raise InadmissiblePair(q, p, "p does not divide q+1")
    if not dpc_predicate(q, p).predicate:
        raise InadmissiblePair(q, p, "no dihedral p-critical element: "
                                     "the order of l mod p is not 2r")
    return evaluate_pair(q, p, samples=samples, seed=seed if seed is not None else 0,
                         exhaustive=exhaustive)


# ---------------------------------------------------------------------------
# Journal and resumable runs


def _journal_path(out_path: Path) -> Path:
    return out_path.with_name(out_path.name + ".journal")


def _journal_line(key: tuple[int, int], digest: str) -> str:
    return json.dumps({"q": key[0], "p": key[1], "digest": digest}) + "\n"


def _json_lines(path: Path):
    """(line, decoded) for each line of path that decodes to a JSON object
    with integer q and p; any other line, such as one torn by an
    interrupted write, is dropped so that its pair runs again."""
    if not path.exists():
        return
    for line in path.read_text().splitlines():
        try:
            decoded = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(decoded, dict) and all(type(decoded.get(k)) is int for k in ("q", "p")):
            yield line, decoded


def _load_journal(out_path: Path) -> dict[tuple[int, int], str]:
    return {(entry["q"], entry["p"]): entry["digest"]
            for _, entry in _json_lines(_journal_path(out_path))
            if "digest" in entry}


def _compact_output(out_path: Path,
                    done: dict[tuple[int, int], str]) -> dict[tuple[int, int], str]:
    """Keep exactly one record per journaled key whose digest matches its
    journal entry, dropping orphans and altered lines."""
    kept: dict[tuple[int, int], str] = {}
    for line, rec in _json_lines(out_path):
        key = (rec["q"], rec["p"])
        if key in done and key not in kept and _payload_digest(rec) == done[key]:
            kept[key] = line
    return kept


@dataclass
class SweepSummary:
    pairs: int
    satisfied: int
    counterexamples: list[tuple[int, int]]
    out_path: str

    @property
    def all_satisfied(self) -> bool:
        return not self.counterexamples


def _run_task(args) -> tuple[tuple[int, int], SweepRecord]:
    q, p, samples, seed = args
    rec = evaluate_pair(q, p, samples=samples, seed=seed, exhaustive=False)
    return (q, p), rec


def run_sweep(q_min: int, q_max: int, samples: int = 200, seed: int = 0,
              jobs: int = 1, out_path: str | Path = "sweep.jsonl",
              resume: bool = False, progress=None) -> SweepSummary:
    """Sweep all admissible pairs in [q_min, q_max] and write JSON lines.

    Records are emitted in canonical (q, p) order regardless of worker
    completion order, so identical flags and seed produce byte-identical
    output up to the elapsed_ms field.
    """
    out_path = Path(out_path)
    pairs = [(pp.q, p) for pp in odd_prime_powers(q_min, q_max)
             for p in admissible_primes(pp.q)]
    journal = _journal_path(out_path)
    if resume:
        done = _load_journal(out_path)
        # a journaled pair whose line is missing, altered or torn is run again
        kept = _compact_output(out_path, done)
        # the journal keeps exactly the kept pairs, so that no torn last line
        # swallows the first entry appended after it
        journal.write_text("".join(_journal_line(key, done[key]) for key in kept))
    else:
        kept = {}
        journal.unlink(missing_ok=True)
    pending = [key for key in pairs if key not in kept]
    counterexamples = []
    satisfied = 0

    with open(out_path, "w") as out, open(journal, "a") as jn, ExitStack() as stack:
        def tally(key, ok: bool):
            nonlocal satisfied
            if ok:
                satisfied += 1
            else:
                counterexamples.append(key)

        def emit(key, rec: SweepRecord):
            out.write(rec.to_json_line() + "\n")
            out.flush()
            jn.write(_journal_line(key, rec.digest()))
            jn.flush()
            tally(key, rec.satisfied)
            if not rec.satisfied:
                import logging  # here: a sweep that finds none never loads it
                logging.getLogger(__name__).warning("POSSIBLE_COUNTEREXAMPLE at (q=%d, p=%d)",
                                                    *key)
            if progress:
                progress(key, rec)

        task_args = [(q, p, samples, seed) for q, p in pending]
        if jobs <= 1:
            results = map(_run_task, task_args)
        else:
            # imported here: a serial sweep should not pay for the pool module
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            results = pool.map(_run_task, task_args, chunksize=1)
        # kept lines and new records interleave in canonical order
        for key in sorted(kept.keys() | set(pairs)):
            if key in kept:
                out.write(kept[key] + "\n")
                out.flush()
                tally(key, json.loads(kept[key])["satisfied"])
            else:
                emit(*next(results))

    return SweepSummary(pairs=len(pairs), satisfied=satisfied,
                        counterexamples=counterexamples, out_path=str(out_path))
