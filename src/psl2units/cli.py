"""Command-line interface.

Subcommands: ``sweep`` reproduces the full parameter sweep, ``check``
runs one (q, p) pair, ``classify`` reports the critical-element verdict,
``spectral`` certifies the four-intersection hypotheses for a given h.
Exit code 0 means no possible counterexample was seen and 1 that one
was; bad input, an unwritable --out and running out of memory exit with
code 2 and an ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .classify import dpc_verdict
from .finite_fields import PrimePower, build_setup
from .orbits import build_orbits
from .projective import make_generators
from .spectral import exact_certificate, numeric_oracle
from .sweep import check_single, run_sweep


def _cmd_sweep(args) -> int:
    def progress(key, rec):
        status = "ok" if rec.satisfied else "POSSIBLE_COUNTEREXAMPLE"
        print(f"q={key[0]} p={key[1]}: {status} "
              f"(tries={rec.tries}, {rec.elapsed_ms} ms)", flush=True)

    summary = run_sweep(
        q_min=args.q_min, q_max=args.q_max, samples=args.samples,
        seed=args.seed, jobs=args.jobs, out_path=args.out,
        resume=args.resume, progress=progress if not args.quiet else None,
    )
    print(f"{summary.satisfied}/{summary.pairs} pairs satisfied "
          f"-> {summary.out_path}")
    if not summary.all_satisfied:
        print("POSSIBLE_COUNTEREXAMPLE pairs:", summary.counterexamples)
        return 1
    return 0


def _cmd_check(args) -> int:
    rec = check_single(args.q, args.p, exhaustive=args.exhaustive,
                       samples=args.samples, seed=args.seed)
    print(rec.to_json_line())
    return 0 if rec.satisfied else 1


def _cmd_classify(args) -> int:
    verdict = dpc_verdict(args.q, args.p, brute=args.brute_force)
    print(json.dumps({
        "q": verdict.q, "p": verdict.p, "predicate": verdict.predicate,
        "reason": verdict.reason, "witnessed": verdict.witnessed,
    }))
    return 0


def _cmd_spectral(args) -> int:
    try:
        encodings = [int(x) for x in args.h.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad --h: {exc}") from None
    if len(encodings) != 4:
        raise ValueError("bad --h: need four comma-separated encodings")
    setup = build_setup(PrimePower.from_q(args.q))
    gens = make_generators(setup, args.p)
    h = gens.group.make(*encodings)
    tab = build_orbits(gens)
    cert = exact_certificate(gens, tab, h, args.k, args.m)
    out = cert.as_dict()
    if args.numeric:
        oracle = numeric_oracle(gens, tab, h, args.k, args.m)
        out["numeric"] = oracle.as_dict()
        out["oracles_agree"] = cert.ok == oracle.ok
    print(json.dumps(out))
    return 0 if cert.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psl2units",
        description="Free-companion verification for Bass units of PSL(2,q)")
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="sweep all admissible (q, p) in a range")
    sw.add_argument("--q-min", type=int, required=True)
    sw.add_argument("--q-max", type=int, required=True)
    sw.add_argument("--samples", type=int, default=200,
                    help="draws of h a pair gets before it is a possible counterexample")
    sw.add_argument("--seed", type=int, default=0, help="seed of every pair's draws")
    sw.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per CPU")
    sw.add_argument("--out", default="sweep.jsonl",
                    help="JSON-lines output; each record is first journaled in OUT.journal")
    sw.add_argument("--resume", action="store_true",
                    help="rebuild --out from OUT.journal, for the same seed and samples, "
                         "and run only the pairs it lacks")
    sw.add_argument("--quiet", action="store_true")
    sw.set_defaults(func=_cmd_sweep)

    ck = sub.add_parser("check", help="check a single (q, p) pair")
    ck.add_argument("--q", type=int, required=True)
    ck.add_argument("--p", type=int, required=True)
    mode = ck.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int, default=200)
    ck.add_argument("--seed", type=int, default=None)
    ck.set_defaults(func=_cmd_check)

    cl = sub.add_parser("classify", help="dihedral p-critical verdict for (q, p)")
    cl.add_argument("--q", type=int, required=True)
    cl.add_argument("--p", type=int, required=True)
    cl.add_argument("--brute-force", action="store_true")
    cl.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("spectral", help="four-intersection certificate for one h")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--h", required=True, metavar="A,B,C,D",
                    help="four integer encodings of a determinant-1 matrix")
    sp.add_argument("--numeric", action="store_true",
                    help="also run the dense numeric oracle and compare")
    sp.set_defaults(func=_cmd_spectral)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input, or an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a q too large for this machine, not a counterexample
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
