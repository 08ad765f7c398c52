"""Command-line front end.

Exit codes: 0 on success or an accepted verification, 1 when a
verification rejects, 2 on usage, parse, or domain errors.  Quantiles are
passed as exact fractions (`--q 1/2`) so the command line never loses the
exact-comparison guarantee.
"""

import argparse
import functools
import sys
from fractions import Fraction

from .bench import format_bench_table, run_bench
from .digest import coarsen, merge, quantile_query, validate
from .kvcqa import (
    aqq,
    dump_proof,
    kvc_auth_from_text,
    kvc_auth_to_text,
    load_proof,
    publish_kvc_auth,
    qqv_accelerated,
    qqv_fast,
)
from .scenario import parse_scenario, run_scenario
from .serialize import dump_digest, load_digest, load_frequencies
from .wda import dump_authinfo, load_authinfo, wda_authinfo, wda_verify

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2


def _fraction(text: str) -> Fraction:
    num, slash, den = text.partition("/")
    try:
        if slash:
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction like 1/2, got {text!r}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",") if part]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qdigest` parser, built once and shared: `parse_args` makes a
    fresh namespace on each call, and no command mutates a default."""
    parser = argparse.ArgumentParser(
        prog="qdigest",
        description="Build, merge, query, and authenticate q-digest quantile summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a digest from a frequency file")
    p.add_argument("freq_file")
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--coarse", type=int, default=0, help="tree levels to cut (coarse-grained digest)")
    p.add_argument("--output", required=True)

    p = sub.add_parser("merge", help="merge two digest files")
    p.add_argument("digest_a")
    p.add_argument("digest_b")
    p.add_argument("--output", required=True)

    p = sub.add_parser("query", help="run a plain quantile query on a digest file")
    p.add_argument("digest_file")
    p.add_argument("--q", type=_fraction, required=True)

    p = sub.add_parser("auth", help="emit WDA and KVC authentication info (subtree 2 precommitted)")
    p.add_argument("digest_file")
    p.add_argument("--wda-out", required=True)
    p.add_argument("--kvc-out", required=True)

    p = sub.add_parser("prove", help="produce an authenticated quantile query proof")
    p.add_argument("digest_file")
    p.add_argument("--q", type=_fraction, required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("verify", help="verify a proof (KVC) or a digest (WDA) against auth info")
    p.add_argument("--auth", required=True)
    p.add_argument("--proof", help="proof file for commitment verification")
    p.add_argument("--digest", help="digest file for whole-digest verification")
    p.add_argument("--accelerated", action="store_true", help="use precommitted subtrees")

    p = sub.add_parser("simulate", help="run a scenario file against a frequency file")
    p.add_argument("scenario_file")
    p.add_argument("freq_file")
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("bench", help="sweep (sigma, k, q) and print a cost table")
    p.add_argument("--sigmas", type=_int_list, default=[64, 256, 1024])
    p.add_argument("--ks", type=_int_list, default=[4, 16])
    p.add_argument("--qs", type=_fraction_list, default=_fraction_list("0/1,1/2,1/1"))
    p.add_argument("--seed", type=int, default=0)
    return parser


def cmd_build(args) -> int:
    freqs = load_frequencies(args.freq_file)
    digest = coarsen(freqs, args.k, args.sigma, args.coarse)
    dump_digest(digest, args.output)
    report = validate(digest)
    print(f"n={digest.n} size={digest.size} bound={4 * digest.k + 1} "
          f"size_bound_ok={int(report.size_bound_ok)} valid={int(report.ok)}")
    return EXIT_OK


def cmd_merge(args) -> int:
    merged = merge(load_digest(args.digest_a), load_digest(args.digest_b))
    dump_digest(merged, args.output)
    report = validate(merged)
    print(f"n={merged.n} size={merged.size} valid={int(report.ok)} "
          f"prop1_violations={len(report.prop1_violations)} "
          f"prop2_violations={len(report.prop2_violations)}")
    return EXIT_OK


def cmd_query(args) -> int:
    digest = load_digest(args.digest_file)
    print(quantile_query(digest, args.q))
    return EXIT_OK


def cmd_auth(args) -> int:
    digest = load_digest(args.digest_file)
    wda_auth = wda_authinfo(digest)
    commitment, subtrees = publish_kvc_auth(digest)
    dump_authinfo(wda_auth, args.wda_out)
    with open(args.kvc_out, "w", encoding="ascii", newline="") as fh:
        fh.write(kvc_auth_to_text(digest, commitment, subtrees))
    print(f"wda={args.wda_out} kvc={args.kvc_out} subtrees={','.join(map(str, subtrees)) or '-'}")
    return EXIT_OK


def cmd_prove(args) -> int:
    digest = load_digest(args.digest_file)
    proof = aqq(digest, args.q)
    dump_proof(proof, args.output)
    print(f"answer={proof.answer} counted={len(proof.counted)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if (args.proof is None) == (args.digest is None):
        raise ValueError("pass exactly one of --proof (KVC) or --digest (WDA)")
    if args.proof is not None:
        with open(args.auth, "r", encoding="ascii", newline="") as fh:
            fields, commitment, subtrees = kvc_auth_from_text(fh.read())
        proof = load_proof(args.proof)
        if args.accelerated:
            stats = qqv_accelerated(
                proof, commitment, subtrees, fields["n"], fields["sigma"], fields["leafwidth"]
            )
        else:
            stats = qqv_fast(proof, commitment, fields["n"], fields["sigma"], fields["leafwidth"])
        print(f"accepted={int(stats.accepted)} reason={stats.reason} insert_ops={stats.insert_ops}")
        return EXIT_OK if stats.accepted else EXIT_REJECT
    digest = load_digest(args.digest)
    verdict = wda_verify(digest, load_authinfo(args.auth))
    print(f"accepted={int(verdict.accepted)} reason={verdict.reason}")
    return EXIT_OK if verdict.accepted else EXIT_REJECT


def cmd_simulate(args) -> int:
    with open(args.scenario_file, "r", encoding="ascii") as fh:
        scenario = parse_scenario(fh.read())
    freqs = load_frequencies(args.freq_file)
    for line in run_scenario(scenario, freqs, args.k, args.sigma):
        print(line)
    return EXIT_OK


def cmd_bench(args) -> int:
    rows = run_bench(args.sigmas, args.ks, args.qs, seed=args.seed)
    print(format_bench_table(rows))
    return EXIT_OK


_COMMANDS = {
    "build": cmd_build,
    "merge": cmd_merge,
    "query": cmd_query,
    "auth": cmd_auth,
    "prove": cmd_prove,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
