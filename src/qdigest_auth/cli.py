"""Command-line front end.

Exit codes: 0 on success or an accepted verification, 1 when a
verification rejects, also on a responder file that does not parse, 2 on
usage, parse, or domain errors.  Quantiles are passed as exact fractions
(`--q 1/2`) so the command line never loses the exact-comparison guarantee.
"""

import argparse
import functools
import sys
from fractions import Fraction

from .bench import format_bench_table, run_bench
from .digest import coarsen, merge, quantile_query, validate
from .kvcqa import (
    REASON_MALFORMED,
    KvcAuthInfo,
    aqq,
    proof_from_text,
    proof_to_text,
    publish_kvc_auth,
    qqv_accelerated,
    qqv_fast,
)
from .scenario import parse_scenario, run_scenario
from .serialize import dump_digest, load_digest, load_frequencies, read_text, write_text
from .wda import WdaAuthInfo, wda_authinfo, wda_verify

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
    kvc_auth = publish_kvc_auth(digest)
    write_text(args.wda_out, wda_auth.encode())
    write_text(args.kvc_out, kvc_auth.encode())
    print(f"wda={args.wda_out} kvc={args.kvc_out} subtrees={','.join(map(str, kvc_auth.subtrees)) or '-'}")
    return EXIT_OK


def cmd_prove(args) -> int:
    digest = load_digest(args.digest_file)
    proof = aqq(digest, args.q)
    write_text(args.output, proof_to_text(proof))
    print(f"answer={proof.answer} counted={len(proof.counted)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if (args.proof is None) == (args.digest is None):
        raise ValueError("pass exactly one of --proof (KVC) or --digest (WDA)")
    wda = args.proof is None
    # the trusted file is read first, so that its parse errors stay usage errors
    auth = (WdaAuthInfo if wda else KvcAuthInfo).parse(read_text(args.auth))
    try:  # the responder's file: bytes that do not parse are a malformed response, not a usage error
        received = load_digest(args.digest) if wda else proof_from_text(read_text(args.proof))
    except ValueError as exc:
        print(f"accepted=0 reason={REASON_MALFORMED}{'' if wda else ' insert_ops=0'} detail={exc}")
        return EXIT_REJECT
    if wda:
        verdict = wda_verify(received, auth)
        print(f"accepted={int(verdict.accepted)} reason={verdict.reason}")
        return EXIT_OK if verdict.accepted else EXIT_REJECT
    if args.accelerated:
        stats = qqv_accelerated(received, auth.commitment, auth.subtrees, auth.n, auth.sigma, auth.leaf_width)
    else:
        stats = qqv_fast(received, auth.commitment, auth.n, auth.sigma, auth.leaf_width)
    print(f"accepted={int(stats.accepted)} reason={stats.reason} insert_ops={stats.insert_ops}")
    return EXIT_OK if stats.accepted else EXIT_REJECT


def cmd_simulate(args) -> int:
    scenario = parse_scenario(read_text(args.scenario_file))
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
