"""Command-line front end.

Exit codes: 0 on success or an accepted verification, 1 when a
verification rejects, also on a responder file that does not parse, 2 on
usage, parse, or domain errors.  Quantiles are exact rationals (`--q 1/2`
or `--q 0.5`), read as the library reads them, never as floats.
"""

import argparse
import functools
import sys
from fractions import Fraction

from .bench import format_bench_table, run_bench
from .digest import coarsen, merge, quantile_fraction, quantile_query, validate
from .kvcqa import KvcAuthInfo, aqq, proof_from_text, proof_to_text, publish_kvc_auth, qqv_accelerated, qqv_fast
from .scenario import parse_scenario, run_scenario
from .serialize import dump_digest, load_digest, load_frequencies, read_text, write_text
from .verdict import REASON_MALFORMED, VerificationStats
from .wda import WdaAuthInfo, wda_authinfo, wda_verify

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2


def _quantile(text: str) -> Fraction:
    """`quantile_fraction` as an argparse type: a refused value exits 2 with the library's reason."""
    try:
        return quantile_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a quantile like 1/2 or 0.5: {exc}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


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
    p.add_argument("--q", type=_quantile, required=True)

    p = sub.add_parser("auth", help="emit WDA and KVC authentication info (subtree 2 precommitted)")
    p.add_argument("digest_file")
    p.add_argument("--wda-out", required=True)
    p.add_argument("--kvc-out", required=True)

    p = sub.add_parser("prove", help="produce an authenticated quantile query proof")
    p.add_argument("digest_file")
    p.add_argument("--q", type=_quantile, required=True)
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
    p.add_argument("--qs", default="0,1/2,1", type=lambda text: [_quantile(part) for part in text.split(",") if part])
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
    if args.accelerated and args.proof is None:
        raise ValueError("--accelerated applies only to --proof (KVC) verification")
    wda = args.proof is None
    # the trusted file is read first, so that its parse errors stay usage errors
    auth = (WdaAuthInfo if wda else KvcAuthInfo).parse(read_text(args.auth))
    detail = ""
    try:  # the responder's file: bytes that do not parse are a malformed response, not a usage error
        received = load_digest(args.digest) if wda else proof_from_text(read_text(args.proof))
    except ValueError as exc:
        verdict, detail = VerificationStats(False, REASON_MALFORMED, 0), f" detail={exc}"
    else:
        if wda:
            verdict = wda_verify(received, auth)
        elif args.accelerated:
            verdict = qqv_accelerated(received, auth.commitment, auth.subtrees, auth.n, auth.sigma, auth.leaf_width)
        else:
            verdict = qqv_fast(received, auth.commitment, auth.n, auth.sigma, auth.leaf_width)
    ops = "" if wda else f" insert_ops={verdict.insert_ops}"
    print(f"accepted={int(verdict.accepted)} reason={verdict.reason}{ops}{detail}")
    return EXIT_OK if verdict.accepted else EXIT_REJECT


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
