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
from .digest import coarsen, coarsen_columns, merge, quantile_fraction, quantile_query, validate
from .kvcqa import KvcAuthInfo, aqq, proof_from_text, proof_to_text, publish_kvc_auth, qqv_accelerated, qqv_fast
from .scenario import parse_scenario, run_scenario
from .serialize import dump_digest, frequency_columns, load_digest, load_frequencies, parse_frequency_lines, read_text, write_text
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


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for name, options in _COMMANDS[command][2]:
        parser.add_argument(name, **options)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The eight-command `qdigest` parser.  `main` parses a command with that
    command's own parser, built once per process, and builds this one, also
    once, only for help, no arguments, an unknown command, and the message of
    a stray argument.  `parse_args` makes a fresh namespace on each call, and
    no command mutates a default."""
    parser = argparse.ArgumentParser(
        prog="qdigest",
        description="Build, merge, query, and authenticate q-digest quantile summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_line), command)
    return parser


@functools.cache
def _command_parser(command: str) -> argparse.ArgumentParser:
    """One command's parser, as `build_parser` makes it, built once per process on first use."""
    parser = _add_arguments(argparse.ArgumentParser(prog=f"qdigest {command}"), command)
    parser.set_defaults(command=command)
    return parser


def cmd_build(args) -> int:
    """Build from a `dump_frequencies`-shaped file's columns through `coarsen_columns`, else from its lines."""
    text = read_text(args.freq_file)
    columns = frequency_columns(text)
    if columns is not None:
        digest = coarsen_columns(*columns, args.k, args.sigma, args.coarse)
    else:
        digest = coarsen(parse_frequency_lines(text), args.k, args.sigma, args.coarse)
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


_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_QUANTILE = {"type": _quantile, "required": True}
# each command: what runs it, its help line, and its arguments as (name, add_argument keywords)
_COMMANDS = {
    "build": (cmd_build, "build a digest from a frequency file", [
        ("freq_file", {}), ("--sigma", _REQUIRED_INT), ("--k", _REQUIRED_INT),
        ("--coarse", {"type": int, "default": 0, "help": "tree levels to cut (coarse-grained digest)"}),
        ("--output", _REQUIRED)]),
    "merge": (cmd_merge, "merge two digest files", [("digest_a", {}), ("digest_b", {}), ("--output", _REQUIRED)]),
    "query": (cmd_query, "run a plain quantile query on a digest file", [("digest_file", {}), ("--q", _QUANTILE)]),
    "auth": (cmd_auth, "emit WDA and KVC authentication info (subtree 2 precommitted)", [
        ("digest_file", {}), ("--wda-out", _REQUIRED), ("--kvc-out", _REQUIRED)]),
    "prove": (cmd_prove, "produce an authenticated quantile query proof", [
        ("digest_file", {}), ("--q", _QUANTILE), ("--output", _REQUIRED)]),
    "verify": (cmd_verify, "verify a proof (KVC) or a digest (WDA) against auth info", [
        ("--auth", _REQUIRED),
        ("--proof", {"help": "proof file for commitment verification"}),
        ("--digest", {"help": "digest file for whole-digest verification"}),
        ("--accelerated", {"action": "store_true", "help": "use precommitted subtrees"})]),
    "simulate": (cmd_simulate, "run a scenario file against a frequency file", [
        ("scenario_file", {}), ("freq_file", {}), ("--sigma", _REQUIRED_INT), ("--k", _REQUIRED_INT)]),
    "bench": (cmd_bench, "sweep (sigma, k, q) and print a cost table", [
        ("--sigmas", {"type": _int_list, "default": [64, 256, 1024]}),
        ("--ks", {"type": _int_list, "default": [4, 16]}),
        ("--qs", {"default": "0,1/2,1", "type": lambda text: [_quantile(part) for part in text.split(",") if part]}),
        ("--seed", {"type": int, "default": 0})]),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    named = bool(argv) and argv[0] in _COMMANDS
    args, extra = _command_parser(argv[0]).parse_known_args(argv[1:]) if named else (None, [])
    if not named or extra:  # help, no or an unknown command, a stray argument: the eight-command parser's message
        args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
