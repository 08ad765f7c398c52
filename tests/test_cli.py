import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qdigest_auth import cli, commitment
from qdigest_auth.cli import build_parser, main
from qdigest_auth.commitment import _SHORT, sha256_calls
from qdigest_auth.digest import QDigest, build_from_frequencies, merge, quantile_query
from qdigest_auth.kvcqa import proof_from_text
from qdigest_auth.serialize import dump_digest, dump_frequencies, load_digest, read_text
from qdigest_auth.tree import subtree_test

from helpers import frequencies_line_by_line, random_frequencies


def write_freqs(path, freqs):
    dump_frequencies(freqs, path)
    return str(path)


@pytest.fixture
def s1_file(tmp_path, s1):
    return write_freqs(tmp_path / "s1.tsv", s1)


@pytest.fixture
def s2_file(tmp_path, s2):
    return write_freqs(tmp_path / "s2.tsv", s2)


def test_build(tmp_path, s1_file, s1, capsys):
    out = tmp_path / "q1.qd"
    assert main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(out)]) == 0
    assert load_digest(out) == build_from_frequencies(s1, 4, 8)
    printed = capsys.readouterr().out
    assert "n=38" in printed and "size=6" in printed

def test_build_empty_file(tmp_path, capsys):
    freq = tmp_path / "empty.tsv"
    freq.write_text("")
    out = tmp_path / "empty.qd"
    assert main(["build", str(freq), "--sigma", "8", "--k", "4", "--output", str(out)]) == 0
    assert load_digest(out).n == 0


def test_build_rejects_out_of_domain(tmp_path, capsys):
    freq = tmp_path / "bad.tsv"
    freq.write_text("9\t1\n")
    out = tmp_path / "bad.qd"
    code = main(["build", str(freq), "--sigma", "8", "--k", "4", "--output", str(out)])
    assert code == 2
    assert "out of domain" in capsys.readouterr().err


@pytest.mark.parametrize("freqs, sigma", [("1\t%d\n" % 2**128, 8), ("1\t1\n", 2**64)])
def test_build_refuses_an_unencodable_digest_and_writes_no_file(tmp_path, capsys, freqs, sigma):
    freq, out = tmp_path / "big.tsv", tmp_path / "big.qd"
    freq.write_text(freqs)
    assert main(["build", str(freq), "--sigma", str(sigma), "--k", "4", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "limit" in captured.err
    assert not out.exists()


def test_merge_refuses_a_count_past_the_limit_and_writes_no_file(tmp_path, capsys):
    a, m = tmp_path / "a.qd", tmp_path / "m.qd"
    dump_digest(QDigest(8, 4, {1: 2**127}), a)
    assert main(["merge", str(a), str(a), "--output", str(m)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "2**128 limit" in captured.err
    assert not m.exists()


def test_merge_and_query(tmp_path, s1_file, s2_file, s1, s2, capsys):
    a, b, m = tmp_path / "a.qd", tmp_path / "b.qd", tmp_path / "m.qd"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(a)])
    main(["build", s2_file, "--sigma", "8", "--k", "4", "--output", str(b)])
    assert main(["merge", str(a), str(b), "--output", str(m)]) == 0
    expected = merge(build_from_frequencies(s1, 4, 8), build_from_frequencies(s2, 4, 8))
    assert load_digest(m) == expected
    capsys.readouterr()
    assert main(["query", str(m), "--q", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == str(quantile_query(expected, Fraction(1, 2)))


def test_merge_with_empty_digest(tmp_path, s1_file, s1, capsys):
    a, e, m = tmp_path / "a.qd", tmp_path / "e.qd", tmp_path / "m.qd"
    (tmp_path / "none.tsv").write_text("")
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(a)])
    main(["build", str(tmp_path / "none.tsv"), "--sigma", "8", "--k", "4", "--output", str(e)])
    assert main(["merge", str(a), str(e), "--output", str(m)]) == 0
    assert load_digest(m) == build_from_frequencies(s1, 4, 8)


def test_an_output_written_over_a_longer_file_equals_a_fresh_one(tmp_path, capsys):
    rng = random.Random(27)
    large = write_freqs(tmp_path / "large.tsv", {v: rng.randint(1, 50) for v in rng.sample(range(1, 4097), 400)})
    small = write_freqs(tmp_path / "small.tsv", {7: 3, 9: 1})
    heavy = write_freqs(tmp_path / "heavy.tsv", {5: 10**6})
    over, fresh = tmp_path / "over.qd", tmp_path / "fresh.qd"
    for freqs, out in [(large, over), (small, over), (small, fresh)]:
        assert main(["build", freqs, "--sigma", "4096", "--k", "64", "--output", str(out)]) == 0
    assert over.read_bytes() == fresh.read_bytes()
    a, b, merged = tmp_path / "a.qd", tmp_path / "b.qd", tmp_path / "merged.qd"
    for freqs, out in [(large, a), (heavy, b)]:
        assert main(["build", freqs, "--sigma", "4096", "--k", "64", "--output", str(out)]) == 0
    assert main(["merge", str(a), str(b), "--output", str(merged)]) == 0
    assert merged.stat().st_size < a.stat().st_size  # the heavy value compresses the merge below a's length
    assert main(["merge", str(a), str(b), "--output", str(a)]) == 0
    assert a.read_bytes() == merged.read_bytes()


def test_merge_mismatched_sigma(tmp_path, s1_file, capsys):
    a, b = tmp_path / "a.qd", tmp_path / "b.qd"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(a)])
    main(["build", s1_file, "--sigma", "16", "--k", "4", "--output", str(b)])
    assert main(["merge", str(a), str(b), "--output", str(tmp_path / "m.qd")]) == 2


def test_auth_prove_verify_round_trip(tmp_path, s1_file, capsys):
    digest = tmp_path / "q.qd"
    wda_f, kvc_f, proof = tmp_path / "q.wda", tmp_path / "q.kvc", tmp_path / "q.proof"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    assert main(["auth", str(digest), "--wda-out", str(wda_f), "--kvc-out", str(kvc_f)]) == 0
    assert main(["prove", str(digest), "--q", "1/2", "--output", str(proof)]) == 0
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f)]) == 0
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f), "--accelerated"]) == 0
    assert main(["verify", "--digest", str(digest), "--auth", str(wda_f)]) == 0


def test_plain_verify_reports_the_sha256_calls_of_the_zero_fold_verifier(tmp_path, s1, capsys):
    digest, kvc_f, proof = tmp_path / "q.qd", tmp_path / "q.kvc", tmp_path / "q.proof"
    freqs = write_freqs(tmp_path / "f.tsv", {**s1, 4096: 3})  # q = 1 stops at the last node in post-order
    main(["build", freqs, "--sigma", "4096", "--k", "4", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(tmp_path / "q.wda"), "--kvc-out", str(kvc_f)])  # warms the memo
    main(["prove", str(digest), "--q", "1", "--output", str(proof)])
    counted = int(capsys.readouterr().out.split("counted=")[-1])
    before = sha256_calls()
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f)]) == 0
    calls = sha256_calls() - before
    assert capsys.readouterr().out == f"accepted=1 reason=ok insert_ops={calls}\n"
    assert calls <= 2 * counted + 4 * _SHORT  # the literal fold would insert all 8191 nodes


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_each_command_parser_is_built_once():
    assert all(cli._command_parser(command) is cli._command_parser(command) for command in cli._COMMANDS)


# per command: every option, the defaults, help, and one missing, one extra and one badly typed argument
DIFFERENTIAL_ARGV = {
    "build": [
        ["f.tsv", "--sigma", "8", "--k", "4", "--coarse", "1", "--output", "o.qd"],
        ["f.tsv", "--sigma", "8", "--k", "4", "--output=o.qd"],
        ["--output", "o.qd", "--k", "4", "--sig", "8", "f.tsv"],
        ["-h"],
        ["f.tsv", "--sigma", "8", "--k", "4"],
        ["f.tsv", "--sigma", "8", "--k", "4", "--output", "o.qd", "g.tsv"],
        ["f.tsv", "--sigma", "x", "--k", "4", "--output", "o.qd"],
    ],
    "merge": [
        ["a.qd", "b.qd", "--output", "m.qd"],
        ["--help"],
        ["a.qd", "--output", "m.qd"],
        ["a.qd", "b.qd", "c.qd", "--output", "m.qd"],
        ["a.qd", "b.qd", "--output", "m.qd", "--k", "4"],
    ],
    "query": [
        ["d.qd", "--q", "1/2"],
        ["d.qd", "--q", "0.5"],
        ["-h"],
        ["d.qd"],
        ["d.qd", "--q", "1/2", "--q"],
        ["d.qd", "--q", "1/0"],
    ],
    "auth": [
        ["d.qd", "--wda-out", "a.wda", "--kvc-out", "a.kvc"],
        ["-h"],
        ["d.qd", "--wda-out", "a.wda"],
        ["d.qd", "e.qd", "--wda-out", "a.wda", "--kvc-out", "a.kvc"],
        ["d.qd", "--wda", "a.wda", "--kvc-out", "a.kvc"],
    ],
    "prove": [
        ["d.qd", "--q", "1", "--output", "p.proof"],
        ["-h"],
        ["d.qd", "--output", "p.proof"],
        ["d.qd", "--q", "1", "--output", "p.proof", "extra"],
        ["d.qd", "--q", "x", "--output", "p.proof"],
    ],
    "verify": [
        ["--auth", "a.kvc", "--proof", "p.proof", "--accelerated"],
        ["--auth", "a.wda", "--digest", "d.qd"],
        ["--auth", "a.kvc"],
        ["--acc", "--auth", "a.kvc", "--proof", "p.proof"],
        ["-h"],
        [],
        ["--auth", "a.kvc", "p.proof"],
        ["--auth", "a.kvc", "--accelerated=1"],
    ],
    "simulate": [
        ["s.scn", "f.tsv", "--sigma", "8", "--k", "4"],
        ["-h"],
        ["s.scn", "--sigma", "8", "--k", "4"],
        ["s.scn", "f.tsv", "g.tsv", "--sigma", "8", "--k", "4"],
        ["s.scn", "f.tsv", "--sigma", "8", "--k", "four"],
    ],
    "bench": [
        ["--sigmas", "64,128", "--ks", "4", "--qs", "0,0.25,1", "--seed", "3"],
        [],
        ["-h"],
        ["--seed"],
        ["64"],
        ["--sigmas", "4,x"],
    ],
}
TOP_LEVEL_ARGV = [[], ["-h"], ["--help"], ["frobnicate"], ["-x"], ["bild", "f.tsv"], ["-h", "build"]]


def parse_outcome(parse, argv, capsys):
    """What `parse(argv)` returns, or its exit code, with what it printed."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    printed = capsys.readouterr()
    return result, printed.out, printed.err


@pytest.mark.parametrize(
    "argv",
    [[command, *rest] for command, table in DIFFERENTIAL_ARGV.items() for rest in table] + TOP_LEVEL_ARGV,
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_main_parses_as_the_eight_command_parser(argv, capsys, monkeypatch):
    """`main` parses a command's arguments with that command's own parser, and the eight-command parser
    takes the rest: either way it reads the namespace or prints the text and exit code of `build_parser`."""
    monkeypatch.setenv("COLUMNS", "80")
    for command, (_, *table) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, command, (lambda args: args, *table))  # main returns what it parsed
    assert parse_outcome(main, argv, capsys) == parse_outcome(build_parser().parse_args, argv, capsys)


@pytest.mark.parametrize("argv", [[], ["frobnicate"]], ids=["no-arguments", "unknown-command"])
def test_no_command_prints_the_eight_command_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    usage, error = capsys.readouterr().err.splitlines()
    assert usage == "usage: qdigest [-h] {build,merge,query,auth,prove,verify,simulate,bench} ..."
    assert error.startswith("qdigest: error: ") and (not argv or "'frobnicate'" in error)


def test_help_lists_every_command_with_its_help_line(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("usage: qdigest [-h] {build,merge,query,auth,prove,verify,simulate,bench} ...\n")
    assert "Build, merge, query, and authenticate q-digest quantile summaries." in printed
    for command, (_, help_line, _) in cli._COMMANDS.items():
        assert re.search(rf"^    {command} +{re.escape(help_line)}$", printed, re.MULTILINE), command


def test_a_plain_verify_after_an_accelerated_one_runs_the_zero_fold_verifier(tmp_path, s1, capsys):
    digest, kvc_f, proof = tmp_path / "q.qd", tmp_path / "q.kvc", tmp_path / "q.proof"
    freqs = write_freqs(tmp_path / "f.tsv", {**s1, 4096: 3})
    main(["build", freqs, "--sigma", "4096", "--k", "4", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(tmp_path / "q.wda"), "--kvc-out", str(kvc_f)])
    main(["prove", str(digest), "--q", "1", "--output", str(proof)])
    counted = int(capsys.readouterr().out.split("counted=")[-1])
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f), "--accelerated"]) == 0
    assert int(capsys.readouterr().out.split("insert_ops=")[-1]) > 4096  # folds subtree 3 node by node
    before = sha256_calls()
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f)]) == 0
    calls = sha256_calls() - before
    assert capsys.readouterr().out == f"accepted=1 reason=ok insert_ops={calls}\n"
    assert calls <= 2 * counted + 4 * _SHORT


def test_a_usage_error_leaves_the_next_call_working(tmp_path, s1_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    assert main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(tmp_path / "q.qd")]) == 0


def test_bench_options_leave_the_shared_defaults_alone(capsys):
    assert main(["bench", "--sigmas", "64", "--ks", "4", "--qs", "1/2"]) == 0
    args = build_parser().parse_args(["bench"])
    assert (args.sigmas, args.ks, args.qs) == ([64, 256, 1024], [4, 16], [0, Fraction(1, 2), 1])


def test_verify_rejects_tampered_proof(tmp_path, s1_file, capsys):
    digest, kvc_f, proof = tmp_path / "q.qd", tmp_path / "q.kvc", tmp_path / "q.proof"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(tmp_path / "q.wda"), "--kvc-out", str(kvc_f)])
    main(["prove", str(digest), "--q", "1/2", "--output", str(proof)])
    text = proof.read_text().replace("4:3", "4:4")
    proof.write_text(text)
    capsys.readouterr()
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f)]) == 1
    assert "commitment-mismatch" in capsys.readouterr().out


def test_a_raised_first_count_is_rejected_before_the_accelerated_fold(tmp_path, s1, capsys):
    digest, kvc_f, proof = tmp_path / "q.qd", tmp_path / "q.kvc", tmp_path / "q.proof"
    freqs = write_freqs(tmp_path / "f.tsv", {v * 512: cnt for v, cnt in s1.items()})
    main(["build", freqs, "--sigma", "4096", "--k", "4", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(tmp_path / "q.wda"), "--kvc-out", str(kvc_f)])  # memoizes Z(2)
    main(["prove", str(digest), "--q", "5/7", "--output", str(proof)])  # stops past subtree 2
    header, first, *rest = proof.read_text().splitlines(keepends=True)
    node, _, cnt = first.partition(":")
    proof.write_text(header + f"{node}:{int(cnt) + 1}\n" + "".join(rest))
    inside = sum(subtree_test(2, 4096)(node) for node, _ in proof_from_text(read_text(proof)).counted)
    capsys.readouterr()
    before = sha256_calls()
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f), "--accelerated"]) == 1
    calls = sha256_calls() - before
    assert capsys.readouterr().out == f"accepted=0 reason=commitment-mismatch insert_ops={calls}\n"
    assert calls == 2 * inside < 4096  # the cross-check alone: no fold to the stop
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f)]) == 1
    assert capsys.readouterr().out.startswith("accepted=0 reason=commitment-mismatch ")


def test_auth_refuses_a_sigma_above_the_commitment_limit_and_writes_no_file(tmp_path, capsys):
    digest, wda_f, kvc_f = tmp_path / "q.qd", tmp_path / "q.wda", tmp_path / "q.kvc"
    dump_digest(QDigest(2**40, 4, {1: 5}), digest)
    before = sha256_calls()
    assert main(["auth", str(digest), "--wda-out", str(wda_f), "--kvc-out", str(kvc_f)]) == 2
    assert "exceeds the commitment limit" in capsys.readouterr().err
    assert sha256_calls() == before
    assert not wda_f.exists() and not kvc_f.exists()


def test_verify_rejects_tampered_digest(tmp_path, s1_file, capsys):
    digest, wda_f = tmp_path / "q.qd", tmp_path / "q.wda"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(wda_f), "--kvc-out", str(tmp_path / "q.kvc")])
    digest.write_bytes(digest.read_bytes().replace(b"4:3", b"4:4"))
    assert main(["verify", "--digest", str(digest), "--auth", str(wda_f)]) == 1


@pytest.mark.parametrize("extra", [[], ["--accelerated"]])
def test_a_proof_file_cut_short_is_a_malformed_response(tmp_path, extra, capsys):
    rng = random.Random(18)
    freqs = write_freqs(tmp_path / "f.tsv", {rng.randint(1, 2**16): rng.randint(1, 9) for _ in range(3000)})
    digest, kvc_f, proof = tmp_path / "q.qd", tmp_path / "q.kvc", tmp_path / "q.proof"
    main(["build", freqs, "--sigma", str(2**16), "--k", "64", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(tmp_path / "q.wda"), "--kvc-out", str(kvc_f)])
    main(["prove", str(digest), "--q", "3/4", "--output", str(proof)])
    assert len(proof.read_bytes()) > 300
    proof.write_bytes(proof.read_bytes()[:300])
    capsys.readouterr()
    before = sha256_calls()
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f)] + extra) == 1
    out = capsys.readouterr().out
    verdict, _, detail = out.partition(" detail=")
    assert verdict == "accepted=0 reason=malformed insert_ops=0" and detail.count("\n") == 1 < len(detail)
    assert sha256_calls() == before


def test_a_proof_header_word_without_its_value_is_a_malformed_response_naming_it(tmp_path, s1_file, capsys):
    digest, kvc_f, proof = tmp_path / "q.qd", tmp_path / "q.kvc", tmp_path / "q.proof"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(tmp_path / "q.wda"), "--kvc-out", str(kvc_f)])
    main(["prove", str(digest), "--q", "1/2", "--output", str(proof)])
    proof.write_text(re.sub(r" answer=[0-9]+", " answer", proof.read_text()))
    capsys.readouterr()
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f)]) == 1
    assert capsys.readouterr().out == "accepted=0 reason=malformed insert_ops=0 detail=field answer='' does not parse\n"


def test_a_digest_file_with_a_leading_zero_count_is_a_malformed_response(tmp_path, s1_file, capsys):
    digest, wda_f = tmp_path / "q.qd", tmp_path / "q.wda"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(wda_f), "--kvc-out", str(tmp_path / "q.kvc")])
    digest.write_bytes(digest.read_bytes().replace(b"4:3", b"4:03"))
    capsys.readouterr()
    assert main(["verify", "--digest", str(digest), "--auth", str(wda_f)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("accepted=0 reason=malformed detail=") and "b'4:03" in out


@pytest.mark.parametrize("responder", ["--proof", "--digest"])
def test_a_missing_responder_file_or_a_bad_auth_file_stays_a_usage_error(tmp_path, s1_file, responder, capsys):
    digest, proof = tmp_path / "q.qd", tmp_path / "q.proof"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    main(["prove", str(digest), "--q", "1/2", "--output", str(proof)])
    auth = tmp_path / "q.auth"
    auth.write_text("not an auth file\n")
    responder_file = {"--proof": proof, "--digest": digest}[responder]
    responder_file.write_bytes(responder_file.read_bytes()[:-1])  # unparsable, but the auth file is read first
    capsys.readouterr()
    assert main(["verify", responder, str(responder_file), "--auth", str(auth)]) == 2
    assert main(["verify", responder, str(tmp_path / "missing"), "--auth", str(auth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 2


def test_verify_needs_exactly_one_input(tmp_path, capsys):
    assert main(["verify", "--auth", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "argv", [["query", "q.qd", "--q", "1/0"], ["bench", "--sigmas", "4,x"]], ids=["q-1/0", "sigmas-4,x"]
)
def test_an_unreadable_option_value_exits_2_through_argparse(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected " in capsys.readouterr().err


def test_a_decimal_quantile_reads_as_its_fraction(tmp_path, s1_file, capsys):
    digest = tmp_path / "q.qd"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    outputs, proofs = [], []
    for q in ("0.5", "1/2"):
        capsys.readouterr()
        proof = tmp_path / f"{q.replace('/', '_')}.proof"
        assert main(["query", str(digest), "--q", q]) == 0
        assert main(["prove", str(digest), "--q", q, "--output", str(proof)]) == 0
        outputs.append(capsys.readouterr().out)
        proofs.append(proof.read_bytes())
    assert outputs[0] == outputs[1] and proofs[0] == proofs[1]
    assert proofs[0].startswith(b"aqqproof v1 q=1/2 ")


def test_decimal_bench_quantiles_give_the_fraction_rows(capsys):
    rows = []
    for qs in ("0.25,1/2", "1/4,1/2"):
        assert main(["bench", "--sigmas", "64", "--ks", "4", "--qs", qs]) == 0
        # every column but the three timings, which vary from run to run
        rows.append([line.split()[:9] + line.split()[12:] for line in capsys.readouterr().out.splitlines()])
    assert rows[0] == rows[1]
    assert [row[2] for row in rows[0][1:]] == ["1/4", "1/2"]


@pytest.mark.parametrize(
    "q, reason",
    [("3/2", "quantile fraction 3/2 out of [0, 1]"), ("1/0", "zero denominator"), ("1e9999999", "has an exponent")],
)
def test_a_quantile_the_library_refuses_exits_2_with_its_reason(q, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["query", "q.qd", "--q", q])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --q: expected " in err and reason in err


def test_verify_refuses_accelerated_without_a_proof(tmp_path, s1_file, capsys):
    digest, wda_f = tmp_path / "q.qd", tmp_path / "q.wda"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(wda_f), "--kvc-out", str(tmp_path / "q.kvc")])
    capsys.readouterr()
    assert main(["verify", "--digest", str(digest), "--auth", str(wda_f), "--accelerated"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--accelerated" in captured.err and "--proof" in captured.err


@pytest.mark.parametrize("old, new", [("sigma=8", "sigma=3"), ("sigma=8", "sigma=0"), ("k=4", "k=0"), ("k=4", "k=-1")])
def test_verify_names_the_out_of_limit_wda_auth_field(tmp_path, s1_file, old, new, capsys):
    digest, wda_f = tmp_path / "q.qd", tmp_path / "q.wda"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(wda_f), "--kvc-out", str(tmp_path / "q.kvc")])
    wda_f.write_text(wda_f.read_text().replace(old, new))
    capsys.readouterr()
    assert main(["verify", "--digest", str(digest), "--auth", str(wda_f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: WDA auth field {new} " in captured.err


@pytest.mark.parametrize(
    "option, message",
    [
        (["--k", "0"], "k must be a positive integer"),
        (["--coarse", "-1"], "levels to cut"),
        (["--coarse", "4"], "cannot cut"),
    ],
)
def test_build_refuses_a_bad_parameter_and_writes_no_file(tmp_path, s1_file, capsys, option, message):
    out = tmp_path / "bad.qd"
    assert main(["build", s1_file, "--sigma", "8", "--k", "4", *option, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not out.exists()


def test_coarse_build(tmp_path, s1_file, capsys):
    out = tmp_path / "c.qd"
    assert main(
        ["build", s1_file, "--sigma", "8", "--k", "4", "--coarse", "1", "--output", str(out)]
    ) == 0
    q = load_digest(out)
    assert q.sigma == 4 and q.leaf_width == 2


# single edits of a dumped frequency file's lines, each (lines, one of its values, sigma) -> lines: texts
# `serialize.frequency_columns` refuses, and unsorted, repeated or out-of-range values, which its columns hold
LINE_EDITS = {
    "none": lambda lines, v, sigma: lines,
    "reordered": lambda lines, v, sigma: lines[1:] + lines[:1],
    "repeated value": lambda lines, v, sigma: sorted(lines + [f"{v}\t2\n"], key=lambda line: int(line.split("\t")[0])),
    "leading zero": lambda lines, v, sigma: [f"0{v}\t1\n"] + lines,
    "-0": lambda lines, v, sigma: ["-0\t1\n"] + lines,
    "zero multiplicity": lambda lines, v, sigma: lines + [f"{sigma + 1}\t0\n"],
    "negative multiplicity": lambda lines, v, sigma: lines + [f"{sigma + 1}\t-{v}\n"],
    "value 0": lambda lines, v, sigma: ["0\t1\n"] + lines,
    "value above sigma": lambda lines, v, sigma: lines + [f"{sigma + 1}\t1\n"],
    "CR": lambda lines, v, sigma: [line.replace("\n", "\r\n") for line in lines],
    "comment": lambda lines, v, sigma: ["# a comment\n"] + lines,
    "blank line": lambda lines, v, sigma: lines + ["\n"],
    "no final newline": lambda lines, v, sigma: lines[:-1] + [line.rstrip("\n") for line in lines[-1:]],
    "truncated last line": lambda lines, v, sigma: lines[:-1] + [line.split("\t")[0] for line in lines[-1:]],
    "4,301 digits": lambda lines, v, sigma: lines + ["1" * 4301 + "\t1\n"],
}


@st.composite
def build_inputs(draw):
    """A `dump_frequencies` text of a sparse or dense map, one of LINE_EDITS applied, and build options."""
    sigma = draw(st.sampled_from([1, 2, 3, 5, 8, 12, 16, 100, 128]))
    dense = draw(st.booleans())  # at least sigma / 2 values, so that `coarsen` reads the map into an array
    size = st.integers((sigma + 1) // 2, sigma) if dense else st.integers(0, min(sigma, 6))
    values = draw(st.lists(st.integers(1, sigma), min_size=draw(size), max_size=sigma, unique=True))
    lines = [f"{v}\t{draw(st.integers(1, 10**30))}\n" for v in sorted(values)]
    edit = draw(st.one_of(st.just("none"), st.sampled_from(sorted(LINE_EDITS))))  # half of them unedited
    v = draw(st.sampled_from(values or [1]))
    k, coarse = draw(st.integers(0, 9)), draw(st.integers(0, 2))
    return "".join(LINE_EDITS[edit](lines, v, sigma)), sigma, k, coarse


def build_outcome(text, sigma, k, coarse):
    """`main`'s exit code, stdout and stderr for `qdigest build` of text, and the bytes it wrote, if any."""
    with tempfile.TemporaryDirectory() as tmp:
        freq, out = os.path.join(tmp, "f.tsv"), os.path.join(tmp, "f.qd")
        with open(freq, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        stdout, stderr = StringIO(), StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["build", freq, "--sigma", str(sigma), "--k", str(k), "--coarse", str(coarse), "--output", out])
        written = Path(out).read_bytes() if os.path.exists(out) else None
    return code, stdout.getvalue(), stderr.getvalue(), written


@settings(max_examples=300, deadline=None)
@given(build_inputs())
def test_a_build_from_the_columns_matches_coarsen_of_the_line_loop(case):
    """Every text, edited or not, builds what `coarsen` of the line loop's map builds: the same exit
    code, stdout, stderr and file bytes, whether or not `qdigest build` takes the file's columns."""
    with mock.patch.object(cli, "frequency_columns", lambda text: None), \
            mock.patch.object(cli, "parse_frequency_lines", frequencies_line_by_line):
        expected = build_outcome(*case)
    assert build_outcome(*case) == expected


def test_simulate(tmp_path, s1_file, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("scheme=kvc_qa\nbehavior=omit_left:4\nqueries=1/2\n")
    assert main(["simulate", str(scn), s1_file, "--sigma", "8", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "accepted=0" in out


def test_simulate_window_comes_from_the_scenario_file(tmp_path, s1_file, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("scheme=kvc_qa\nbehavior=honest\nqueries=1/2\nupdates=4\nwindow=2\n")
    assert main(["simulate", str(scn), s1_file, "--sigma", "8", "--k", "4"]) == 0
    assert "window=2" in capsys.readouterr().out
    for option in (["--window", "2"], ["--levels", "p1:8,p2:2"]):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(scn), s1_file, "--sigma", "8", "--k", "4", *option])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "settings, message",
    [
        ("scheme=wda\nbehavior=honest\nlevels=a:8,a:4", "repeated: a"),
        ("scheme=kvc_qa\nbehavior=honest\nwindow=-3", "window"),
        ("scheme=kvc_qa\nbehavior=honest\nupdates=0", "updates"),
        ("scheme=kvc_qa\nbehavior=honest\nlevels=a:8,b:4\nwindow=2", "levels"),
        ("scheme=kvc_qa\nbehavior=omit_left:4\nlevels=a:8,b:4:1", "omit_left"),
        ("scheme=kvc_qa\nbehavior=honest\nqueries=1/0", "zero denominator"),
        ("scheme=kvc_qa\nbehavior=honest\nqueries=1/2,1E-9999999", "has an exponent"),
    ],
)
def test_simulate_refuses_a_scenario_that_cannot_run(tmp_path, s1_file, capsys, settings, message):
    scn = tmp_path / "s.scn"
    scn.write_text(f"{settings}\n" if "queries=" in settings else f"queries=1/2\n{settings}\n")
    assert main(["simulate", str(scn), s1_file, "--sigma", "8", "--k", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("session", ["updates=3", "window=2"])
def test_simulate_a_cumulative_session_over_an_empty_stream(tmp_path, session, capsys):
    scn, empty = tmp_path / "s.scn", tmp_path / "none.tsv"
    scn.write_text(f"scheme=kvc_qa\nbehavior=honest\nqueries=1/2,1\n{session}\n")
    empty.write_text("")
    assert main(["simulate", str(scn), str(empty), "--sigma", "8", "--k", "4"]) == 0
    header, *records = capsys.readouterr().out.splitlines()
    assert header.startswith("# cumulative ") and " n=0 " in header
    assert records == [
        f"query={q} answer=0 accepted=0 insert_ops=0 bytes=0 reason=empty-response" for q in ("1/2", "1/1")
    ]


@pytest.mark.parametrize(
    "sigmas, ks, reported",
    [("8,16", "2", ["8", "16"]), ("3,100", "4", ["4", "128"]), ("1", "4", ["1"])],
    ids=["powers-of-two", "padded", "single-value"],
)
def test_bench_table(capsys, sigmas, ks, reported):
    """A row is verified and reported at the digest's tree sigma, the requested one padded to a power of two."""
    assert main(["bench", "--sigmas", sigmas, "--ks", ks, "--qs", "1/2", "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 + len(reported)  # header + one row per sigma
    assert out[0].lstrip().startswith("sigma")
    assert [row.split()[0] for row in out[1:]] == reported
    assert all(row.split()[-1] == "1" for row in out[1:])  # every honest proof verifies


def test_cli_outputs_are_deterministic(tmp_path, s1_file):
    a, b = tmp_path / "a.qd", tmp_path / "b.qd"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(a)])
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_random_round_trips(tmp_path, capsys):
    rng = random.Random(99)
    for i in range(50):
        sigma = rng.choice([8, 16, 32])
        k = rng.randint(1, 8)
        freqs = random_frequencies(rng, sigma, max_distinct=20)
        freq_file = write_freqs(tmp_path / f"f{i}.tsv", freqs)
        digest = tmp_path / f"d{i}.qd"
        kvc_f = tmp_path / f"k{i}.kvc"
        proof = tmp_path / f"p{i}.proof"
        num = rng.randint(0, 8)
        assert main(["build", freq_file, "--sigma", str(sigma), "--k", str(k),
                     "--output", str(digest)]) == 0
        assert main(["auth", str(digest), "--wda-out", str(tmp_path / f"w{i}.wda"),
                     "--kvc-out", str(kvc_f)]) == 0
        assert main(["prove", str(digest), "--q", f"{num}/8", "--output", str(proof)]) == 0
        assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f)]) == 0
        assert main(["verify", "--digest", str(digest),
                     "--auth", str(tmp_path / f"w{i}.wda")]) == 0


README_KVC_FILE = (
    "kvcauth v1 sigma=8 k=4 leafwidth=1 n=38\n"
    "commitment=kvc1:91f71a3a740c8287827959b719e94391fd6bfac5430de2aad3503ee65f4749c4\n"
    "subtree=2:kvc1:4b20195f097b5c12ded747c90548a03e2f7356e340ae40026b2e7a837c66d310\n"
)


def test_auth_writes_the_readme_kvc_file(tmp_path, s1_file, capsys):
    digest, kvc_f = tmp_path / "q1.qd", tmp_path / "q1.kvc"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    capsys.readouterr()
    assert main(["auth", str(digest), "--wda-out", str(tmp_path / "q1.wda"), "--kvc-out", str(kvc_f)]) == 0
    assert kvc_f.read_bytes() == README_KVC_FILE.encode("ascii")
    assert capsys.readouterr().out.rstrip().endswith(" subtrees=2")


# (a field of README_KVC_FILE, the same field with a value out of its limits)
OUT_OF_LIMIT_KVC_FIELDS = [
    ("sigma=8", "sigma=7"),
    ("k=4", "k=-4"),
    ("leafwidth=1", "leafwidth=3"),
    ("n=38", "n=-15"),
    ("subtree=2:", "subtree=99:"),
]


@pytest.mark.parametrize(
    "kvc_text",
    [
        README_KVC_FILE.replace("leafwidth=1", "leafwidth=x"),
        README_KVC_FILE.replace("commitment=", "commitments="),
        README_KVC_FILE.replace("subtree=2:", "subtree=two:"),
        README_KVC_FILE.replace("sigma=8", "sigma=8 sigma=16"),
        README_KVC_FILE + README_KVC_FILE.splitlines(keepends=True)[-1],
        README_KVC_FILE.replace("sigma=8", "sigma=08"),
        README_KVC_FILE.replace("\n", "\r\n"),
        README_KVC_FILE.splitlines(keepends=True)[0],
        *(README_KVC_FILE.replace(old, new) for old, new in OUT_OF_LIMIT_KVC_FIELDS),
    ],
    ids=[
        "malformed-header",
        "missing-commitment",
        "bad-subtree-line",
        "repeated-header-key",
        "repeated-subtree-line",
        "leading-zero-sigma",
        "crlf-line-endings",
        "header-only",
        *(new for _, new in OUT_OF_LIMIT_KVC_FIELDS),
    ],
)
def test_verify_refuses_a_malformed_kvc_auth_file(tmp_path, s1_file, kvc_text, capsys):
    digest, kvc_f, proof = tmp_path / "q.qd", tmp_path / "q.kvc", tmp_path / "q.proof"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    main(["prove", str(digest), "--q", "1/2", "--output", str(proof)])
    kvc_f.write_text(kvc_text)
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--accelerated"]])
@pytest.mark.parametrize("old, new", OUT_OF_LIMIT_KVC_FIELDS, ids=[new for _, new in OUT_OF_LIMIT_KVC_FIELDS])
def test_verify_names_the_out_of_limit_kvc_auth_field(tmp_path, s1_file, old, new, extra, capsys):
    digest, kvc_f, proof = tmp_path / "q.qd", tmp_path / "q.kvc", tmp_path / "q.proof"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    main(["prove", str(digest), "--q", "1/2", "--output", str(proof)])
    kvc_f.write_text(README_KVC_FILE.replace(old, new))
    capsys.readouterr()
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f)] + extra) == 2
    assert f"error: KVC auth field {new.rstrip(':')} " in capsys.readouterr().err  # names field and value


@pytest.mark.parametrize("extra", [[], ["--accelerated"]])
def test_verify_rejects_an_oversized_stop_count(tmp_path, s1_file, extra, capsys):
    digest, kvc_f, proof = tmp_path / "q.qd", tmp_path / "q.kvc", tmp_path / "q.proof"
    main(["build", s1_file, "--sigma", "8", "--k", "4", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(tmp_path / "q.wda"), "--kvc-out", str(kvc_f)])
    main(["prove", str(digest), "--q", "1", "--output", str(proof)])
    lines = proof.read_text().splitlines()
    node = lines[-2].partition(":")[0]
    lines[-2] = f"{node}:{2**200}"
    proof.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--proof", str(proof), "--auth", str(kvc_f)] + extra) == 1
    assert "reason=malformed" in capsys.readouterr().out


def fresh_python(args, cwd=None):
    """`python` with these arguments in a new process, on this checkout's src."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def fresh_cli(argv, cwd=None):
    """`python -m qdigest_auth.cli` with these arguments in a new process."""
    return fresh_python(["-m", "qdigest_auth.cli", *argv], cwd)


def test_importing_the_cli_loads_no_module_the_package_imports_on_first_use():
    """`json` (the bulk frequency reader), `pickle` (the fold helper) and `array` (dense maps) load only when used."""
    script = "import sys, qdigest_auth.cli; print(sorted({'json', 'pickle', 'array'} & set(sys.modules)))"
    run = fresh_python(["-c", script])
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")


def test_a_command_in_a_fresh_process_builds_only_its_own_parser(tmp_path):
    """`qdigest build` makes one `ArgumentParser`, its own; the eight-command parser would make nine."""
    (tmp_path / "s1.tsv").write_text("1\t1\n2\t2\n")
    script = (
        "import argparse, sys\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    made.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from qdigest_auth.cli import main\n"
        "code = main(['build', 's1.tsv', '--sigma', '8', '--k', '4', '--output', 'q1.qd'])\n"
        "print(code, made)\n"
    )
    run = fresh_python(["-c", script], cwd=tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[-1] == "0 ['qdigest build']"


def test_importing_the_cli_leaves_pickle_unloaded():
    """Only a fold split with the helper process imports `pickle`, so a process that never
    splits one does not pay for it (about 0.4 MB of peak RSS)."""
    run = fresh_python(["-c", "import sys, qdigest_auth.cli; print('pickle' in sys.modules)"])
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


def test_readme_python_quick_start_runs(capsys):
    """The README's Python block as a user would run it: it prints the merged median, 6, and its proof verifies."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "6\n"


def test_readme_command_block_in_fresh_processes(tmp_path):
    """The README's sigma-8 block, each command in a new `python -m qdigest_auth.cli` process."""

    def qdigest(*argv):
        return fresh_cli(argv, cwd=tmp_path)

    (tmp_path / "s1.tsv").write_text("1\t1\n2\t2\n3\t3\n4\t4\n5\t6\n6\t6\n7\t7\n8\t9\n")
    assert qdigest("build", "s1.tsv", "--sigma", "8", "--k", "4", "--output", "q1.qd").returncode == 0
    assert qdigest("query", "q1.qd", "--q", "1/2").stdout == "6\n"
    assert qdigest("auth", "q1.qd", "--wda-out", "q1.wda", "--kvc-out", "q1.kvc").returncode == 0
    assert (tmp_path / "q1.kvc").read_bytes() == README_KVC_FILE.encode("ascii")
    assert qdigest("prove", "q1.qd", "--q", "1/2", "--output", "q1.proof").returncode == 0
    for extra in ([], ["--accelerated"]):
        assert qdigest("verify", "--proof", "q1.proof", "--auth", "q1.kvc", *extra).returncode == 0
    assert qdigest("verify", "--digest", "q1.qd", "--auth", "q1.wda").returncode == 0
    (tmp_path / "attack.scn").write_text("scheme=kvc_qa\nbehavior=omit_left:4\nqueries=1/2\n")
    run = qdigest("simulate", "attack.scn", "s1.tsv", "--sigma", "8", "--k", "4")
    assert run.returncode == 0
    assert run.stdout.endswith(" accepted=0 insert_ops=9 bytes=126 reason=commitment-mismatch\n")

    lines = (tmp_path / "q1.proof").read_text().splitlines(keepends=True)
    node, _, cnt = lines[1].partition(":")
    lines[1] = f"{node}:{int(cnt) + 1}\n"
    (tmp_path / "raised.proof").write_text("".join(lines))
    assert qdigest("verify", "--proof", "raised.proof", "--auth", "q1.kvc").returncode == 1
    assert qdigest("query", "q1.qd", "--q", "1/0").returncode == 2


def test_a_fresh_accelerated_verify_at_sigma_2_12_prints_the_warm_line(tmp_path, capsys):
    """Z(2) is shipped from sigma 2**11 up, so a fresh process's cross-check folds no zero subtree:
    with the stop past subtree 2 it prints the line of a warm in-process call, insert_ops included."""
    sigma = 2**12
    freqs = write_freqs(tmp_path / "f.tsv", random_frequencies(random.Random(12), sigma, max_distinct=1_000))
    digest, kvc_f, proof = tmp_path / "q.qd", tmp_path / "q.kvc", tmp_path / "q.proof"
    main(["build", freqs, "--sigma", str(sigma), "--k", "64", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(tmp_path / "q.wda"), "--kvc-out", str(kvc_f)])  # memoizes Z(2)
    main(["prove", str(digest), "--q", "3/4", "--output", str(proof)])
    assert not subtree_test(2, sigma)(proof_from_text(read_text(proof)).counted[-1][0])
    argv = ["verify", "--proof", str(proof), "--auth", str(kvc_f), "--accelerated"]
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("accepted=1 reason=ok insert_ops=")
    run = fresh_cli(argv)
    assert (run.returncode, run.stdout, run.stderr) == (0, printed, "")


def test_a_cold_accelerated_verify_at_sigma_2_16_prints_what_main_prints(tmp_path, capsys, monkeypatch):
    """At q = 1 the accelerated fold passes 2**13 nodes, so a fresh process may fork the helper;
    it prints main's line and exits, leaving no process that holds its output open."""
    freqs = write_freqs(tmp_path / "f.tsv", random_frequencies(random.Random(16), 2**16, max_distinct=5_000))
    digest, kvc_f, proof = tmp_path / "q.qd", tmp_path / "q.kvc", tmp_path / "q.proof"
    main(["build", freqs, "--sigma", str(2**16), "--k", "64", "--output", str(digest)])
    main(["auth", str(digest), "--wda-out", str(tmp_path / "q.wda"), "--kvc-out", str(kvc_f)])
    main(["prove", str(digest), "--q", "1/1", "--output", str(proof)])
    argv = ["verify", "--proof", str(proof), "--auth", str(kvc_f), "--accelerated"]
    capsys.readouterr()
    monkeypatch.setattr(commitment, "_ZERO_FOLDS", {})  # no zero fold memoized, as in a fresh process
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("accepted=1 reason=ok ")
    run = fresh_cli(argv)
    assert (run.returncode, run.stdout, run.stderr) == (0, printed, "")
