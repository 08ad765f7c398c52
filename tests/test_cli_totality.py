"""`qdigest` is total on edited files: 1-3 byte edits of every file kind it reads.

The six kinds (frequency, digest, WDA auth, KVC auth, proof and scenario
files) are written honestly at sigma 8 and 256, edited, and run through
every subcommand that reads them.  No exception escapes `cli.main` and
every exit code is 0, 1 or 2.  A trusted auth file that no longer parses
is a usage error, and a responder's file never is.  An edited proof that
verifies answers its own q honestly: an edit of q can leave the stop
bucket where it was.  An edited digest verifies only if its bytes did
not change.
"""

import contextlib
import io
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qdigest_auth.cli import main
from qdigest_auth.digest import quantile_query
from qdigest_auth.kvcqa import KvcAuthInfo, proof_from_text
from qdigest_auth.serialize import dump_frequencies, load_digest, read_text
from qdigest_auth.wda import WdaAuthInfo

from helpers import random_frequencies

SIGMAS = (8, 256)
KINDS = ("freq", "digest", "wda", "kvc", "proof", "scenario")
# the digits and separators of the formats, a letter of each keyword, and bytes that are not ASCII;
# digits come thrice, so that more edited files still parse and reach a verifier
EDIT_BYTES = b"0123456789" * 3 + b":=/,_ \n\t-abkqsx\x80\xff"


def run(argv) -> int:
    """`main`'s exit code, its output dropped; an exception escaping `main` fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def parses(parse, path) -> bool:
    try:
        parse(read_text(path))
    except ValueError:
        return False
    return True


def edited(rng: random.Random, original: bytes) -> bytes:
    """`original` after 1-3 edits at uniform positions, each replacing, inserting or deleting one byte."""
    data = bytearray(original)
    for _ in range(rng.randint(1, 3)):
        pos, kind, byte = rng.randint(0, len(data)), rng.choice(["replace", "insert", "delete"]), rng.choice(EDIT_BYTES)
        if kind == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            data[pos:pos + 1] = [byte] if kind == "replace" else []
    return bytes(data)


@pytest.fixture(scope="module")
def honest(tmp_path_factory):
    """Per sigma: a path maker, the honest digest, and the honest files' bytes by kind (several scenarios)."""
    sets = {}
    for sigma in SIGMAS:
        home = tmp_path_factory.mktemp(f"sigma{sigma}")

        def path(name, home=home):
            return str(home / name)

        dump_frequencies(random_frequencies(random.Random(sigma), sigma, max_distinct=40), path("freq"))
        assert run(["build", path("freq"), "--sigma", str(sigma), "--k", "8", "--output", path("digest")]) == 0
        assert run(["auth", path("digest"), "--wda-out", path("wda"), "--kvc-out", path("kvc")]) == 0
        assert run(["prove", path("digest"), "--q", "1/2", "--output", path("proof")]) == 0
        digest = load_digest(path("digest"))
        first = min(digest.buckets())
        scenarios = [
            "scheme=kvc_qa_accelerated\nbehavior=honest\nqueries=0,1/2,1\n",
            f"scheme=kvc_qa\nbehavior=tamper_count:{first}:1\nqueries=1/3,1\n",
            f"scheme=wda\nbehavior=tamper_count:{first}:-1\nqueries=1/2\n",
        ]
        (home / "scenario").write_text(scenarios[0])
        originals = {kind: [(home / kind).read_bytes()] for kind in KINDS}
        originals["scenario"] = [text.encode() for text in scenarios]
        sets[sigma] = path, digest, originals
    return sets


def commands(kind: str, sigma: int, path, edit: str) -> list[list[str]]:
    """Every subcommand that reads a file of `kind`, reading `edit` in its place."""
    files = {name: path(name) for name in KINDS} | {kind: edit}
    params = ["--sigma", str(sigma), "--k", "8"]
    every = [
        ["build", files["freq"], *params, "--output", path("out")],
        ["simulate", files["scenario"], files["freq"], *params],
        ["query", files["digest"], "--q", "1/2"],
        ["merge", files["digest"], path("digest"), "--output", path("out")],
        ["auth", files["digest"], "--wda-out", path("out.wda"), "--kvc-out", path("out.kvc")],
        ["prove", files["digest"], "--q", "1/2", "--output", path("out")],
        ["verify", "--digest", files["digest"], "--auth", files["wda"]],
        ["verify", "--proof", files["proof"], "--auth", files["kvc"]],
        ["verify", "--proof", files["proof"], "--auth", files["kvc"], "--accelerated"],
    ]
    return [argv for argv in every if edit in argv]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sigma", SIGMAS)
@settings(max_examples=80, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_every_command_is_total_on_an_edited_file(honest, sigma, kind, rng):
    path, digest, originals = honest[sigma]
    original = rng.choice(originals[kind])
    text = edited(rng, original)
    edit = path("edited")
    Path(edit).write_bytes(text)
    for argv in commands(kind, sigma, path, edit):
        code = run(argv)
        assert code in (0, 1, 2), argv
        if kind in ("wda", "kvc"):  # the trusted file is edited
            if not parses(WdaAuthInfo.parse if kind == "wda" else KvcAuthInfo.parse, edit):
                assert code == 2, argv
        elif argv[0] == "verify":  # the responder's file is edited
            assert code != 2, argv
            if kind == "proof" and code == 0:
                proof = proof_from_text(read_text(edit))
                assert proof.answer == quantile_query(digest, proof.q), argv
            if kind == "digest":
                assert code == 1 or text == original, argv
