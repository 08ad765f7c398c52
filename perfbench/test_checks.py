"""Each independent check catches the error it targets.

    python3 -m pytest perfbench
"""

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from qdigest_auth import (  # noqa: E402
    aqq,
    build_from_frequencies,
    commit_digest,
    insert,
    malicious_aqq_omit_left,
    qqv,
    quantile_query,
    range_query,
    rank_query,
    subtree_commitment,
    wda_authinfo,
)
from qdigest_auth.serialize import digest_to_bytes  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from checks import (  # noqa: E402
    CheckFailed,
    ExactCounts,
    canonical_bytes,
    check_equal,
    check_quantile,
    check_range,
    check_rank,
    check_total,
    check_verdict,
    commitment_hex,
    wda_hash_hex,
)
from tracing import Tracer  # noqa: E402

SIGMA = 16
# Every other value three times; k above n keeps every bucket an exact leaf,
# so the error bounds are zero and an answer one bucket off is always wrong.
FREQS = {v: 3 for v in range(1, SIGMA, 2)}
K = 1000


def set_up(workload):
    for step in workload.setup_steps():
        step()


@pytest.fixture
def digest():
    return build_from_frequencies(FREQS, K, SIGMA)


def test_quantile_check_catches_an_answer_one_bucket_off(digest):
    exact = ExactCounts(FREQS)
    q = Fraction(1, 2)
    answer = quantile_query(digest, q)
    check_quantile(exact, q, answer, SIGMA, K)
    values = sorted(FREQS)
    pos = values.index(answer)
    for wrong in (values[pos - 1], values[pos + 1]):
        with pytest.raises(CheckFailed):
            check_quantile(exact, q, wrong, SIGMA, K)


def test_rank_and_range_checks_catch_a_count_off_by_one(digest):
    exact = ExactCounts(FREQS)
    estimate = rank_query(digest, 8)
    check_rank(exact, 8, estimate, SIGMA, K)
    with pytest.raises(CheckFailed):
        check_rank(exact, 8, estimate + 1, SIGMA, K)
    estimate = range_query(digest, 3, 9)
    check_range(exact, 3, 9, estimate, SIGMA, K)
    with pytest.raises(CheckFailed):
        check_range(exact, 3, 9, estimate - 1, SIGMA, K)


def test_total_check_catches_a_lost_value(digest):
    check_total(ExactCounts(FREQS), digest.n)
    with pytest.raises(CheckFailed):
        check_total(ExactCounts(FREQS), digest.n - 1)


def test_commitment_check_catches_one_extra_insertion(digest):
    buckets = digest.buckets()
    expected = commitment_hex(SIGMA, buckets)
    check_equal("commitment", commit_digest(digest).encode(), expected)
    check_equal("subtree", subtree_commitment(digest, 3).encode(), commitment_hex(SIGMA, buckets, root=3))
    with pytest.raises(CheckFailed):
        check_equal("commitment", insert(commit_digest(digest), 5, 0).encode(), expected)


def test_wda_checks_catch_altered_bytes(digest):
    buckets = digest.buckets()
    check_equal("bytes", digest_to_bytes(digest), canonical_bytes(SIGMA, K, 1, buckets))
    check_equal("hash", wda_authinfo(digest).digest_hash.hex(), wda_hash_hex(SIGMA, K, 1, buckets))
    node = min(buckets)
    buckets[node] += 1
    with pytest.raises(CheckFailed):
        check_equal("hash", wda_authinfo(digest).digest_hash.hex(), wda_hash_hex(SIGMA, K, 1, buckets))


def test_verdict_check_catches_an_accepted_attack(digest):
    q = Fraction(1, 2)
    honest = aqq(digest, q)
    bad = malicious_aqq_omit_left(digest, q, {honest.counted[0][0]})
    c = commit_digest(digest)
    check_verdict("honest", qqv(honest, c, digest.n, SIGMA).accepted, honest=True)
    check_verdict("attack", qqv(bad, c, digest.n, SIGMA).accepted, honest=False)
    with pytest.raises(CheckFailed):
        check_verdict("attack", True, honest=False)
    with pytest.raises(CheckFailed):
        check_verdict("honest", False, honest=True)


@pytest.mark.parametrize("cls", [workloads.WdaStream, workloads.CliRoundtrip, workloads.KvcQuery])
def test_one_cycle_of_each_workload_passes_its_checks(cls, tmp_path):
    workload = cls(seed=7, tracer=Tracer(enabled=False), workdir=str(tmp_path))
    set_up(workload)
    workload.check_setup()
    ops = workload.cycle()
    failed = []
    for op in ops:
        outcome = op()
        if outcome.failed:
            failed.append(op)
        else:
            outcome.check()
    if cls is workloads.KvcQuery:
        # The verifier may raise on the oversized-count proof instead of
        # rejecting it; no other operation may fail.
        assert all(op.func == workload.oversized_count for op in failed)
    else:
        assert failed == []


def test_tampered_bytes_the_parser_refuses_count_as_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "_bump_last_count", lambda data: b"not a digest")
    workload = workloads.WdaStream(seed=7, tracer=Tracer(enabled=False), workdir=str(tmp_path))
    set_up(workload)
    for op in workload.cycle():
        outcome = op()
        assert not outcome.failed
        outcome.check()


def test_an_operation_that_raises_fails_the_checks():
    class Raising:
        def cycle(self):
            return [lambda: 1 // 0]

    with pytest.raises(CheckFailed):
        run.Loop().run(Raising(), Tracer(enabled=False), seconds=0)


def test_inputs_depend_only_on_the_seed(tmp_path):
    make = lambda seed: workloads.WdaStream(seed, Tracer(enabled=False), str(tmp_path)).batches  # noqa: E731
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wda_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "package source not found" in done.stderr
    assert done.stdout == ""
