"""The source's, the prover's and the verifier's commitments through memoized zero folds.

`commit_digest`, `subtree_commitment`, `commit_subtree` and the
remainders of `aqq` and `malicious_aqq_omit_left` take Z, the public fold
of zero-valued insertions, and add H(b, c_b) - H(b, 0) per bucket; a
remainder also subtracts the zero fold of the post-order prefix up to its
stop, and `qqv_fast` adds that prefix back.  They must equal the literal
fold of one insertion per node.  Nodes
1, 2 and 3 and subtrees of more than 64 leaves are memoized, so the
domains below reach sigma = 2**10; from 2**11 up Z(2) and Z(3) are
shipped constants, checked here against the literal fold.
Once the memo of a sigma is warm, the SHA-256 calls depend on the
buckets, not on sigma.
"""

import hashlib
import os
import random
import signal
import threading
import time
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, islice
from unittest.mock import Mock

import pytest

from qdigest_auth import commitment
from qdigest_auth.bench import format_bench_table, run_bench
from qdigest_auth.commitment import (
    COMMIT_MAX_SIGMA,
    GROUP_PRIME,
    Commitment,
    combine,
    commit_digest,
    commit_prefix,
    commit_subtree,
    fold_ranges,
    sha256_calls,
    subtree_commitment,
)
from qdigest_auth.digest import QDigest, build_from_frequencies, counted_prefix
from qdigest_auth.kvcqa import (
    QuantileProof,
    aqq,
    malicious_aqq_omit_left,
    publish_kvc_auth,
    qqv,
    qqv_accelerated,
    qqv_fast,
)
from qdigest_auth.tree import (
    level,
    post_order_nodes,
    post_order_rank,
    split_at,
    subtree_ranges,
    subtree_size,
    subtree_test,
)

from helpers import CAN_SPLIT, SPLIT, hashlib_fold, helper_pid, needs_helper, random_frequencies

QS = [Fraction(i, 8) for i in range(9)]


def literal(q, nodes):
    return hashlib_fold((node, q.count(node)) for node in nodes)


def literal_remainder(q, stop, hidden=()):
    after = islice(post_order_nodes(q.sigma), post_order_rank(stop, q.sigma), None)
    return literal(q, chain(after, hidden))


def commit_zero_subtrees(sigma, roots):
    """The zero fold of disjoint subtrees: one `commit_subtree` per root, in turn."""
    return reduce(combine, (commit_subtree(sigma, root, ()) for root in roots), Commitment(0))


def seeded_digest(seed, sigma):
    rng = random.Random(f"zero-folds:{seed}:{sigma}")
    return build_from_frequencies(random_frequencies(rng, sigma), rng.choice([4, 16, 64]), sigma)


@pytest.mark.parametrize("sigma", [1, 2, 8, 64, 128, 256, 1024])
def test_commitments_equal_the_literal_fold_at_every_root(sigma, example2_digest):
    examples = [example2_digest] if sigma == example2_digest.sigma else []
    digests = [seeded_digest(0, sigma), seeded_digest(1, sigma), *examples]
    for q in digests:
        assert commit_digest(q) == literal(q, post_order_nodes(sigma))
        # the literal folds of the post-order prefix up to each root, one node at a time: at zero and at q's counts
        prefixes = accumulate((hashlib_fold([(node, 0)]) for node in post_order_nodes(sigma)), combine)
        counted_prefixes = accumulate((literal(q, [node]) for node in post_order_nodes(sigma)), combine)
        buckets = q.post_order_buckets()
        ranks = [post_order_rank(node, sigma) for node, _ in buckets]
        for rank, (root, prefix, counted_prefix) in enumerate(zip(post_order_nodes(sigma), prefixes, counted_prefixes), 1):
            nodes = list(post_order_nodes(sigma, root))
            assert subtree_commitment(q, root) == literal(q, nodes), root
            counted = buckets[:bisect_right(ranks, rank)]
            assert commit_prefix(sigma, root, counted) == counted_prefix, root
            if q is digests[0]:  # the zero folds, which q does not change, and a prefix from a memo that holds nothing
                assert commit_subtree(sigma, root, ()) == hashlib_fold([nodes], {}), root
                assert commit_zero_subtrees(sigma, split_at(root, sigma)[0]) == prefix, root
                warm_memo = commitment._ZERO_FOLDS.pop(sigma)
                assert commit_prefix(sigma, root, counted) == counted_prefix, root
                commitment._ZERO_FOLDS[sigma] = warm_memo
    # nodes 1, 2 and 3 and every subtree of more than 64 leaves are memoized, and no other
    assert len(commitment._ZERO_FOLDS[sigma]) == min(2 * sigma - 1, max(sigma // 64 - 1, 3))


@pytest.mark.parametrize("sigma", [1, 2, 8, 64, 128, 256, 1024])
def test_proof_remainders_equal_the_literal_fold(sigma):
    for seed in range(4):
        q = seeded_digest(seed, sigma)
        rng = random.Random(seed)
        for frac in QS:
            proof = aqq(q, frac)
            assert proof.remainder == literal_remainder(q, proof.counted[-1][0]), frac
            honest = counted_prefix(q.post_order_buckets(), frac * q.n)
            if len(honest) > 1:
                omit = {node for node, _ in rng.sample(honest[:-1], rng.randint(1, len(honest) - 1))}
                bad = malicious_aqq_omit_left(q, frac, omit)
                assert bad.remainder == literal_remainder(q, bad.counted[-1][0], omit), (frac, omit)


def literal_verifier_fold(proof, sigma):
    """The group element `qqv` compares with C: the remainder plus one insertion per node up to the stop."""
    counted = dict(proof.counted)
    nodes = islice(post_order_nodes(sigma), post_order_rank(proof.counted[-1][0], sigma))
    return combine(proof.remainder, hashlib_fold([nodes], counted))


def verifier_cases(q, rng):
    """Honest, omit-left, altered-count and random-remainder proofs at each quantile."""
    for frac in QS:
        proof = aqq(q, frac)
        yield proof
        honest = counted_prefix(q.post_order_buckets(), frac * q.n)
        if len(honest) > 1:
            omit = {node for node, _ in rng.sample(honest[:-1], rng.randint(1, len(honest) - 1))}
            yield malicious_aqq_omit_left(q, frac, omit)
        counted = list(proof.counted)
        i = rng.randrange(len(counted))
        counted[i] = (counted[i][0], counted[i][1] + rng.choice([-1, 1]))
        yield replace(proof, counted=tuple(counted))
        yield replace(proof, remainder=Commitment(rng.randrange(GROUP_PRIME)))


@pytest.mark.parametrize("sigma", [1, 2, 8, 64, 128, 1024, 4096])
def test_the_fast_verifier_folds_to_the_literal_group_element(sigma):
    for seed in range(2):
        q = seeded_digest(seed, sigma)
        c = commit_digest(q)
        for proof in verifier_cases(q, random.Random(seed)):
            literal_stats, fast_stats = qqv(proof, c, q.n, sigma), qqv_fast(proof, c, q.n, sigma)
            assert (fast_stats.accepted, fast_stats.reason) == (literal_stats.accepted, literal_stats.reason), proof
            if literal_stats.insert_ops:  # the checks before the fold passed
                # qqv_fast accepts against a commitment iff its fold is that group element
                assert qqv_fast(proof, literal_verifier_fold(proof, sigma), q.n, sigma).accepted, proof


def assert_the_cheaper_side_is_folded(sigma, stop):
    """`commit_prefix` makes the calls of the cheaper of the prefix's two zero folds from the memo as it
    stands, the prefix roots' on a tie, and leaves the memo that side's folds leave."""
    memo = dict(commitment._ZERO_FOLDS.get(sigma, {}))
    sides = []
    prefix, ancestors, suffix = split_at(stop, sigma)
    for roots, path in ((prefix, 0), ([1, *suffix], len(ancestors))):
        commitment._ZERO_FOLDS[sigma] = dict(memo)
        sides.append((calls_of(commit_zero_subtrees, sigma, roots) + path, commitment._ZERO_FOLDS[sigma]))
    commitment._ZERO_FOLDS[sigma] = dict(memo)
    calls = calls_of(commit_prefix, sigma, stop, ())
    assert (calls, commitment._ZERO_FOLDS[sigma]) == min(sides, key=lambda side: side[0]), stop


@pytest.mark.parametrize("sigma", [8, 64, 128, 512])
def test_a_prefix_folds_the_side_that_hashes_less_with_the_memo_as_it_stands(sigma, cold_zero_folds):
    rng = random.Random(sigma)
    for stop in rng.sample(range(1, 2 * sigma), min(200, 2 * sigma - 1)):
        if rng.random() < 0.5:  # about half the stops from an empty memo
            commitment._ZERO_FOLDS.pop(sigma, None)
        assert_the_cheaper_side_is_folded(sigma, stop)
    # every memoized root but 1 and 3: folding Z(1) also memoizes Z(3), which a stop in subtree 2 then finds
    commit_zero_subtrees(sigma, [1] + list(range(4, sigma // commitment._SHORT)))
    warm_memo = commitment._ZERO_FOLDS.pop(sigma)
    for stop in range(1, 2 * sigma):
        commitment._ZERO_FOLDS[sigma] = {root: z for root, z in warm_memo.items() if root not in (1, 3)}
        assert_the_cheaper_side_is_folded(sigma, stop)


@pytest.mark.parametrize("root", [0, -1, 2048, 2**70])
def test_a_root_outside_the_tree_is_refused(root):
    q = seeded_digest(0, 1024)
    for call in (lambda: subtree_commitment(q, root), lambda: commit_subtree(1024, root, ())):
        with pytest.raises(ValueError, match=r"out of range \[1, 2047\]"):
            call()


def calls_of(fn, *args):
    before = sha256_calls()
    fn(*args)
    return sha256_calls() - before


# at most the nodes of subtrees up to 128 leaves beside the query path
SUFFIX_CALLS = 4 * commitment._SHORT


def warm(sigma):
    """Fold every zero subtree `_zero_fold` memoizes at sigma: each root with more than `_SHORT` leaves."""
    for root in range(1, sigma // commitment._SHORT):
        commit_subtree(sigma, root, ())


def wide_digest(sigma):
    rng = random.Random(sigma)
    freqs = {v: rng.randint(1, 50) for v in rng.sample(range(1, sigma + 1), 2000)}
    return build_from_frequencies(freqs, 64, sigma)


@pytest.mark.parametrize("sigma", [2**12, 2**16])
def test_warm_costs_depend_on_the_buckets_not_on_sigma(sigma):
    q = wide_digest(sigma)
    warm(sigma)
    assert calls_of(commit_digest, q) == 2 * q.size
    left = sum(1 for node in q.buckets() if subtree_test(2, sigma)(node))
    assert calls_of(subtree_commitment, q, 2) == 2 * left
    assert calls_of(publish_kvc_auth, q) == 2 * q.size  # subtree 2's buckets are hashed once, not twice
    c = commit_digest(q)
    for i in range(65):
        assert calls_of(aqq, q, Fraction(i, 64)) <= 2 * q.size + SUFFIX_CALLS
        proof = aqq(q, Fraction(i, 64))
        before = sha256_calls()
        stats = qqv_fast(proof, c, q.n, sigma)
        assert stats.accepted
        assert stats.insert_ops == sha256_calls() - before <= 2 * len(proof.counted) + SUFFIX_CALLS
    assert len(commitment._ZERO_FOLDS[sigma]) <= 2 * sigma // 64


def test_the_shipped_zero_roots_are_the_literal_zero_folds():
    """Each tree is the top of the next, so one pass up the largest tree, a level at a time, gives
    every sigma's Z(2) and Z(3) through the literal fold, with neither the table nor `_zero_fold`."""
    z2 = z3 = Commitment(0)
    folds = {}
    for depth in range(1, COMMIT_MAX_SIGMA.bit_length()):
        first, middle, end = 1 << depth, 3 << (depth - 1), 2 << depth  # subtree 2's nodes, then 3's
        z2 = combine(z2, hashlib_fold([range(first, middle)], {}))
        z3 = combine(z3, hashlib_fold([range(middle, end)], {}))
        folds[1 << depth] = (z2.acc, z3.acc)
    assert list(commitment._ZERO_ROOTS) == [1 << depth for depth in range(11, COMMIT_MAX_SIGMA.bit_length())]
    assert commitment._ZERO_ROOTS == {sigma: folds[sigma] for sigma in commitment._ZERO_ROOTS}


def test_bench_reports_the_counted_prover_calls():
    rows = run_bench([1024], [4], [Fraction(0), Fraction(1, 2), Fraction(1)], seed=0)
    assert all(0 <= row.prover_sha256_calls <= 2 * row.digest_size + SUFFIX_CALLS for row in rows)
    assert len({row.prover_sha256_calls for row in rows}) > 1


@pytest.mark.parametrize("sigma", [2**12, 2**16])
def test_bench_reports_the_counted_fast_verifier_calls(sigma, cold_zero_folds):
    rows = run_bench([sigma], [64], [Fraction(0), Fraction(1, 2), Fraction(1)], seed=0)  # proves twice: warm
    assert all(row.accepted and row.fast_verifier_sha256_calls <= 2 * row.digest_size + SUFFIX_CALLS for row in rows)
    assert all(row.prover_sha256_calls <= 2 * row.digest_size + SUFFIX_CALLS for row in rows)
    assert format_bench_table(rows).split()[6] == "fst_sha"


@pytest.mark.parametrize("sigma", [2 * COMMIT_MAX_SIGMA, 2**40, 2**63])
def test_a_sigma_above_the_commitment_limit_is_refused_before_any_hashing(sigma):
    q = QDigest(sigma, 4, {1: 5, sigma: 2})
    calls = [
        lambda: commit_digest(q),
        lambda: publish_kvc_auth(q),
        lambda: subtree_commitment(q, 2),
        lambda: commit_subtree(sigma, 3, ()),
        lambda: commit_prefix(sigma, 3, ()),
        lambda: aqq(q, Fraction(1, 2)),
        # a proof that passes every check before the fold
        lambda: qqv_fast(QuantileProof(Fraction(1, 7), 7, 1, ((sigma, 2),), Commitment(0)), Commitment(0), 7, sigma),
    ]
    for call in calls:
        before = sha256_calls()
        with pytest.raises(ValueError, match=f"sigma {sigma} exceeds the commitment limit {COMMIT_MAX_SIGMA}"):
            call()
        assert sha256_calls() == before


@pytest.mark.parametrize("sigma", [2**16, COMMIT_MAX_SIGMA])
def test_a_cold_commitment_at_a_shipped_sigma_folds_only_the_buckets_and_the_root(sigma, cold_zero_folds):
    q = wide_digest(sigma)
    assert calls_of(commit_digest, q) == 2 * q.size + 1  # Z(1) = Z(2) + Z(3) + H(1, 0)
    assert commitment._ZERO_FOLDS[sigma].keys() == {1, 2, 3}


@pytest.mark.parametrize("sigma", [2**16, COMMIT_MAX_SIGMA])
def test_a_cold_proof_stopping_on_a_right_spine_folds_only_the_buckets_and_the_path(sigma, cold_zero_folds):
    """A stop on the right spine of the tree or of subtree 2 has no suffix root but node 3: its prefix's
    zero fold is Z(1) less H(a, 0) per ancestor a, from the shipped Z(2) and Z(3), not 65k-1M zero nodes."""
    wide = wide_digest(sigma).post_order_buckets()
    depth = level(sigma)
    spines = [(2 << d) - 1 for d in range(depth + 1)] + [(3 << d) - 1 for d in range(depth)]
    for stop in spines:
        rank = post_order_rank(stop, sigma)
        buckets = {node: cnt for node, cnt in wide if node != stop}
        buckets[stop] = 1
        q = QDigest(sigma, 64, buckets)
        frac = Fraction(sum(cnt for node, cnt in buckets.items() if post_order_rank(node, sigma) <= rank), q.n)
        c = commit_digest(q)
        commitment._ZERO_FOLDS.clear()
        before = sha256_calls()
        proof = aqq(q, frac)
        assert proof.counted[-1][0] == stop
        assert sha256_calls() - before <= 2 * q.size + depth + 1, stop
        commitment._ZERO_FOLDS.clear()
        stats = qqv_fast(proof, c, q.n, sigma)
        assert stats.accepted and stats.insert_ops <= 2 * len(proof.counted) + depth + 1, stop


def test_the_sha256_counter_sees_every_hashlib_call(monkeypatch, cold_zero_folds):
    """`sha256_calls` agrees with a counter around `hashlib.sha256`, `hashlib.new` and the fold's `commitment._sha256`.

    Such a counter sees no `.copy()` of a hasher, so a fold that copied one
    would make fewer visible calls than it hashes, and this test would fail.
    """
    seen = 0

    def counted(constructor):
        def counting(*args, **kwargs):
            nonlocal seen
            seen += 1
            return constructor(*args, **kwargs)
        return counting

    for module, name in ((hashlib, "sha256"), (hashlib, "new"), (commitment, "_sha256")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    sigma = 2**10
    q = seeded_digest(0, sigma)
    c, precomputed = commit_digest(q), subtree_commitment(q, 2)
    calls = [lambda: commit_digest(q), lambda: subtree_commitment(q, 2)]
    for frac in (Fraction(1, 4), Fraction(3, 4), Fraction(1)):
        proof = aqq(q, frac)
        calls += [
            lambda frac=frac: aqq(q, frac),
            lambda proof=proof: qqv(proof, c, q.n, sigma),
            lambda proof=proof: qqv_accelerated(proof, c, {2: precomputed}, q.n, sigma),
            lambda proof=proof: qqv_fast(proof, c, q.n, sigma),
        ]
    commitment._ZERO_FOLDS.clear()  # the first call folds every zero subtree again
    counts = []
    for call in calls:
        seen_before, counted_before = seen, sha256_calls()
        call()
        assert seen - seen_before == sha256_calls() - counted_before
        counts.append(seen - seen_before)
    # aqq may hash nothing once the memo is warm, the verifiers always hash
    assert counts[0] >= 2 * sigma - 1 and all(counts[3::4] + counts[4::4] + counts[5::4])


@pytest.mark.parametrize("sigma", [8, 128])
def test_the_accelerated_verifier_reports_every_call_it_makes(sigma, cold_zero_folds):
    """Z(2) is memoized at every sigma: once the source has published, the
    cross-check's zero fold is free.  A verifier that has not published
    folds Z(2) on its first call, and `insert_ops` counts that fold too."""
    q = QDigest(8, 5, {1: 1, 6: 2, 7: 2, 10: 4, 11: 6}) if sigma == 8 else seeded_digest(0, sigma)
    auth = publish_kvc_auth(q)
    c, precomputed = auth.commitment, auth.subtrees
    proof = aqq(q, Fraction(1))
    literal = qqv(proof, c, q.n, sigma).insert_ops
    commitment._ZERO_FOLDS.clear()  # as in a fresh verifying process
    reported = []
    for _ in range(3):
        before = sha256_calls()
        stats = qqv_accelerated(proof, c, precomputed, q.n, sigma)
        assert stats.accepted
        assert sha256_calls() - before == stats.insert_ops
        reported.append(stats.insert_ops)
    assert reported[0] == reported[1] + subtree_size(2, sigma)
    assert reported[1] == reported[2] < literal
    if sigma == 8:
        assert reported[:2] == [19, 12]


def shifted(proof, src, dst):
    """`proof` with one unit of count moved from node src to node dst: the prefix still sums to n."""
    counted = dict(proof.counted)
    counted[src] -= 1
    counted[dst] += 1
    return replace(proof, counted=tuple(counted.items()))


@pytest.mark.parametrize("sigma", [8, 2**10])
@pytest.mark.parametrize("memo", ["warm", "cold"])
def test_a_tamper_inside_the_skipped_subtree_is_rejected_before_the_fold(sigma, memo, cold_zero_folds):
    """At q = 1 the stop lies past subtree 2.  A count inside it raised by one
    taken from its last claim, or its first claim dropped onto the stop,
    fails the cross-check: two calls per claim inside, plus the fold of Z(2)
    when it is not memoized, and no fold to the stop.  The same shift
    between two claims outside it still pays the whole fold."""
    q = QDigest(8, 5, {1: 1, 6: 2, 7: 2, 10: 4, 11: 6}) if sigma == 8 else seeded_digest(0, sigma)
    auth = publish_kvc_auth(q)  # memoizes Z(2)
    c, precomputed = auth.commitment, auth.subtrees
    proof = aqq(q, Fraction(1))
    counted = dict(proof.counted)
    in_2 = subtree_test(2, sigma)
    inside = [node for node in counted if in_2(node)]
    outside = [node for node in counted if not in_2(node)]
    stop, first = proof.counted[-1][0], inside[0]
    dropped = {node: cnt for node, cnt in counted.items() if node != first} | {stop: counted[stop] + counted[first]}
    cold = subtree_size(2, sigma) if memo == "cold" else 0

    def run(bad):
        if memo == "cold":
            commitment._ZERO_FOLDS.clear()
        before = sha256_calls()
        stats = qqv_accelerated(bad, c, precomputed, q.n, sigma)
        assert stats.insert_ops == sha256_calls() - before
        literal = qqv(bad, c, q.n, sigma)
        assert (stats.accepted, stats.reason) == (literal.accepted, literal.reason)
        return stats

    raised = run(shifted(proof, inside[-1], first))
    assert (raised.reason, raised.insert_ops) == ("commitment-mismatch", 2 * len(inside) + cold)
    omitted = run(replace(proof, counted=tuple(dropped.items())))
    assert (omitted.reason, omitted.insert_ops) == ("commitment-mismatch", 2 * (len(inside) - 1) + cold)
    honest = run(proof)
    assert honest.accepted and honest.insert_ops > raised.insert_ops
    elsewhere = run(shifted(proof, outside[1], outside[0]))
    assert (elsewhere.reason, elsewhere.insert_ops) == ("commitment-mismatch", honest.insert_ops)
    if sigma == 8:
        assert [raised.insert_ops, omitted.insert_ops, honest.insert_ops] == ([4, 2, 12] if memo == "warm" else [11, 9, 19])


def test_the_verifiers_agree_when_their_folds_are_split(monkeypatch):
    """At sigma 2**14 the literal folds reach 2**15 - 1 nodes; split or not, every verdict, reason and count is the same."""
    sigma = 2**14
    q = seeded_digest(0, sigma)
    auth = publish_kvc_auth(q)
    c, precomputed = auth.commitment, auth.subtrees
    proofs = list(verifier_cases(q, random.Random(0)))

    def verdicts():
        return [(qqv(proof, c, q.n, sigma), qqv_fast(proof, c, q.n, sigma),
                 qqv_accelerated(proof, c, precomputed, q.n, sigma)) for proof in proofs]

    split = verdicts()
    for (literal, fast, accelerated), proof in zip(split, proofs):
        assert (fast.accepted, fast.reason) == (literal.accepted, literal.reason), proof
        assert (accelerated.accepted, accelerated.reason) == (literal.accepted, literal.reason), proof
    assert max(literal.insert_ops for literal, _, _ in split) >= SPLIT
    if CAN_SPLIT and threading.active_count() == 1:
        assert helper_pid() is not None
    monkeypatch.setattr(commitment, "_SPLIT_NODES", 2 * sigma)  # every fold in this process
    assert verdicts() == split


# Every node of the tree at sigma 2**14, 2**15 - 1 of them, as one range per level, two of them counted.
TREE, COUNTED = subtree_ranges(1, 2**14), {5: 3, 2**14 + 7: 2**128 - 1}
TREE_FOLD = hashlib_fold(TREE, COUNTED)


def assert_the_tree_folds():
    before = sha256_calls()
    assert fold_ranges(TREE, COUNTED) == TREE_FOLD
    assert sha256_calls() - before == 2**15 - 1


@needs_helper
def test_a_killed_helper_leaves_the_fold_to_this_process():
    assert_the_tree_folds()
    pid = helper_pid()
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, and not yet reaped
    assert_the_tree_folds()
    assert helper_pid() is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # the dead helper was reaped
    assert_the_tree_folds()
    assert helper_pid() not in (None, pid)  # the next large fold forked a new one


@needs_helper
def test_a_helper_that_fails_mid_fold_leaves_the_fold_to_this_process(monkeypatch):
    commitment._stop_helper()
    owner, fold_part = os.getpid(), commitment._fold_part

    def failing_in_the_helper(ranges, values):
        if os.getpid() != owner:
            raise RuntimeError("the helper fails")
        return fold_part(ranges, values)

    monkeypatch.setattr(commitment, "_fold_part", failing_in_the_helper)
    assert_the_tree_folds()  # forks a helper that fails on its half
    assert helper_pid() is None


@needs_helper
def test_an_error_in_the_callers_half_reaps_the_helper_and_propagates(monkeypatch):
    assert_the_tree_folds()
    pid, owner, fold_part = helper_pid(), os.getpid(), commitment._fold_part
    failures = [RuntimeError("the caller's half fails")]

    def failing_here_once(ranges, values):
        if os.getpid() == owner and failures:
            raise failures.pop()
        return fold_part(ranges, values)

    monkeypatch.setattr(commitment, "_fold_part", failing_here_once)
    with pytest.raises(RuntimeError, match="the caller's half fails"):
        fold_ranges(TREE, COUNTED)
    assert helper_pid() is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # the helper was reaped
    assert_the_tree_folds()
    assert helper_pid() not in (None, pid)  # the next large fold forked a new one


@needs_helper
def test_a_failed_fork_leaves_the_fold_to_this_process_and_closes_the_pipes(monkeypatch):
    commitment._stop_helper()
    pipe, fds = os.pipe, []
    monkeypatch.setattr(os, "pipe", lambda: fds.extend(pipe()) or tuple(fds[-2:]))
    monkeypatch.setattr(os, "fork", Mock(side_effect=OSError("no fork")))
    assert_the_tree_folds()
    assert commitment._helper is None and len(fds) == 4
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)  # closed


@needs_helper
def test_a_fold_stays_in_this_process_while_a_second_thread_runs():
    commitment._stop_helper()
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        assert_the_tree_folds()
        assert commitment._helper is None  # no helper was forked
    finally:
        release.set()
        waiting.join(60)
    assert not waiting.is_alive()


@needs_helper
def test_a_forked_child_folds_without_its_parents_helper():
    assert_the_tree_folds()
    helper = commitment._helper
    child = os.fork()
    if child == 0:
        status = 1
        try:
            assert_the_tree_folds()
            # the child's copies of the pipes are closed, and it forked no helper of its own
            assert commitment._helper[:2] == helper[:2] and all(pipe.closed for pipe in commitment._helper[2:])
            status = 0
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while not (done := os.waitpid(child, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.01)
    if not done[0]:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    assert done == (child, 0)
    assert commitment._helper is helper and not any(pipe.closed for pipe in helper[2:])
    assert_the_tree_folds()
    assert commitment._helper is helper


def test_verifiers_in_two_threads_each_count_only_their_own_calls():
    """Two threads verifying one proof at once each report the single-thread verdicts and `insert_ops`:
    `sha256_calls` counts per thread.  With a second thread running, every fold stays in-process."""
    sigma = 2**12
    q = wide_digest(sigma)
    auth = publish_kvc_auth(q)
    c, precomputed = auth.commitment, auth.subtrees
    proof = aqq(q, Fraction(3, 4))
    verifiers = [lambda: qqv(proof, c, q.n, sigma), lambda: qqv_fast(proof, c, q.n, sigma),
                 lambda: qqv_accelerated(proof, c, precomputed, q.n, sigma)]
    alone = [verify() for verify in verifiers * 2][len(verifiers):]  # the second round: every zero fold memoized
    assert all(stats.accepted for stats in alone) and alone[0].insert_ops >= SPLIT // 2
    start = threading.Barrier(2)
    reported = [[], []]

    def verify_repeatedly(out):
        start.wait()
        for _ in range(20):
            out.extend(verify() for verify in verifiers)

    threads = [threading.Thread(target=verify_repeatedly, args=(out,)) for out in reported]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert reported == [alone * 20] * 2
