"""The source's, the prover's and the verifier's commitments through memoized zero folds.

`commit_digest`, `subtree_commitment`, `commit_subtrees` and the
remainders of `aqq` and `malicious_aqq_omit_left` take Z, the public fold
of zero-valued insertions, and add H(b, c_b) - H(b, 0) per bucket; a
remainder also subtracts the zero fold of the post-order prefix up to its
stop, and `qqv_fast` adds that prefix back.  They must equal the literal
fold of one insertion per node.  Nodes
1, 2 and 3 and subtrees of more than 64 leaves are memoized, so the
domains below reach sigma = 2**10.
Once the memo of a sigma is warm, the SHA-256 calls depend on the
buckets, not on sigma.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, chain, islice

import pytest

from qdigest_auth import commitment
from qdigest_auth.bench import format_bench_table, run_bench
from qdigest_auth.commitment import (
    COMMIT_MAX_SIGMA,
    GROUP_PRIME,
    Commitment,
    combine,
    commit_digest,
    commit_records,
    commit_subtrees,
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
    is_in_subtree,
    post_order_nodes,
    post_order_rank,
    prefix_ranges,
    prefix_roots,
    subtree_ranges,
    subtree_size,
)

from helpers import random_frequencies

QS = [Fraction(i, 8) for i in range(9)]


def literal(q, nodes):
    return commit_records((node, q.count(node)) for node in nodes)


def literal_remainder(q, stop, hidden=()):
    after = islice(post_order_nodes(q.sigma), post_order_rank(stop, q.sigma), None)
    return literal(q, chain(after, hidden))


def seeded_digest(seed, sigma):
    rng = random.Random(f"zero-folds:{seed}:{sigma}")
    return build_from_frequencies(random_frequencies(rng, sigma), rng.choice([4, 16, 64]), sigma)


@pytest.mark.parametrize("sigma", [1, 2, 8, 64, 128, 256, 1024])
def test_commitments_equal_the_literal_fold_at_every_root(sigma):
    for seed in range(2):
        q = seeded_digest(seed, sigma)
        assert commit_digest(q) == literal(q, post_order_nodes(sigma))
        # the literal zero fold of the post-order prefix up to each root, one node at a time
        prefixes = accumulate((commit_records([(node, 0)]) for node in post_order_nodes(sigma)), combine)
        for root, prefix in zip(post_order_nodes(sigma), prefixes):
            nodes = list(post_order_nodes(sigma, root))
            assert subtree_commitment(q, root) == literal(q, nodes), root
            assert commit_subtrees(sigma, [root], ()) == commit_records((node, 0) for node in nodes), root
            assert commit_subtrees(sigma, prefix_roots(root, sigma), ()) == prefix, root
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
    return combine(proof.remainder, commit_records((node, counted.get(node, 0)) for node in nodes))


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


@pytest.mark.parametrize("sigma", [1, 2, 8, 64, 128, 1024])
def test_fold_ranges_is_the_literal_fold_of_its_nodes(sigma):
    rng = random.Random(f"fold-ranges:{sigma}")
    for _ in range(25):
        stop, root = rng.randrange(1, 2 * sigma), rng.randrange(1, 2 * sigma)
        cases = [prefix_ranges(stop, sigma), subtree_ranges(root, sigma)]
        if post_order_rank(root, sigma) < post_order_rank(stop, sigma):
            cases.append(prefix_ranges(stop, sigma, skip=root))
        values = [0, 1, rng.randrange(2**128), 2**128 - 1]
        counted = {rng.randrange(1, 2 * sigma): rng.choice(values) for _ in range(rng.randrange(12))}
        for ranges in cases:
            nodes = [node for nodes in ranges for node in nodes]
            before = sha256_calls()
            fold = fold_ranges(ranges, counted)
            assert sha256_calls() - before == len(nodes)
            assert fold == commit_records((node, counted.get(node, 0)) for node in nodes), (stop, root, counted)


@pytest.mark.parametrize("root", [0, -1, 2048, 2**70])
def test_a_root_outside_the_tree_is_refused(root):
    q = seeded_digest(0, 1024)
    for call in (lambda: subtree_commitment(q, root), lambda: commit_subtrees(1024, [root], ())):
        with pytest.raises(ValueError, match=r"out of range \[1, 2047\]"):
            call()


def calls_of(fn, *args):
    before = sha256_calls()
    fn(*args)
    return sha256_calls() - before


# at most the nodes of subtrees up to 128 leaves beside the query path
SUFFIX_CALLS = 4 * commitment._SHORT


@pytest.mark.parametrize("sigma", [2**12, 2**16])
def test_warm_costs_depend_on_the_buckets_not_on_sigma(sigma):
    rng = random.Random(sigma)
    freqs = {v: rng.randint(1, 50) for v in rng.sample(range(1, sigma + 1), 2000)}
    q = build_from_frequencies(freqs, 64, sigma)
    commit_digest(q)  # warms the memo of this sigma
    assert calls_of(commit_digest, q) == 2 * q.size
    left = sum(1 for node in q.buckets() if is_in_subtree(node, 2, sigma))
    assert calls_of(subtree_commitment, q, 2) == 2 * left
    c = commit_digest(q)
    for i in range(65):
        assert calls_of(aqq, q, Fraction(i, 64)) <= 2 * q.size + SUFFIX_CALLS
        proof = aqq(q, Fraction(i, 64))
        before = sha256_calls()
        stats = qqv_fast(proof, c, q.n, sigma)
        assert stats.accepted
        assert stats.insert_ops == sha256_calls() - before <= 2 * len(proof.counted) + SUFFIX_CALLS
    assert len(commitment._ZERO_FOLDS[sigma]) <= 2 * sigma // 64


def test_bench_reports_the_counted_prover_calls():
    rows = run_bench([1024], [4], [Fraction(0), Fraction(1, 2), Fraction(1)], seed=0)
    assert all(0 <= row.prover_sha256_calls <= 2 * row.digest_size + SUFFIX_CALLS for row in rows)
    assert len({row.prover_sha256_calls for row in rows}) > 1


@pytest.mark.parametrize("sigma", [2**12, 2**16])
def test_bench_reports_the_counted_fast_verifier_calls(sigma):
    rows = run_bench([sigma], [64], [Fraction(0), Fraction(1, 2), Fraction(1)], seed=0)  # commits first: warm
    assert all(row.accepted and row.fast_verifier_sha256_calls <= 2 * row.digest_size + SUFFIX_CALLS for row in rows)
    assert format_bench_table(rows).split()[6] == "fst_sha"


@pytest.mark.parametrize("sigma", [2 * COMMIT_MAX_SIGMA, 2**40, 2**63])
def test_a_sigma_above_the_commitment_limit_is_refused_before_any_hashing(sigma):
    q = QDigest(sigma, 4, {1: 5, sigma: 2})
    calls = [
        lambda: commit_digest(q),
        lambda: publish_kvc_auth(q),
        lambda: subtree_commitment(q, 2),
        lambda: commit_subtrees(sigma, [3], ()),
        lambda: aqq(q, Fraction(1, 2)),
        # a proof that passes every check before the fold
        lambda: qqv_fast(QuantileProof(Fraction(1, 7), 7, 1, ((sigma, 2),), Commitment(0)), Commitment(0), 7, sigma),
    ]
    for call in calls:
        before = sha256_calls()
        with pytest.raises(ValueError, match=f"sigma {sigma} exceeds the commitment limit {COMMIT_MAX_SIGMA}"):
            call()
        assert sha256_calls() == before


@pytest.fixture
def cold_zero_folds():
    saved = dict(commitment._ZERO_FOLDS)
    commitment._ZERO_FOLDS.clear()
    yield
    commitment._ZERO_FOLDS.clear()
    commitment._ZERO_FOLDS.update(saved)


def test_the_sha256_counter_sees_every_hashlib_call(monkeypatch, cold_zero_folds):
    """`sha256_calls` agrees with a counter around `hashlib.sha256` and `hashlib.new`.

    Such a counter sees no `.copy()` of a hasher, so a fold that copied one
    would make fewer visible calls than it hashes, and this test would fail.
    """
    seen = 0
    sha256, new = hashlib.sha256, hashlib.new

    def counted_sha256(*args, **kwargs):
        nonlocal seen
        seen += 1
        return sha256(*args, **kwargs)

    def counted_new(*args, **kwargs):
        nonlocal seen
        seen += 1
        return new(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counted_sha256)
    monkeypatch.setattr(hashlib, "new", counted_new)
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
    inside = [node for node in counted if is_in_subtree(node, 2, sigma)]
    outside = [node for node in counted if not is_in_subtree(node, 2, sigma)]
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
