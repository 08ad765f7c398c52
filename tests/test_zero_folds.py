"""The source's and the prover's commitments through memoized zero folds.

`commit_digest`, `subtree_commitment`, `zero_subtree_commitment` and the
remainders of `aqq` and `malicious_aqq_omit_left` take Z, the public fold
of zero-valued insertions, and add H(b, c_b) - H(b, 0) per bucket; a
remainder also subtracts the zero fold of the post-order prefix up to its
stop.  They must equal the literal fold of one insertion per node.  The
root and subtrees of more than 64 leaves are memoized, so the domains
below reach sigma = 2**10.
Once the memo of a sigma is warm, the SHA-256 calls depend on the
buckets, not on sigma.
"""

import random
from fractions import Fraction
from itertools import accumulate, chain, islice

import pytest

from qdigest_auth import commitment
from qdigest_auth.bench import run_bench
from qdigest_auth.commitment import (
    Commitment,
    combine,
    commit_digest,
    commit_records,
    sha256_calls,
    subtree_commitment,
    zero_subtree_commitment,
)
from qdigest_auth.digest import build_from_frequencies, counted_prefix
from qdigest_auth.kvcqa import aqq, malicious_aqq_omit_left
from qdigest_auth.tree import is_in_subtree, post_order_nodes, post_order_rank

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
            assert zero_subtree_commitment(sigma, root) == commit_records((node, 0) for node in nodes), root
            assert Commitment(commitment._zero_prefix(sigma, root)) == prefix, root
    # the root and every subtree of more than 64 leaves are memoized, and no other
    assert len(commitment._ZERO_FOLDS[sigma]) == max(sigma // 64 - 1, 1)


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


@pytest.mark.parametrize("root", [0, -1, 2048, 2**70])
def test_a_root_outside_the_tree_is_refused(root):
    q = seeded_digest(0, 1024)
    for call in (lambda: subtree_commitment(q, root), lambda: zero_subtree_commitment(1024, root)):
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
    for i in range(65):
        assert calls_of(aqq, q, Fraction(i, 64)) <= 2 * q.size + SUFFIX_CALLS
    assert len(commitment._ZERO_FOLDS[sigma]) <= 2 * sigma // 64


def test_bench_reports_the_counted_prover_calls():
    rows = run_bench([1024], [4], [Fraction(0), Fraction(1, 2), Fraction(1)], seed=0)
    assert all(0 <= row.prover_sha256_calls <= 2 * row.digest_size + SUFFIX_CALLS for row in rows)
    assert len({row.prover_sha256_calls for row in rows}) > 1
