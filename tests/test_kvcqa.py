import hashlib
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from qdigest_auth.commitment import (
    COMMIT_MAX_SIGMA,
    combine,
    commit_digest,
    fold_ranges,
    initialize,
    insert,
    inverse,
    sha256_calls,
    subtree_commitment,
    subtree_commitments,
)
from qdigest_auth.digest import QDigest, build_from_frequencies, counted_prefix, quantile_query, range_top
from qdigest_auth.kvcqa import (
    KvcAuthInfo,
    QuantileProof,
    aqq,
    publish_kvc_auth,
    malicious_aqq_omit_left,
    proof_from_text,
    proof_to_text,
    qqv,
    qqv_accelerated,
    qqv_fast,
)
from qdigest_auth.serialize import read_text, write_text
from qdigest_auth.tree import post_order_rank, prefix_ranges

from helpers import grid, random_digest


@pytest.fixture
def e2(example2_digest):
    return example2_digest, commit_digest(example2_digest), example2_digest.n


class TestAqq:
    def test_worked_example(self, e2):
        q, _, _ = e2
        proof = aqq(q, Fraction(1, 2))
        assert proof.answer == 4
        assert proof.counted == ((10, 4), (11, 6))
        assert proof.n == 15 and proof.q == Fraction(1, 2)

    def test_q_zero_counts_only_first_bucket(self, e2):
        q, _, _ = e2
        proof = aqq(q, 0)
        assert proof.counted == ((10, 4),)
        # responder folds every other bucket into the remainder
        assert len(q.buckets()) - len(proof.counted) == 4

    def test_q_one_remainder_is_identity(self, e2):
        q, _, _ = e2
        proof = aqq(q, 1)
        assert len(proof.counted) == q.size
        assert proof.remainder == initialize()

    def test_empty_digest_refused(self):
        with pytest.raises(ValueError):
            aqq(QDigest(8, 4), Fraction(1, 2))

    def test_answers_match_plain_queries(self):
        rng = random.Random(31)
        for _ in range(20):
            q = random_digest(rng, sigma=rng.choice([8, 16, 32]), k=rng.randint(1, 8))
            if q.n == 0:
                continue
            for frac in grid(11):
                assert aqq(q, frac).answer == quantile_query(q, frac)


class TestQqv:
    def test_worked_example_verification(self, e2):
        q, c, n = e2
        proof = aqq(q, Fraction(1, 2))
        target = Fraction(1, 2) * n
        counted_sum = sum(cnt for _, cnt in proof.counted)
        assert counted_sum == 10 and counted_sum >= target
        assert counted_sum - proof.counted[-1][1] == 4 < target
        stats = qqv(proof, c, n, 8)
        assert stats.accepted and stats.reason == "ok"
        # the verifier inserts exactly the 5 nodes {8, 9, 4, 10, 11}
        assert stats.insert_ops == 5

    def test_completeness_on_grid(self, e2):
        q, c, n = e2
        for frac in grid():
            stats = qqv(aqq(q, frac), c, n, 8)
            assert stats.accepted, frac

    def test_missing_last_bucket_is_count_too_low(self, e2):
        q, c, n = e2
        proof = aqq(q, Fraction(1, 2))
        short = QuantileProof(proof.q, proof.n, 3, proof.counted[:-1], proof.remainder)
        stats = qqv(short, c, n, 8)
        assert not stats.accepted and stats.reason == "count-too-low"

    def test_later_stop_than_necessary_is_overshoot(self, e2):
        q, c, n = e2
        longer = aqq(q, Fraction(3, 4))
        fake = QuantileProof(Fraction(1, 2), n, longer.answer, longer.counted, longer.remainder)
        stats = qqv(fake, c, n, 8)
        assert not stats.accepted and stats.reason == "prefix-overshoot"

    def test_tampered_count_rejected(self, e2):
        q, c, n = e2
        proof = aqq(q, Fraction(1, 2))
        for pos in range(len(proof.counted)):
            for delta in (1, -1):
                counted = list(proof.counted)
                node, cnt = counted[pos]
                if cnt + delta < 1:
                    continue
                counted[pos] = (node, cnt + delta)
                bad = QuantileProof(proof.q, proof.n, proof.answer, tuple(counted), proof.remainder)
                assert not qqv(bad, c, n, 8).accepted, (pos, delta)

    def test_wrong_answer_field_is_malformed(self, e2):
        q, c, n = e2
        proof = aqq(q, Fraction(1, 2))
        bad = QuantileProof(proof.q, proof.n, proof.answer + 1, proof.counted, proof.remainder)
        stats = qqv(bad, c, n, 8)
        assert not stats.accepted and stats.reason == "malformed"

    def test_non_monotone_prefix_is_malformed(self, e2):
        q, c, n = e2
        proof = aqq(q, Fraction(1, 2))
        bad = QuantileProof(proof.q, proof.n, 3, tuple(reversed(proof.counted)), proof.remainder)
        stats = qqv(bad, c, n, 8)
        assert not stats.accepted and stats.reason == "malformed"

    def test_unknown_index_is_malformed(self, e2):
        q, c, n = e2
        proof = aqq(q, Fraction(1, 2))
        bad = QuantileProof(proof.q, proof.n, proof.answer, ((99, 1),) + proof.counted[1:], proof.remainder)
        assert qqv(bad, c, n, 8).reason == "malformed"

    def test_claimed_n_must_match_trusted_n(self, e2):
        q, c, n = e2
        proof = aqq(q, Fraction(1, 2))
        bad = QuantileProof(proof.q, n + 1, proof.answer, proof.counted, proof.remainder)
        assert qqv(bad, c, n, 8).reason == "malformed"

    def test_insert_ops_bounded_by_tree_size(self, e2):
        q, c, n = e2
        for frac in grid(21):
            stats = qqv(aqq(q, frac), c, n, 8)
            assert stats.insert_ops <= 2 * 8 - 1

    def test_q_zero_cost_asymmetry(self, e2):
        # responder commits every bucket but the first; the verifier counts
        # a single bucket (plus the empty nodes preceding it)
        q, c, n = e2
        proof = aqq(q, 0)
        responder_bucket_insertions = q.size - len(proof.counted)
        assert responder_bucket_insertions == q.size - 1
        assert len(proof.counted) == 1
        stats = qqv(proof, c, n, 8)
        assert stats.accepted
        assert stats.insert_ops == post_order_rank(proof.counted[0][0], 8)

    def test_completeness_on_random_digests_full_grid(self):
        rng = random.Random(53)
        for _ in range(10):
            q = random_digest(rng, sigma=rng.choice([8, 16]), k=rng.randint(1, 6))
            if q.n == 0:
                continue
            c = commit_digest(q)
            for frac in grid():
                assert qqv(aqq(q, frac), c, q.n, q.sigma).accepted

    def test_single_node_domain_round_trip(self):
        q = QDigest(1, 2, {1: 7})
        c = commit_digest(q)
        for frac in (Fraction(0), Fraction(1, 2), Fraction(1)):
            proof = aqq(q, frac)
            assert proof.answer == 1
            stats = qqv(proof, c, q.n, 1)
            assert stats.accepted and stats.insert_ops == 1

    def test_coarse_digest_proofs_verify_with_scaled_answers(self, s1):
        from qdigest_auth.digest import coarsen, quantile_query

        coarse = coarsen(s1, 4, 8, 1)
        c = commit_digest(coarse)
        for frac in grid(11):
            proof = aqq(coarse, frac)
            assert proof.answer == quantile_query(coarse, frac)
            assert proof.answer % 2 == 0
            stats = qqv(proof, c, coarse.n, coarse.sigma, coarse.leaf_width)
            assert stats.accepted
        # the verifier rejects an unscaled answer
        proof = aqq(coarse, Fraction(1, 2))
        bad = QuantileProof(proof.q, proof.n, proof.answer // 2, proof.counted, proof.remainder)
        assert qqv(bad, c, coarse.n, coarse.sigma, coarse.leaf_width).reason == "malformed"


class TestOmitLeftAttack:
    def test_worked_attack(self, e2):
        q, c, n = e2
        mal = malicious_aqq_omit_left(q, Fraction(1, 2), {10})
        assert mal.answer == 6
        assert mal.counted[-1] == (6, 2)
        stats = qqv(mal, c, n, 8)
        assert not stats.accepted and stats.reason == "commitment-mismatch"

    def test_empty_omission_is_honest(self, e2):
        q, _, _ = e2
        assert malicious_aqq_omit_left(q, Fraction(1, 2), set()) == aqq(q, Fraction(1, 2))

    def test_omitting_after_stop_is_refused(self, e2):
        q, _, _ = e2
        with pytest.raises(ValueError):
            malicious_aqq_omit_left(q, Fraction(1, 2), {7})

    def test_all_nonempty_subsets_rejected_on_example(self, e2):
        q, c, n = e2
        # accumulation at q = 3/4 stops on bucket 6, so 10 and 11 precede it
        before = [10, 11]
        for mask in range(1, 2 ** len(before)):
            omit = {before[i] for i in range(len(before)) if mask >> i & 1}
            mal = malicious_aqq_omit_left(q, Fraction(3, 4), omit)
            assert not qqv(mal, c, n, 8).accepted, omit


class TestAccelerated:
    def test_fallback_when_stop_inside_precomputed_subtree(self, e2):
        q, c, n = e2
        pre = {2: subtree_commitment(q, 2)}
        proof = aqq(q, Fraction(1, 2))  # stop bucket 11 lies inside subtree 2
        assert qqv_accelerated(proof, c, pre, n, 8) == qqv(proof, c, n, 8)

    def test_right_subtree_stop_uses_left_commitment(self, e2):
        q, c, n = e2
        pre = {2: subtree_commitment(q, 2)}
        proof = aqq(q, 1)  # stop bucket is the root
        plain = qqv(proof, c, n, 8)
        accel = qqv_accelerated(proof, c, pre, n, 8)
        assert accel.accepted == plain.accepted
        assert accel.insert_ops < plain.insert_ops

    def test_inconsistent_precomputed_commitment_rejected(self, e2):
        q, c, n = e2
        pre = {2: insert(subtree_commitment(q, 2), 8, 1)}
        proof = aqq(q, 1)
        stats = qqv_accelerated(proof, c, pre, n, 8)
        assert not stats.accepted and stats.reason == "commitment-mismatch"

    def test_tamper_inside_skipped_subtree_still_rejected(self, e2):
        q, c, n = e2
        pre = {2: subtree_commitment(q, 2)}
        proof = aqq(q, 1)
        counted = list(proof.counted)
        # bucket 10 sits inside the skipped left subtree
        pos = [i for i, (node, _) in enumerate(counted) if node == 10][0]
        counted[pos] = (10, 5)
        bad = QuantileProof(proof.q, proof.n, proof.answer, tuple(counted), proof.remainder)
        assert not qqv(bad, c, n, 8).accepted
        assert not qqv_accelerated(bad, c, pre, n, 8).accepted

    def test_omission_hidden_by_subtree_commitment_rejected(self, e2):
        # drop a counted bucket inside the skipped subtree without touching
        # the remainder: only the homomorphic cross-check can catch this
        q, c, n = e2
        pre = {2: subtree_commitment(q, 2)}
        proof = aqq(q, 1)
        counted = tuple((node, cnt) for node, cnt in proof.counted if node != 10)
        bad = QuantileProof(proof.q, proof.n, proof.answer, counted, proof.remainder)
        stats = qqv_accelerated(bad, c, pre, n, 8)
        assert not stats.accepted

    def test_agreement_and_cost_on_random_instances(self):
        rng = random.Random(47)
        for _ in range(40):
            q = random_digest(rng, sigma=rng.choice([16, 32, 64]), k=rng.randint(1, 6))
            if q.n == 0:
                continue
            c = commit_digest(q)
            pre = {2: subtree_commitment(q, 2)}
            frac = Fraction(rng.randint(0, 10), 10)
            proof = aqq(q, frac)
            plain = qqv(proof, c, q.n, q.sigma)
            accel = qqv_accelerated(proof, c, pre, q.n, q.sigma)
            assert accel.accepted == plain.accepted
            assert accel.insert_ops <= plain.insert_ops


class TestProofFiles:
    def test_text_round_trip(self, e2):
        q, _, _ = e2
        proof = aqq(q, Fraction(1, 2))
        text = proof_to_text(proof)
        assert text.splitlines()[0] == "aqqproof v1 q=1/2 n=15 answer=4"
        assert proof_from_text(text) == proof

    def test_file_round_trip(self, tmp_path, e2):
        q, _, _ = e2
        proof = aqq(q, Fraction(2, 3))
        path = tmp_path / "proof.aqq"
        write_text(path, proof_to_text(proof))
        assert proof_from_text(read_text(path)) == proof

    @pytest.mark.parametrize(
        "text",
        [
            "not a proof\n",
            "aqqproof v1 q=1/2 n=15 answer=4\n",  # no remainder line
            "aqqproof v1 q=1/2 n=15 answer=4\nx:y\nremainder=kvc1:" + "0" * 64 + "\n",
            "aqqproof v1 q=0.5 n=15 answer=4\nremainder=kvc1:" + "0" * 64 + "\n",
            "aqqproof v1 q=1/2 n=1_5 answer=4\n10:4\nremainder=kvc1:" + "0" * 64 + "\n",
            "aqqproof v1 q=1/2 n=15 answer=4\n04:3\nremainder=kvc1:" + "0" * 64 + "\n",
            "aqqproof v1 q=2/4 n=15 answer=4\n10:4\nremainder=kvc1:" + "0" * 64 + "\n",
            "aqqproof v1 q=1/2 n=15 answer=4\n10:4\nremainder=kvc1:" + "A" * 64 + "\n",
            "aqqproof v1 q=1/0 n=15 answer=4\n10:4\nremainder=kvc1:" + "0" * 64 + "\n",
        ],
    )
    def test_malformed_files_rejected(self, text):
        with pytest.raises(ValueError):
            proof_from_text(text)

    def test_a_count_past_the_int_digit_limit_is_refused_naming_its_line(self):
        line = "10:" + "1" * 4301  # int() reads at most 4,300 digits
        text = f"aqqproof v1 q=1/2 n=15 answer=4\n{line}\nremainder=kvc1:" + "0" * 64 + "\n"
        with pytest.raises(ValueError, match=re.escape(f"expected an index:count line, got {line!r}")):
            proof_from_text(text)


def _with_counts(proof, counts):
    counted = tuple((node, counts.get(node, cnt)) for node, cnt in proof.counted)
    return QuantileProof(proof.q, proof.n, proof.answer, counted, proof.remainder)


# (accepted, reason, insert_ops) of qqv and qqv_accelerated on the worked
# example with subtree 2 precommitted.  The altered counts at q=1 keep the
# prefix sum at n, so only the commitments can reject them: inside the
# skipped subtree through the homomorphic cross-check, which runs before the
# fold and costs two calls per claim inside (Z(2) is memoized), outside it
# through the fold.
GOLDEN_VERDICTS = [
    ("honest-0", lambda q: aqq(q, 0), (True, "ok", 4), (True, "ok", 4)),
    ("honest-1/2", lambda q: aqq(q, Fraction(1, 2)), (True, "ok", 5), (True, "ok", 5)),
    ("honest-1", lambda q: aqq(q, 1), (True, "ok", 15), (True, "ok", 12)),
    ("omit-left-1/2", lambda q: malicious_aqq_omit_left(q, Fraction(1, 2), {10}),
     (False, "commitment-mismatch", 10), (False, "commitment-mismatch", 2)),
    ("omit-left-3/4", lambda q: malicious_aqq_omit_left(q, Fraction(3, 4), {10, 11}),
     (False, "count-too-low", 0), (False, "count-too-low", 0)),
    ("altered-1/2", lambda q: _with_counts(aqq(q, Fraction(1, 2)), {11: 7}),
     (False, "commitment-mismatch", 5), (False, "commitment-mismatch", 5)),
    ("altered-inside-subtree", lambda q: _with_counts(aqq(q, 1), {10: 5, 11: 5}),
     (False, "commitment-mismatch", 15), (False, "commitment-mismatch", 4)),
    ("altered-outside-subtree", lambda q: _with_counts(aqq(q, 1), {6: 3, 7: 1}),
     (False, "commitment-mismatch", 15), (False, "commitment-mismatch", 12)),
]


@pytest.mark.parametrize(
    "make, plain, accelerated", [case[1:] for case in GOLDEN_VERDICTS], ids=[case[0] for case in GOLDEN_VERDICTS]
)
def test_golden_verdicts_on_the_worked_example(e2, make, plain, accelerated):
    q, c, n = e2
    proof = make(q)
    pre = {2: subtree_commitment(q, 2)}
    as_triple = lambda s: (s.accepted, s.reason, s.insert_ops)  # noqa: E731
    assert as_triple(qqv(proof, c, n, 8)) == plain
    assert as_triple(qqv_accelerated(proof, c, pre, n, 8)) == accelerated
    assert as_triple(qqv_fast(proof, c, n, 8))[:2] == plain[:2]


def test_golden_verdicts_with_a_tampered_precommitment(e2):
    q, c, n = e2
    pre = {2: insert(subtree_commitment(q, 2), 8, 1)}
    stats = qqv_accelerated(aqq(q, 1), c, pre, n, 8)
    # the claims 10 and 11 inside subtree 2 fail the cross-check before the fold
    assert (stats.accepted, stats.reason, stats.insert_ops) == (False, "commitment-mismatch", 4)
    # a stop inside the tampered subtree never reads its precommitment
    stats = qqv_accelerated(aqq(q, Fraction(1, 2)), c, pre, n, 8)
    assert (stats.accepted, stats.reason, stats.insert_ops) == (True, "ok", 5)


def test_a_remainder_solved_for_an_altered_prefix_passes_only_the_literal_verifiers(e2):
    # The claims 10:5 and 11:5 inside subtree 2 keep the prefix sum at n; the remainder
    # C - fold(claimed prefix up to the stop) makes the literal fold land on C.
    q, c, n = e2
    honest = aqq(q, 1)
    counted = _with_counts(honest, {10: 5, 11: 5}).counted
    fold = fold_ranges(prefix_ranges(counted[-1][0], 8), dict(counted))
    forged = QuantileProof(honest.q, n, honest.answer, counted, combine(c, inverse(fold)))
    as_triple = lambda s: (s.accepted, s.reason, s.insert_ops)  # noqa: E731
    assert as_triple(qqv(forged, c, n, 8)) == (True, "ok", 15)
    assert as_triple(qqv_fast(forged, c, n, 8)) == (True, "ok", 10)
    # the precommitment of subtree 2 still pins the claims inside it
    pre = {2: subtree_commitment(q, 2)}
    assert as_triple(qqv_accelerated(forged, c, pre, n, 8)) == (False, "commitment-mismatch", 4)


@pytest.mark.parametrize("frac", [Fraction(1, 2), Fraction(1)])
def test_oversized_stop_count_is_malformed(e2, frac):
    q, c, n = e2
    proof = aqq(q, frac)
    bad = _with_counts(proof, {proof.counted[-1][0]: 2**200})
    pre = {2: subtree_commitment(q, 2)}
    for stats in (qqv(bad, c, n, 8), qqv_accelerated(bad, c, pre, n, 8), qqv_fast(bad, c, n, 8)):
        assert (stats.accepted, stats.reason, stats.insert_ops) == (False, "malformed", 0)


# A sigma=8 digest whose q=3/4 stop lies past the precommitted subtree 2,
# so qqv_accelerated reads the precommitment.
HOSTILE_DIGEST = QDigest(8, 4, {1: 3, 2: 1, 5: 4, 7: 2, 8: 5})

# Proof objects no parser would build; each used to raise from a verifier.
HOSTILE_FIELDS = [
    ("counted-int", {"counted": 5}),
    ("counted-short-entry", {"counted": ((8,),)}),
    ("counted-str", {"counted": "ab"}),
    ("remainder-none", {"remainder": None}),
    ("remainder-int", {"remainder": 7}),
]


@pytest.mark.parametrize("fields", [case[1] for case in HOSTILE_FIELDS], ids=[case[0] for case in HOSTILE_FIELDS])
def test_hostile_proof_objects_are_malformed(fields):
    q = HOSTILE_DIGEST
    auth = publish_kvc_auth(q)
    c, pre = auth.commitment, auth.subtrees
    bad = replace(aqq(q, Fraction(3, 4)), **fields)
    for stats in (qqv(bad, c, q.n, 8), qqv_accelerated(bad, c, pre, q.n, 8), qqv_fast(bad, c, q.n, 8)):
        assert (stats.accepted, stats.reason, stats.insert_ops) == (False, "malformed", 0)


# Counted entries that break the prefix's shape; each must be a malformed reject.
SHAPE_BREAKS = [
    ("count-0", lambda q: _with_entry(aqq(q, Fraction(3, 4)), 1, (9, 0))),
    ("count-minus-1", lambda q: _with_entry(aqq(q, Fraction(3, 4)), 1, (9, -1))),
    ("stop-count-0", lambda q: _with_counts(aqq(q, Fraction(3, 4)), {7: 0})),
    # the honest q=1/3 proof ((8, 5),) replayed at q=1/2 with its entry repeated
    ("repeated-entry", lambda q: replace(aqq(q, Fraction(1, 3)), q=Fraction(1, 2), counted=((8, 5), (8, 5)))),
]


def _with_entry(proof, at, entry):
    return replace(proof, counted=(*proof.counted[:at], entry, *proof.counted[at:]))


@pytest.mark.parametrize("make", [case[1] for case in SHAPE_BREAKS], ids=[case[0] for case in SHAPE_BREAKS])
def test_counted_entries_that_break_the_shape_are_malformed(make):
    q = HOSTILE_DIGEST
    auth = publish_kvc_auth(q)
    c, pre = auth.commitment, auth.subtrees
    bad = make(q)
    for stats in (qqv(bad, c, q.n, 8), qqv_accelerated(bad, c, pre, q.n, 8), qqv_fast(bad, c, q.n, 8)):
        assert (stats.accepted, stats.reason, stats.insert_ops) == (False, "malformed", 0)


@pytest.mark.parametrize(
    "counts, fields",
    [
        ({1: 4}, {"counted": ((True, 4),)}),
        ({1: 1}, {"counted": ((1, True),)}),
        ({8: 1}, {"n": True}),
        ({8: 1}, {"answer": True}),
    ],
    ids=["bool-node", "bool-count", "bool-n", "bool-answer"],
)
def test_a_bool_for_an_int_is_malformed(counts, fields):
    """True == 1, so each bool stands where the honest proof has a 1; no proof file can carry a bool."""
    q = QDigest(8, 4, counts)
    auth = publish_kvc_auth(q)
    bad = replace(aqq(q, Fraction(1)), **fields)
    for stats in (
        qqv(bad, auth.commitment, q.n, 8),
        qqv_accelerated(bad, auth.commitment, auth.subtrees, q.n, 8),
        qqv_fast(bad, auth.commitment, q.n, 8),
    ):
        assert (stats.accepted, stats.reason, stats.insert_ops) == (False, "malformed", 0)


@pytest.mark.parametrize(
    "make_pre",
    [lambda pre: {0: pre[2]}, lambda pre: {99: pre[2]}, lambda pre: {2: 7}],
    ids=["root-0", "root-99", "value-int"],
)
def test_hostile_precommitments_are_malformed(make_pre):
    q = HOSTILE_DIGEST
    auth = publish_kvc_auth(q)
    c, pre = auth.commitment, auth.subtrees
    stats = qqv_accelerated(aqq(q, Fraction(3, 4)), c, make_pre(pre), q.n, 8)
    assert (stats.accepted, stats.reason, stats.insert_ops) == (False, "malformed", 0)


def test_a_counted_sum_above_n_is_malformed_before_any_fold():
    q = HOSTILE_DIGEST
    auth = publish_kvc_auth(q)
    c, pre = auth.commitment, auth.subtrees
    proof = aqq(q, Fraction(1, 2))
    (stop, cnt), total = proof.counted[-1], sum(cnt for _, cnt in proof.counted)
    bad = _with_counts(proof, {stop: cnt + 24 - total})  # the prefix sums to 24, n is 15
    before = sha256_calls()
    for stats in (qqv(bad, c, q.n, 8), qqv_accelerated(bad, c, pre, q.n, 8), qqv_fast(bad, c, q.n, 8)):
        assert (stats.accepted, stats.reason, stats.insert_ops) == (False, "malformed", 0)
    assert sha256_calls() == before


@pytest.mark.parametrize(
    "query",
    [quantile_query, aqq, lambda q, frac: malicious_aqq_omit_left(q, frac, set())],
    ids=["quantile_query", "aqq", "malicious_aqq_omit_left"],
)
def test_a_string_quantile_with_a_zero_denominator_is_a_value_error(e2, query):
    with pytest.raises(ValueError, match="zero denominator: '1/0'"):
        query(e2[0], "1/0")


# SHA-256s of the corpus below.  GOLDEN_QUERY_PATH takes everything but
# `qqv_fast`'s insert_ops, which GOLDEN_FAST_OPS takes apart: they hang on
# the side of the prefix `commitment.commit_prefix` folds, so on the memo,
# while no commitment, remainder, proof text or verdict does.
# `qqv_accelerated`'s insert_ops with a random precommitment include the
# zero fold of a skipped subtree that is not memoized (a root past 3 with at
# most 64 leaves); after a cross-check reject they count only the check's calls.
GOLDEN_QUERY_PATH = "8599c96d5ee202ed01fcad1893bca540ed0f7dce19a6579e4f7f151b54df7dc5"
GOLDEN_FAST_OPS = "23181f587a0cce02af6c3146bd67ecec5f3bda5394dbf18d04c5ac28760add95"


def test_seeded_query_path_corpus_is_unchanged(cold_zero_folds):
    """Pins every prefix node list, proof text and verdict over a seeded corpus.

    For each sigma up to 2**8 and every stop: the nodes of
    `prefix_ranges`, and with subtree 2 skipped where it ranks before the
    stop.  For each seed and each q in sixteenths: the text of honest,
    truncated, first-count-raised and omit-left proofs, and the
    (accepted, reason, insert_ops) of `qqv`, `qqv_fast` and
    `qqv_accelerated` with the source's precommitment and with four
    random ones, `qqv_fast`'s insert_ops in the second hash.  The memo
    starts empty, so the counts do not hang on the tests run before.
    """
    pinned, fast_ops = hashlib.sha256(), hashlib.sha256()
    for sigma in (2**e for e in range(9)):
        for stop in range(1, 2 * sigma):
            pinned.update(repr(sorted(node for r in prefix_ranges(stop, sigma) for node in r)).encode())
            if sigma > 1 and post_order_rank(2, sigma) < post_order_rank(stop, sigma):
                pinned.update(repr(sorted(node for r in prefix_ranges(stop, sigma, skip=2) for node in r)).encode())
    for seed in range(30):
        rng = random.Random(seed)
        sigma = 2 ** rng.randint(0, 8)
        freqs = {rng.randint(1, sigma): rng.randint(1, 9) for _ in range(rng.randint(1, 60))}
        d = build_from_frequencies(freqs, rng.randint(1, 64), sigma)
        auth = publish_kvc_auth(d)
        c, pre = auth.commitment, auth.subtrees
        many = subtree_commitments(d, rng.sample(range(1, 2 * sigma), min(4, 2 * sigma - 1)))
        for i in range(17):
            frac = Fraction(i, 16)
            honest = aqq(d, frac)
            counted = honest.counted
            proofs = [honest, replace(honest, counted=((counted[0][0], counted[0][1] + 1),) + counted[1:])]
            if len(counted) > 1:
                proofs.append(replace(honest, counted=counted[:-1], answer=range_top(counted[-2][0], sigma, 1)))
            before = [node for node, _ in counted_prefix(d.post_order_buckets(), frac * d.n)[:-1]]
            if before:
                proofs.append(malicious_aqq_omit_left(d, frac, rng.sample(before, rng.randint(1, len(before)))))
            for proof in proofs:
                pinned.update(proof_to_text(proof).encode())
                literal, fast, *accelerated = verdicts = (
                    qqv(proof, c, d.n, sigma), qqv_fast(proof, c, d.n, sigma),
                    qqv_accelerated(proof, c, pre, d.n, sigma), qqv_accelerated(proof, c, many, d.n, sigma))
                pinned.update(repr([(stats.accepted, stats.reason) for stats in verdicts]).encode())
                pinned.update(repr([stats.insert_ops for stats in (literal, *accelerated)]).encode())
                fast_ops.update(repr(fast.insert_ops).encode())
    assert (pinned.hexdigest(), fast_ops.hexdigest()) == (GOLDEN_QUERY_PATH, GOLDEN_FAST_OPS)


class TestKvcAuthFiles:
    def test_round_trip_precommits_subtree_2(self, e2):
        q, c, n = e2
        auth = publish_kvc_auth(q)
        assert auth == KvcAuthInfo(8, 5, 1, n, c, {2: subtree_commitment(q, 2)})
        assert KvcAuthInfo.parse(auth.encode()) == auth

    def test_single_node_domain_precommits_nothing(self):
        assert publish_kvc_auth(QDigest(1, 2, {1: 7})).subtrees == {}

    @pytest.mark.parametrize(
        "sigma, ok",
        [(COMMIT_MAX_SIGMA, True), (2 * COMMIT_MAX_SIGMA, False), (2**63, False), (2**63 + 1, False), (2**64, False)],
    )
    def test_sigma_limit(self, e2, sigma, ok):
        q, c, _ = e2
        text = KvcAuthInfo(8, 5, 1, q.n, c, {}).encode().replace("sigma=8", f"sigma={sigma}")
        if ok:
            assert KvcAuthInfo.parse(text).sigma == sigma
        else:
            with pytest.raises(ValueError, match=f"field sigma={sigma} is not a power of two in \\[1, {COMMIT_MAX_SIGMA}\\]"):
                KvcAuthInfo.parse(text)
