import contextlib
import hashlib
import importlib
import random
import re
import threading

import pytest
from hypothesis import given, settings, strategies as st

from qdigest_auth import commitment
from qdigest_auth.commitment import (
    GROUP_PRIME,
    Commitment,
    combine,
    commit_digest,
    commit_records,
    commit_subtree,
    fold_ranges,
    initialize,
    insert,
    inverse,
    member,
    sha256_calls,
    subtree_commitment,
    subtree_commitments,
)
from qdigest_auth.digest import QDigest
from qdigest_auth.tree import post_order_nodes, prefix_ranges, subtree_ranges

from helpers import CAN_SPLIT, SPLIT, hashlib_fold, helper_pid, random_digest

records_strategy = st.lists(
    st.tuples(st.integers(1, 10**6), st.integers(0, 10**9)), max_size=60
)


def test_initialize_is_identity():
    c = initialize()
    assert combine(c, c) == c
    other = insert(initialize(), 1, 5)
    assert combine(c, other) == other
    assert other != c


@given(records_strategy, st.randoms(use_true_random=False))
def test_permutation_invariance(records, rng):
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert commit_records(records) == commit_records(shuffled)


@given(records_strategy, records_strategy)
def test_combine_is_multiset_union(a, b):
    assert combine(commit_records(a), commit_records(b)) == commit_records(a + b)


@given(st.integers(1, 10**6), st.integers(0, 10**9))
def test_multiplicity_sensitivity(key, value):
    once = insert(initialize(), key, value)
    twice = insert(once, key, value)
    assert once != twice


@given(st.integers(1, 10**6))
def test_zero_value_insertions_are_not_identity(key):
    c = insert(initialize(), 42, 7)
    assert insert(c, key, 0) != c


def test_inverse_cancels():
    c = insert(initialize(), 3, 9)
    assert combine(c, inverse(c)) == initialize()


def test_membership_examples():
    c = commit_records([(1, 5), (2, 0), (3, 0)])
    proof = commit_records([(2, 0), (3, 0)])
    assert member(c, proof, 1, 5)
    assert not member(c, proof, 1, 4)
    # non-membership of a key is membership of (key, 0)
    c2 = commit_records([(1, 5), (10, 0)])
    p2 = commit_records([(1, 5)])
    assert member(c2, p2, 10, 0)


def test_commit_digest_covers_every_node_once(example2_digest):
    assert commit_digest(example2_digest) == hashlib_fold((node, example2_digest.count(node)) for node in range(1, 16))


def test_commit_digest_distinguishes_single_count_changes(example2_digest):
    other = QDigest(8, 5, {1: 1, 6: 2, 7: 2, 10: 4, 11: 7})
    assert commit_digest(other) != commit_digest(example2_digest)


def test_empty_digest_commitment_is_not_identity():
    assert commit_digest(QDigest(8, 4)) != initialize()
    assert commit_digest(QDigest(8, 4)) == commit_subtree(8, 1, ())


def test_subtree_partition_reconstructs_whole_commitment(example2_digest):
    q = example2_digest
    assert insert(combine(subtree_commitment(q, 2), subtree_commitment(q, 3)), 1, q.count(1)) == commit_digest(q)


def test_left_subtree_covers_expected_nodes(example2_digest):
    assert sorted(post_order_nodes(8, 2)) == [2, 4, 5, 8, 9, 10, 11]
    expected = hashlib_fold([(2, 0), (4, 0), (5, 0), (8, 0), (9, 0), (10, 4), (11, 6)])
    assert subtree_commitment(example2_digest, 2) == expected


def test_subtree_at_leaf_is_single_insertion(example2_digest):
    assert subtree_commitment(example2_digest, 10) == hashlib_fold([(10, 4)])


def test_subtree_commitments_validates_roots(example2_digest):
    with pytest.raises(ValueError):
        subtree_commitments(example2_digest, [99])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_random_partition_homomorphism(seed):
    rng = random.Random(seed)
    q = random_digest(rng, sigma=rng.choice([8, 16, 32]))
    parts = subtree_commitments(q, [2, 3])
    whole = insert(combine(parts[2], parts[3]), 1, q.count(1))
    assert whole == commit_digest(q)


def test_encoding_round_trip():
    c = insert(initialize(), 11, 6)
    text = c.encode()
    assert text.startswith("kvc1:") and len(text) == 5 + 64
    assert Commitment.parse(text) == c


@pytest.mark.parametrize("text", ["kvc1:zz", "kvc2:" + "0" * 64, "kvc1:" + "0" * 63])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        Commitment.parse(text)


def test_oversized_values_are_rejected():
    # the largest key and value fit the hashed record
    assert insert(initialize(), 2**64 - 1, 2**128 - 1) == hashlib_fold([(2**64 - 1, 2**128 - 1)])
    with pytest.raises(ValueError):
        insert(initialize(), 1, 1 << 128)
    with pytest.raises(ValueError):
        insert(initialize(), 1 << 64, 1)


def test_commitment_range_edges():
    assert Commitment(0).acc == 0
    assert Commitment(GROUP_PRIME - 1).acc == GROUP_PRIME - 1
    for acc in (-1, GROUP_PRIME):
        with pytest.raises(ValueError, match="out of group range"):
            Commitment(acc)


def test_commit_subtree_accepts_sigma_at_the_limit():
    before = sha256_calls()
    assert commit_subtree(1 << 20, 2, ()) == Commitment(commitment._ZERO_ROOTS[1 << 20][0])
    assert sha256_calls() == before  # Z(2) ships, nothing hashed
    with pytest.raises(ValueError, match="exceeds the commitment limit"):
        commit_subtree(1 << 21, 2, ())


@pytest.mark.parametrize("bad", [2**128, -1, 1.5, True])
def test_a_bucket_count_outside_the_encoding_is_refused_before_any_hashing(bad):
    before = sha256_calls()
    with pytest.raises(ValueError, match=f"^value {re.escape(repr(bad))} does not fit the fixed-width encoding$"):
        commit_subtree(8, 1, [(8, 1), (9, 2), (10, bad)])
    assert sha256_calls() == before


def test_permutation_invariance_at_ten_thousand_insertions():
    rng = random.Random(71)
    records = [(rng.randint(1, 2**40), rng.randint(0, 2**40)) for _ in range(10_000)]
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert commit_records(records) == commit_records(shuffled)


def test_collision_smoke_over_many_distinct_digests():
    # statistical check at reference scale: 100k distinct digests over the
    # 15-node tree, no two commitments collide
    rng = random.Random(13)
    seen_digests = set()
    seen_commitments = {}
    while len(seen_digests) < 100_000:
        counts = {
            node: rng.randint(1, 50)
            for node in rng.sample(range(1, 16), rng.randint(1, 6))
        }
        key = tuple(sorted(counts.items()))
        if key in seen_digests:
            continue
        seen_digests.add(key)
        c = commit_digest(QDigest(8, 1000, counts)).to_bytes()
        assert c not in seen_commitments, (key, seen_commitments[c])
        seen_commitments[c] = key


COUNTS = st.sampled_from([0, 1, 2**128 - 1]) | st.integers(0, 2**128 - 1)


@st.composite
def cut_folds(draw, sizes, split=False):
    """A block of nodes cut into shuffled pieces (some empty), each a range, list, tuple or reversed range,
    with counted nodes at, inside and just outside each piece's ends and half, and some anywhere.

    With `split`, an empty and a one-node piece are always among them, and both nodes around each
    piece's half, where the helper's split cuts it, are counted.
    """
    size = draw(sizes)
    start = draw(st.integers(1, 2**14))
    cuts = draw(st.lists(st.integers(0, size), max_size=6))
    if split:
        single = draw(st.integers(0, size - 1))
        cuts += [single, single, single + 1]
    cuts.sort()
    pieces = [range(start + lo, start + hi) for lo, hi in zip([0, *cuts], [*cuts, size])]
    near = [node for nodes in pieces for i in (0, len(nodes) // 2, len(nodes)) for node in (nodes.start + i - 1, nodes.start + i)]
    halves = [node for nodes in pieces for node in nodes[max(len(nodes) // 2 - 1, 0):len(nodes) // 2 + 1]] if split else []
    keys = halves + draw(st.lists(st.sampled_from(near), max_size=12)) + draw(st.lists(st.integers(1, 2**15), max_size=8))
    forms = [lambda nodes: nodes, list, tuple, lambda nodes: nodes[::-1]]
    ranges = [draw(st.sampled_from(forms))(nodes) for nodes in draw(st.permutations(pieces))]
    return ranges, {key: draw(COUNTS) for key in keys}


@st.composite
def tree_folds(draw, shape):
    """At sigma 2**0 to 2**10, a subtree's ranges, a prefix's, or (from 2**1) a prefix's with a subtree
    that precedes its stop skipped, with counted nodes anywhere in the tree."""
    sigma = 2 ** draw(st.integers(shape == "skip", 10))
    order = list(post_order_nodes(sigma))
    if shape == "skip":
        root, stop = sorted(draw(st.lists(st.integers(0, len(order) - 1), min_size=2, max_size=2, unique=True)))
        ranges = prefix_ranges(order[stop], sigma, skip=order[root])
    else:
        ranges = {"prefix": prefix_ranges, "subtree": subtree_ranges}[shape](draw(st.sampled_from(order)), sigma)
    keys = draw(st.lists(st.integers(1, 2 * sigma - 1), max_size=12))
    return ranges, {key: draw(COUNTS) for key in keys}


def check_fold(ranges, counted, sha256):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(commitment, "_sha256", sha256)
        before = sha256_calls()
        assert fold_ranges(ranges, counted) == hashlib_fold(ranges, counted)
        assert sha256_calls() - before == sum(map(len, ranges))


# Each input family is its own case, so each gets the full run of examples.
FOLD_FAMILIES = {"cut": cut_folds(st.integers(0, 80)), **{shape: tree_folds(shape) for shape in ("prefix", "skip", "subtree")}}


@pytest.mark.parametrize("family", FOLD_FAMILIES)
@given(data=st.data(), sha256=st.sampled_from([commitment._sha256, hashlib.sha256]))
def test_fold_ranges_is_the_hashlib_fold_node_by_node(family, data, sha256):
    check_fold(*data.draw(FOLD_FAMILIES[family]), sha256)


@settings(max_examples=25, deadline=None)
@given(cut_folds(st.sampled_from([SPLIT - 1, SPLIT]) | st.integers(SPLIT - 64, SPLIT + 4096), split=True))
def test_a_split_fold_is_the_hashlib_fold_node_by_node(fold):
    check_fold(*fold, commitment._sha256)
    if CAN_SPLIT and sum(map(len, fold[0])) >= SPLIT and threading.active_count() == 1:
        assert helper_pid() is not None  # the helper folded half of it


def test_the_fold_hashes_with_the_builtin_sha256_where_the_build_has_one():
    builtins = []
    for name in ("_sha2", "_sha256"):  # CPython 3.12+ and 3.10-3.11
        with contextlib.suppress(ImportError):
            builtins.append(importlib.import_module(name).sha256)
    assert commitment._sha256 is (builtins[0] if builtins else hashlib.sha256)
