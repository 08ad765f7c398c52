import hashlib
import random
from fractions import Fraction
from functools import reduce
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from qdigest_auth.digest import (
    QDigest,
    ValidityReport,
    _compress_until_stable,
    _one_pass,
    build_from_frequencies,
    coarsen,
    counted_prefix,
    check_compatible,
    compress_one_pass,
    digest_sum,
    iterative_compress,
    merge,
    nabla,
    quantile_query,
    range_query,
    rank_query,
    recompress,
    range_top,
    recursive_compress,
    validate,
)
from qdigest_auth.serialize import MAX_SIGMA, VALUE_LIMIT, digest_from_bytes, digest_to_bytes
from qdigest_auth.tree import level, next_power_of_two, post_order_nodes

from helpers import (
    exact_quantile,
    grid,
    log_uniform,
    quantile_oracle,
    random_frequencies,
    random_sum,
    rank_oracle,
)

# the two frequency sets of the flawed-merge walkthrough
Q1_BUCKETS = {4: 3, 5: 7, 12: 6, 13: 6, 14: 7, 15: 9}
Q2_BUCKETS = {6: 7, 7: 3, 8: 8, 9: 7, 10: 6, 11: 5}
SUM_BUCKETS = {4: 3, 5: 7, 6: 7, 7: 3, 8: 8, 9: 7, 10: 6, 11: 5, 12: 6, 13: 6, 14: 7, 15: 9}
ONE_PASS_BUCKETS = {1: 10, 4: 18, 5: 18, 12: 6, 13: 6, 14: 7, 15: 9}
FIXED_BUCKETS = {1: 10, 4: 18, 5: 18, 6: 12, 7: 16}


class TestConstruction:
    def test_build_matches_worked_example(self, s1, s2):
        q1 = build_from_frequencies(s1, 4, 8)
        q2 = build_from_frequencies(s2, 4, 8)
        assert q1.buckets() == Q1_BUCKETS
        assert q2.buckets() == Q2_BUCKETS
        assert q1.n == 38 and q2.n == 36

    def test_build_empty(self):
        q = build_from_frequencies({}, 4, 8)
        assert q.n == 0 and q.size == 0

    def test_build_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            build_from_frequencies({9: 1}, 4, 8)
        with pytest.raises(ValueError):
            build_from_frequencies({1: 0}, 4, 8)

    def test_sigma_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            QDigest(10, 4)
        with pytest.raises(ValueError):
            QDigest(8, 0)

    def test_non_power_of_two_domains_pad_upward(self):
        q = build_from_frequencies({1: 3, 10: 2}, 4, 10)
        assert q.sigma == 16
        assert q.n == 5
        # values beyond the requested domain stay invalid even after padding
        with pytest.raises(ValueError):
            build_from_frequencies({11: 1}, 4, 10)
        coarse = coarsen({1: 3, 10: 2}, 4, 10, 1)
        assert coarse.sigma == 8 and coarse.leaf_width == 2

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            QDigest(8, 4, {4: 0})
        with pytest.raises(ValueError):
            QDigest(8, 4, {16: 1})

    @pytest.mark.parametrize("counts, bad", [({"a": 1, 2: 1}, "'a'"), ({2: 1, "a": 1}, "'a'"), ({3: 1, None: 2}, "None")])
    def test_a_key_of_another_type_is_refused_as_out_of_range(self, counts, bad):
        with pytest.raises(ValueError) as exc:
            QDigest(8, 4, counts)
        assert str(exc.value) == f"node index {bad} out of range [1, 15]"

    def test_the_first_bad_key_in_input_order_is_named(self):
        with pytest.raises(ValueError) as exc:
            QDigest(8, 4, {99: 1, 0: 1})
        assert str(exc.value) == "node index 99 out of range [1, 15]"

    @pytest.mark.parametrize(
        "args, message",
        [
            ((True, 4), "domain size must be a positive power of two, got True"),
            ((8, True, {1: 2}), "compression parameter k must be a positive integer, got True"),
            ((8, 4, {1: 2}, True), "leaf width must be a positive power of two, got True"),
            ((8, 4, {True: 4}), "node index True out of range [1, 15]"),
            ((8, 4, {1: True}), "count for node 1 must be a positive integer, got True"),
        ],
    )
    def test_a_bool_field_is_refused_with_the_fields_message(self, args, message):
        with pytest.raises(ValueError) as exc:
            QDigest(*args)
        assert str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_accepted_digest_round_trips_or_is_refused_at_the_encoding_limits(self, data):
        def or_bool(ints):  # a bool one time in eight, so that most digests are still accepted
            return st.integers(0, 7).flatmap(lambda i: st.booleans() if i == 0 else ints)

        sigma = data.draw(or_bool(st.sampled_from([1, 2, 8, MAX_SIGMA, 2 * MAX_SIGMA])))
        k = data.draw(or_bool(st.integers(1, 64)))
        leaf_width = data.draw(or_bool(st.sampled_from([1, 2, 8])))
        nodes = or_bool(st.integers(1, max(1, 2 * sigma - 1)))
        counts = or_bool(st.one_of(st.integers(1, 10), st.integers(VALUE_LIMIT - 2, VALUE_LIMIT + 2)))
        buckets = data.draw(st.dictionaries(nodes, counts, max_size=6))
        try:
            q = QDigest(sigma, k, buckets, leaf_width)
        except ValueError:
            return
        if q.sigma > MAX_SIGMA or max(buckets.values(), default=0) >= VALUE_LIMIT:
            with pytest.raises(ValueError, match="limit"):
                digest_to_bytes(q)
        else:
            assert digest_from_bytes(digest_to_bytes(q)) == q

    def test_construction_invariant_and_tight_bound(self, s1):
        q1 = build_from_frequencies(s1, 4, 8)
        report = validate(q1)
        assert report.construction_invariant_holds
        assert q1.size <= 2 * 4 + 1

    def test_fresh_build_compresses_in_two_iterations(self, s1):
        leaf_only = {8 + v - 1: m for v, m in s1.items()}
        threshold = QDigest(8, 4, leaf_only).threshold
        assert _one_pass(leaf_only, threshold, leaf_only)  # the first pass merges
        assert not _one_pass(leaf_only, threshold, leaf_only)  # the second merges nothing


class TestNabla:
    def test_flawed_merge_neighborhood(self, s1, s2):
        s = digest_sum(build_from_frequencies(s1, 4, 8), build_from_frequencies(s2, 4, 8))
        flawed = compress_one_pass(s)
        assert nabla(flawed, 15) == 16  # 9 + 7 + 0
        assert nabla(s, 15) == 19  # 9 + 7 + 3
        assert flawed.threshold == 18

    def test_root_case(self, example2_digest):
        assert nabla(example2_digest, 1) == 1

    def test_empty_neighborhood_is_zero(self):
        q = QDigest(8, 4, {15: 5})
        assert nabla(q, 8) == 0


class TestSumAndOnePass:
    def test_sum_matches_worked_example(self, s1, s2):
        s = digest_sum(build_from_frequencies(s1, 4, 8), build_from_frequencies(s2, 4, 8))
        assert s.buckets() == SUM_BUCKETS
        assert s.n == 74

    def test_sum_identity(self, s1):
        q1 = build_from_frequencies(s1, 4, 8)
        empty = QDigest(8, 4)
        assert digest_sum(q1, empty) == q1

    def test_sum_requires_matching_parameters(self, s1):
        q1 = build_from_frequencies(s1, 4, 8)
        with pytest.raises(ValueError):
            digest_sum(q1, QDigest(8, 5))
        with pytest.raises(ValueError):
            digest_sum(q1, QDigest(16, 4))

    def test_one_pass_reproduces_the_flaw(self, s1, s2):
        s = digest_sum(build_from_frequencies(s1, 4, 8), build_from_frequencies(s2, 4, 8))
        flawed = compress_one_pass(s)
        assert flawed.buckets() == ONE_PASS_BUCKETS
        report = validate(flawed)
        assert 15 in report.prop2_violations
        assert not report.prop1_violations

    def test_one_pass_is_a_fixpoint_on_valid_digests(self, s1):
        q1 = build_from_frequencies(s1, 4, 8)
        assert compress_one_pass(q1) == q1


def scan_one_pass(counts: dict[int, int], threshold: int, sigma: int) -> bool:
    """Reference sweep: each level's parents are found by scanning every bucket."""
    merged = False
    for lvl in range(level(sigma), 0, -1):
        lo, hi = 1 << lvl, (2 << lvl) - 1
        parents = sorted({i // 2 for i in counts if lo <= i <= hi})
        for p in parents:
            l, r = 2 * p, 2 * p + 1
            lc = counts.get(l, 0)
            rc = counts.get(r, 0)
            if counts.get(p, 0) + lc + rc <= threshold:
                counts[p] = counts.get(p, 0) + lc + rc
                counts.pop(l, None)
                counts.pop(r, None)
                merged = True
    return merged


def assert_passes_match_the_scan(counts: dict[int, int], threshold: int, sigma: int) -> None:
    """Runs both sweeps pass after pass until one merges nothing."""
    mine, ref = dict(counts), dict(counts)
    merged = True
    while merged:
        merged = bool(_one_pass(mine, threshold, mine))
        assert merged == scan_one_pass(ref, threshold, sigma)
        assert list(mine.items()) == list(ref.items())  # same counts, made in the same order


class TestOnePassAgainstTheScan:
    """The level-bucketed sweep does what the per-level scan of every bucket did."""

    def test_random_count_maps_with_internal_nodes(self):
        internal = 0
        for seed in range(300):
            rng = random.Random(seed)
            sigma = 2 ** rng.randint(0, 12)
            nodes = rng.sample(range(1, 2 * sigma), rng.randint(0, min(2 * sigma - 1, 300)))
            counts = {i: rng.randint(1, 50) for i in nodes}
            internal += any(i < sigma for i in counts)
            k = rng.randint(1, 40)
            assert_passes_match_the_scan(counts, sum(counts.values()) // k, sigma)
        assert internal > 200

    def test_digest_sums_that_show_the_one_pass_flaw(self, s1, s2):
        worked = digest_sum(build_from_frequencies(s1, 4, 8), build_from_frequencies(s2, 4, 8))
        sums = [worked]
        for seed in range(200):
            rng = random.Random(seed)
            sums.append(random_sum(rng, k=rng.randint(1, 40)))
        flawed = 0
        for s in sums:
            assert_passes_match_the_scan(s.buckets(), s.threshold, s.sigma)
            flawed += not validate(compress_one_pass(s)).ok
        assert flawed >= 10
        assert compress_one_pass(worked).buckets() == ONE_PASS_BUCKETS

    def test_sparse_maps_in_huge_domains_skip_empty_levels(self):
        for sigma in (2**40, 2**63):
            for seed in range(40):
                rng = random.Random(seed)
                counts: dict[int, int] = {}
                for _ in range(rng.randint(1, 12)):
                    leaf = sigma + rng.randrange(sigma)
                    counts[leaf] = rng.randint(1, 9)
                    if rng.random() < 0.5:  # an ancestor, up to dozens of levels above
                        counts[leaf >> rng.randint(1, level(sigma))] = rng.randint(1, 9)
                    if rng.random() < 0.3:
                        counts[leaf ^ 1] = rng.randint(1, 9)
                q = QDigest(sigma, rng.randint(1, 8), counts)
                assert_passes_match_the_scan(counts, q.threshold, sigma)
                ref = dict(counts)
                scan_one_pass(ref, q.threshold, sigma)
                assert compress_one_pass(q).buckets() == ref
            pair = {sigma: 5, 2 * sigma - 1: 5}
            assert_passes_match_the_scan(pair, 10, sigma)
            assert compress_one_pass(QDigest(sigma, 1, pair)).buckets() == {1: 10}

    def test_one_pass_settles_a_fresh_build(self):
        for seed in range(200):
            rng = random.Random(seed)
            sigma = rng.choice([1, 2, 8, 100, 1024, 4096, 2**16])
            values = [rng.randint(1, sigma) for _ in range(rng.randint(0, 2000))]
            freqs = {v: rng.randint(1, 9) for v in values}
            cut = min(rng.randint(0, 3), level(next_power_of_two(sigma)))
            q = coarsen(freqs, rng.randint(1, 64), sigma, cut)
            counts = q.buckets()
            assert not _one_pass(counts, q.threshold, counts)
            assert counts == q.buckets()


def swept_build(pairs, k, sigma, cut):
    """The build's oracle: each value added into its leaf, then one `_one_pass` over the leaf map."""
    tree_sigma = next_power_of_two(sigma)
    leaves = tree_sigma >> cut
    counts: dict[int, int] = {}
    for v, mult in pairs:
        leaf = leaves + ((v - 1) >> cut)
        counts[leaf] = counts.get(leaf, 0) + mult
    _one_pass(counts, sum(counts.values()) // k, counts)
    return QDigest(leaves, k, counts, 1 << cut)


def build_of_leaves(counts, k, sigma):
    """`build_from_frequencies` of the values whose leaves hold counts, as a map."""
    return build_from_frequencies({i - sigma + 1: c for i, c in counts.items()}, k, sigma).buckets()


class TestLeafPassAgainstTheSweep:
    """The build's descent over sorted values keeps what `_one_pass` leaves of the same leaves-only map."""

    def test_random_leaf_maps(self):
        heavy = 0
        for seed in range(1000):
            rng = random.Random(seed)
            sigma = 2 ** rng.randint(0, 12)
            leaves = rng.sample(range(sigma, 2 * sigma), rng.randint(0, min(sigma, 300)))
            counts = {i: rng.randint(1, 50) * (1 if rng.random() < 0.9 else 1000) for i in leaves}
            k = rng.randint(1, 64)
            threshold = sum(counts.values()) // k
            heavy += any(c > threshold for c in counts.values())
            swept = dict(counts)
            _one_pass(swept, threshold, swept)
            assert build_of_leaves(counts, k, sigma) == swept
        assert heavy > 500

    @staticmethod
    def swept(counts, k, sigma):
        """The build of a leaf map, asserted equal to `_one_pass`'s result on a copy."""
        threshold = sum(counts.values()) // k
        swept = dict(counts)
        _one_pass(swept, threshold, swept)
        kept = build_of_leaves(counts, k, sigma)
        assert kept == swept
        return kept

    def test_a_kvc_query_sized_build(self):
        rng = random.Random(5)
        counts: dict[int, int] = {}
        for _ in range(50_000):
            leaf = 2**16 + rng.randrange(2**16)
            counts[leaf] = counts.get(leaf, 0) + 1
        assert 34_000 < len(counts) < 36_000
        assert 80 < len(self.swept(counts, 64, 2**16)) <= 2 * 64 + 1

    def test_wda_stream_shaped_batches(self):
        for seed in range(20):
            rng = random.Random(seed)
            counts = {2**16 - 1 + v: c for v, c in log_uniform(rng, 2**16, 2_000).items()}
            kept = self.swept(counts, 64, 2**16)
            assert any(i < 2**8 for i in kept) and any(i >= 2**16 for i in kept)  # coarse and fine buckets both

    def test_sparse_leaves_in_huge_domains(self):
        for sigma in (2**40, 2**63):
            for seed in range(30):
                rng = random.Random(seed)
                counts = {sigma + rng.randrange(sigma): rng.randint(1, 9) for _ in range(rng.randint(1, 6))}
                self.swept(counts, rng.randint(1, 8), sigma)
            assert self.swept({sigma: 5, 2 * sigma - 1: 5}, 1, sigma) == {1: 10}
            assert self.swept({sigma: 5, 2 * sigma - 1: 5}, 2, sigma) == {2: 5, 3: 5}

    def test_k_one_sends_everything_to_the_root(self):
        for seed in range(50):
            rng = random.Random(seed)
            sigma = 2 ** rng.randint(0, 16)
            counts = {i: rng.randint(1, 50) for i in rng.sample(range(sigma, 2 * sigma), min(sigma, 50))}
            assert self.swept(counts, 1, sigma) == {1: sum(counts.values())}

    def test_k_above_n_keeps_every_leaf(self):
        for seed in range(50):
            rng = random.Random(seed)
            sigma = 2 ** rng.randint(0, 16)
            counts = {i: rng.randint(1, 3) for i in rng.sample(range(sigma, 2 * sigma), min(sigma, 50))}
            assert self.swept(counts, sum(counts.values()) + 1, sigma) == counts

    def test_the_empty_map_and_a_one_leaf_domain(self):
        for sigma in (1, 2, 2**16, 2**63):
            assert self.swept({}, 4, sigma) == {}
        for k in (1, 3, 4):
            assert self.swept({1: 3}, k, 1) == {1: 3}

    def test_coarse_builds_keep_what_the_sweep_keeps(self):
        cut_at_all = 0
        for seed in range(1000):
            rng = random.Random(seed)
            sigma = rng.randint(1, 2**12)
            tree_sigma = next_power_of_two(sigma)
            cut = rng.randint(0, level(tree_sigma))
            cut_at_all += cut > 0
            freqs = {rng.randint(1, sigma): rng.randint(1, 9) for _ in range(rng.randint(0, 400))}
            k = rng.randint(1, 64)
            leaves, width = tree_sigma >> cut, 1 << cut
            counts: dict[int, int] = {}
            for v, mult in freqs.items():
                leaf = leaves - 1 + -(-v // width)  # the leaf covering v
                counts[leaf] = counts.get(leaf, 0) + mult
            _one_pass(counts, sum(freqs.values()) // k, counts)
            assert coarsen(freqs, k, sigma, cut) == QDigest(leaves, k, counts, width)
        assert cut_at_all > 500

    @staticmethod
    def assert_forms_match(pairs, k, sigma, cut):
        want = swept_build(pairs, k, sigma, cut)
        assert coarsen(pairs, k, sigma, cut) == want
        assert coarsen(iter(pairs), k, sigma, cut) == want
        summed: dict[int, int] = {}
        for v, mult in pairs:
            summed[v] = summed.get(v, 0) + mult
        assert coarsen(summed, k, sigma, cut) == want

    def test_random_inputs_at_every_cut(self):
        for seed in range(400):
            rng = random.Random(seed)
            sigma = rng.choice([1, 2, 3, 7, 8, 100, 1024, 4096, 2**16, rng.randint(1, 2**20)])
            values = [rng.randint(1, sigma) for _ in range(rng.randint(0, 300))]
            if rng.random() < 0.3:
                values += [1, sigma]  # both ends of the domain
            pairs = [(v, rng.randint(1, 9)) for v in values]  # repeated values add up
            n = sum(m for _, m in pairs)
            k = rng.choice([1, rng.randint(1, 64), n + 1, n + rng.randint(2, 10**6)])
            cut = rng.randint(0, level(next_power_of_two(sigma)))
            self.assert_forms_match(pairs, k, sigma, cut)
            self.assert_forms_match(list(dict(pairs).items()), k, sigma, cut)

    def test_every_cut_of_one_input(self):
        rng = random.Random(7)
        pairs = [(rng.randint(1, 1000), rng.randint(1, 5)) for _ in range(400)] + [(1, 3), (1000, 2), (1, 1)]
        for cut in range(level(1024) + 1):
            for k in (1, 2, 16, 10**6):
                self.assert_forms_match(pairs, k, 1000, cut)

    def test_the_empty_input_and_a_one_value_domain(self):
        for sigma in (1, 2, 5, 2**40):
            for cut in (0, level(next_power_of_two(sigma))):
                assert coarsen({}, 3, sigma, cut) == swept_build([], 3, sigma, cut) == QDigest(
                    next_power_of_two(sigma) >> cut, 3, {}, 1 << cut)
                assert coarsen([], 3, sigma, cut).n == 0
        for k in (1, 3, 4):
            self.assert_forms_match([(1, 3)], k, 1, 0)
            self.assert_forms_match([(1, 3), (1, 2)], k, 1, 0)

    def test_values_at_both_ends_of_the_domain(self):
        for sigma in (2, 3, 8, 1000, 2**16):
            for k in (1, 2, 3):
                for cut in range(level(next_power_of_two(sigma)) + 1):
                    self.assert_forms_match([(1, 5), (sigma, 5)], k, sigma, cut)
                    self.assert_forms_match([(sigma, 1), (1, 1), (sigma, 2)], k, sigma, cut)

    def test_sparse_maps_in_a_huge_domain(self):
        sigma = 2**40
        for seed in range(40):
            rng = random.Random(seed)
            pairs = [(rng.randint(1, sigma), rng.randint(1, 9)) for _ in range(rng.randint(1, 30))]
            pairs += rng.sample(pairs, min(3, len(pairs)))  # some values repeat
            cut = rng.choice([0, 1, rng.randint(0, 40), 40])
            self.assert_forms_match(pairs, rng.choice([1, 2, rng.randint(1, 16), 10**6]), sigma, cut)

    def test_bool_values_and_multiplicities_count_as_the_integers_they_are(self):
        assert coarsen({True: 2, 5: True}, 4, 8, 0) == coarsen({1: 2, 5: 1}, 4, 8, 0)
        assert coarsen([(True, 2), (1, 3)], 4, 8, 1) == coarsen({1: 5}, 4, 8, 1)


class TestRepairedCompression:
    def test_both_algorithms_fix_the_worked_example(self, s1, s2):
        s = digest_sum(build_from_frequencies(s1, 4, 8), build_from_frequencies(s2, 4, 8))
        rc = recursive_compress(s)
        ic = iterative_compress(s)
        assert rc.buckets() == FIXED_BUCKETS
        assert ic.buckets() == FIXED_BUCKETS
        for out in (rc, ic):
            report = validate(out)
            assert report.ok
            assert out.n == 74

    def test_valid_digest_is_unchanged(self, s1):
        q1 = build_from_frequencies(s1, 4, 8)
        assert recursive_compress(q1) == q1
        assert iterative_compress(q1) == q1

    def test_empty_digest(self):
        empty = QDigest(8, 4)
        assert iterative_compress(empty) == empty
        assert recursive_compress(empty) == empty

    def test_merge(self, s1, s2):
        q1 = build_from_frequencies(s1, 4, 8)
        q2 = build_from_frequencies(s2, 4, 8)
        m = merge(q1, q2)
        assert m.buckets() == FIXED_BUCKETS
        assert m.n == 74
        assert m.size == 5 <= 4 * 4 + 1

    def test_merge_with_empty(self, s1):
        q1 = build_from_frequencies(s1, 4, 8)
        assert merge(q1, QDigest(8, 4)) == q1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_random_sums_are_repaired_by_both_algorithms(self, seed):
        rng = random.Random(seed)
        s = random_sum(rng)
        for compress in (recursive_compress, iterative_compress):
            out = compress(s)
            report = validate(out)
            assert report.ok
            assert out.n == s.n
            assert out.size <= 4 * out.k + 1
            if report.construction_invariant_holds:
                assert out.size <= 2 * out.k + 1


def random_window(rng: random.Random, sigma: int, k: int, cut: int, size: int) -> list[QDigest]:
    """`size` compatible digests: log-uniform and uniform batches, some of them empty."""
    window = []
    for _ in range(size):
        kind = rng.choice(["log-uniform", "log-uniform", "uniform", "empty"])
        if kind == "log-uniform":
            freqs = log_uniform(rng, sigma, rng.randint(1, 400))
        elif kind == "uniform":
            freqs = random_frequencies(rng, sigma, max_distinct=120)
        else:
            freqs = {}
        window.append(coarsen(freqs, k, sigma, cut))
    return window


def binary_merge(a: QDigest, b: QDigest) -> QDigest:
    """The two-digest merge as it was first written: sum, then compress until stable."""
    return iterative_compress(digest_sum(a, b))


class TestWindowMerge:
    def test_a_window_merge_is_the_left_fold_of_binary_merges(self):
        rng = random.Random(18)
        seen = {"coarse": 0, "empty": 0, "bucket-child": 0}
        for _ in range(320):
            sigma = rng.choice([8, 64, 512, 4096, 2**16])
            cut = rng.choice([0, 0, 1, 2, 3])
            window = random_window(rng, sigma, rng.randint(1, 64), cut, rng.randint(2, 8))
            merged, folded = merge(*window), reduce(binary_merge, window)
            assert merged == folded == reduce(merge, window)
            assert digest_to_bytes(merged) == digest_to_bytes(folded)
            report = validate(merged)
            assert report.ok
            seen["coarse"] += merged.leaf_width > 1
            seen["empty"] += any(d.n == 0 for d in window)
            seen["bucket-child"] += not report.construction_invariant_holds
        assert min(seen.values()) >= 30, seen

    def test_an_incompatible_digest_is_refused_with_the_pairwise_message(self, s1):
        a, b = build_from_frequencies(s1, 4, 8), build_from_frequencies(s1, 4, 8)
        for bad in (build_from_frequencies(s1, 5, 8), build_from_frequencies(s1, 4, 16), coarsen(s1, 4, 16, 1)):
            with pytest.raises(ValueError) as expected:
                check_compatible(a, bad)
            for args in ((a, bad), (a, b, bad), (a, bad, b)):
                with pytest.raises(ValueError) as refused:
                    merge(*args)
                assert str(refused.value) == str(expected.value)


def scan_until_stable(counts: dict[int, int], threshold: int, sigma: int) -> dict[int, int]:
    """`scan_one_pass` in place, pass after pass, until one merges nothing."""
    while scan_one_pass(counts, threshold, sigma):
        pass
    return counts


def scan_merge(*window: QDigest) -> QDigest:
    """The left fold of `digest_sum` and `scan_until_stable`, sharing no compression code with `merge`."""

    def step(a: QDigest, b: QDigest) -> QDigest:
        s = digest_sum(a, b)
        return QDigest(s.sigma, s.k, scan_until_stable(s.buckets(), s.threshold, s.sigma), s.leaf_width)

    return reduce(step, window)


def sparse_window(rng: random.Random, sigma: int, k: int, size: int) -> list[QDigest]:
    """`size` digests of at most 30 values each, spread over a huge domain; some empty."""
    return [
        build_from_frequencies({rng.randint(1, sigma): rng.randint(1, 9) for _ in range(rng.randint(0, 30))}, k, sigma)
        for _ in range(size)
    ]


class TestStabilizationAgainstTheScan:
    """The re-sweeps of only the disturbed families settle a map as the full per-level scan does."""

    def test_window_merges_match_the_scan_merge(self):
        rng = random.Random(21)
        seen = {"coarse": 0, "empty": 0, "bucket-child": 0}
        for _ in range(320):
            sigma = rng.choice([8, 64, 512, 4096, 2**16])
            cut = min(rng.choice([0, 0, 1, 2, 3]), level(sigma))
            window = random_window(rng, sigma, rng.randint(1, 64), cut, rng.randint(2, 8))
            merged = merge(*window)
            assert merged == scan_merge(*window)
            seen["coarse"] += merged.leaf_width > 1
            seen["empty"] += any(d.n == 0 for d in window)
            seen["bucket-child"] += not validate(merged).construction_invariant_holds
        assert min(seen.values()) >= 30, seen

    def test_sparse_window_merges_in_huge_domains(self):
        for sigma in (2**40, 2**63):
            rng = random.Random(sigma)
            for _ in range(40):
                window = sparse_window(rng, sigma, rng.randint(1, 8), rng.randint(2, 6))
                assert merge(*window) == scan_merge(*window)

    def test_maps_with_interior_counts(self):
        interior = 0
        for seed in range(400):
            rng = random.Random(seed)
            sigma = 2 ** rng.randint(0, 12)
            nodes = rng.sample(range(1, 2 * sigma), rng.randint(0, min(2 * sigma - 1, 300)))
            counts = {i: rng.randint(1, 50) for i in nodes}
            interior += any(i < sigma for i in counts)
            threshold = sum(counts.values()) // rng.randint(1, 40) if seed % 10 else 0
            mine = dict(counts)
            _compress_until_stable(mine, threshold)
            assert mine == scan_until_stable(counts, threshold, sigma)
        assert interior > 250

    def test_edge_maps(self):
        for counts, threshold, sigma in (
            ({}, 0, 8),
            ({}, 5, 1),
            ({1: 3}, 0, 1),
            ({1: 3}, 3, 1),
            ({2: 1, 3: 1}, 0, 2),
            ({2: 1, 3: 1}, 2, 2),
            ({1: 1, 4: 1, 9: 1, 15: 2}, 0, 8),
        ):
            mine = dict(counts)
            _compress_until_stable(mine, threshold)
            assert mine == scan_until_stable(dict(counts), threshold, sigma)

    def test_iterative_compress_of_leaves_alone_matches_the_scan(self):
        rng = random.Random(7)
        cases = [({}, 4, 8), ({1: 3}, 2, 1)]
        for _ in range(200):
            sigma = 2 ** rng.randint(0, 12)
            leaves = rng.sample(range(sigma, 2 * sigma), rng.randint(0, min(sigma, 300)))
            cases.append(({i: rng.randint(1, 50) for i in leaves}, rng.randint(1, 64), sigma))
        big: dict[int, int] = {}
        for _ in range(50_000):
            leaf = 2**16 + rng.randrange(2**16)
            big[leaf] = big.get(leaf, 0) + 1
        cases.append((big, 64, 2**16))
        for counts, k, sigma in cases:
            q = QDigest(sigma, k, counts, 4)
            swept = scan_until_stable(dict(counts), q.threshold, sigma)
            assert iterative_compress(q) == QDigest(sigma, k, swept, 4)
            if k > 1:
                assert recompress(q, k - 1) == QDigest(sigma, k - 1, scan_until_stable(dict(counts), q.n // (k - 1), sigma), 4)


class TestQueryIndex:
    """The bisected queries against linear scans, on digests whose buckets may have bucket children."""

    @staticmethod
    def digests():
        rng = random.Random(81)
        for _ in range(60):
            sigma = rng.choice([8, 32, 128, 256])
            cut = rng.choice([0, 1, 2, 3])  # leaf widths 1 to 8
            window = random_window(rng, sigma, rng.randint(1, 32), cut, rng.randint(1, 5))
            merged = merge(*window) if len(window) > 1 else window[0]
            if merged.n:
                yield merged

    def test_quantile_rank_and_range_match_the_linear_oracles(self):
        rng = random.Random(5)
        widths, with_children = set(), 0
        for q in self.digests():
            widths.add(q.leaf_width)
            with_children += not validate(q).construction_invariant_holds
            sums = [0]
            for _, cnt in q.post_order_buckets():
                sums.append(sums[-1] + cnt)
            # every prefix sum exactly, and just below it, besides the grid
            fracs = set(grid(21)) | {Fraction(s, q.n) for s in sums}
            fracs |= {Fraction(2 * s - 1, 2 * q.n) for s in sums[1:]}
            for frac in fracs:
                answer = quantile_query(q, frac)
                assert answer == quantile_oracle(q, frac)
                stop = counted_prefix(q.post_order_buckets(), frac * q.n)[-1][0]
                assert answer == range_top(stop, q.sigma, q.leaf_width)
            dom = q.domain_size
            for x in range(1, dom + 1):
                assert rank_query(q, x) == rank_oracle(q, x)
            for _ in range(20):
                lo = rng.randint(1, dom)
                hi = rng.randint(lo, dom)
                assert range_query(q, lo, hi) == rank_oracle(q, hi + 1) - rank_oracle(q, lo)
        assert widths == {1, 2, 4, 8}
        assert with_children >= 10

    @staticmethod
    def answers(q):
        ranks = [rank_query(q, x) for x in range(1, q.domain_size + 1)]
        return [quantile_query(q, frac) for frac in grid(11)], ranks

    @pytest.mark.parametrize("sigma", [2**e for e in range(13)])
    def test_every_node_of_the_tree_is_indexed_in_post_order(self, sigma):
        width = 2
        q = QDigest(sigma, 1, dict.fromkeys(range(1, 2 * sigma), 1), width)
        buckets, tops, sums = q._post_order_index()
        assert [node for node, _ in buckets] == list(post_order_nodes(sigma))
        assert tops == [range_top(node, sigma, width) for node, _ in buckets]
        assert sums == list(range(2 * sigma))

    def test_mutating_the_post_order_list_changes_no_later_answer(self):
        for q in self.digests():
            listed = q.post_order_buckets()  # the first call builds the index
            kept = list(listed)
            answers = self.answers(q)
            listed.reverse()
            listed[0] = (1, 10**6)
            listed.append((1, 1))
            assert q.post_order_buckets() == kept
            assert q.post_order_buckets() is not q.post_order_buckets()
            assert self.answers(q) == answers


class TestQueries:
    def test_quantile_worked_example(self, example2_digest):
        assert quantile_query(example2_digest, Fraction(1, 2)) == 4
        assert quantile_query(example2_digest, 0) == 3
        assert quantile_query(example2_digest, 1) == 8

    def test_quantile_rejects_bad_input(self, example2_digest):
        with pytest.raises(ValueError):
            quantile_query(example2_digest, Fraction(3, 2))
        with pytest.raises(ValueError):
            quantile_query(QDigest(8, 4), Fraction(1, 2))

    @pytest.mark.parametrize("query", [lambda q: rank_query(q, 3), lambda q: range_query(q, 1, 3)], ids=["rank", "range"])
    def test_an_empty_digest_cannot_be_queried(self, query):
        with pytest.raises(ValueError, match="cannot query an empty digest"):
            query(QDigest(8, 4))

    def test_rank_query(self, example2_digest):
        assert rank_query(example2_digest, 1) == 0
        assert rank_query(example2_digest, 5) == 10
        # bucket 7 covers [7,8], so its mass is not below 8; oracle gives 12
        assert rank_query(example2_digest, 8) == rank_oracle(example2_digest, 8) == 12
        with pytest.raises(ValueError):
            rank_query(example2_digest, 9)

    def test_range_query(self, example2_digest):
        assert range_query(example2_digest, 3, 4) == 10
        assert range_query(example2_digest, 5, 5) == 0
        assert range_query(example2_digest, 1, 8) == 15
        with pytest.raises(ValueError):
            range_query(example2_digest, 4, 3)

    def test_range_query_on_uncompressed_digest_is_exact(self, s1):
        leaf_only = QDigest(8, 100, {8 + v - 1: m for v, m in s1.items()})
        assert range_query(leaf_only, 1, 8) == leaf_only.n
        assert range_query(leaf_only, 2, 5) == 2 + 3 + 4 + 6

    def test_rank_matches_oracle_on_random_digests(self):
        rng = random.Random(11)
        for _ in range(50):
            sigma = rng.choice([8, 16, 32, 64])
            q = build_from_frequencies(random_frequencies(rng, sigma), rng.randint(1, 16), sigma)
            for x in range(1, sigma + 1):
                assert rank_query(q, x) == rank_oracle(q, x)

    def test_counted_prefix_compares_with_the_exact_target(self):
        rng = random.Random(3)
        for _ in range(500):
            buckets = [(i, rng.randint(1, 9)) for i in range(1, rng.randint(1, 12))]
            target = Fraction(rng.randint(0, 80), rng.randint(1, 7))
            acc, want = 0, buckets
            for stop, (_, cnt) in enumerate(buckets):
                acc += cnt
                if Fraction(acc) >= target:
                    want = buckets[: stop + 1]
                    break
            assert counted_prefix(buckets, target) == want

    def test_degenerate_digest_answers_exactly(self):
        rng = random.Random(5)
        freqs = random_frequencies(rng, 64, max_distinct=20)
        n = sum(freqs.values())
        q = build_from_frequencies(freqs, n + 1, 64)
        for frac in grid(21):
            assert quantile_query(q, frac) == exact_quantile(freqs, frac)


class TestCoarsen:
    def test_zero_levels_is_plain_build(self, s1):
        assert coarsen(s1, 4, 8, 0) == build_from_frequencies(s1, 4, 8)

    def test_pairs_aggregate(self, s1):
        c = coarsen(s1, 4, 8, 1)
        assert c.sigma == 4 and c.leaf_width == 2
        assert c.n == 38
        # pre-compression leaf masses 3, 7, 12, 16 stay put at k=4 (threshold 9)
        assert c.buckets() == {4: 3, 5: 7, 6: 12, 7: 16}

    def test_answers_are_leaf_width_multiples_at_leaf_granularity(self, s1):
        c = coarsen(s1, 4, 8, 1)
        for frac in grid(11):
            assert quantile_query(c, frac) % 2 == 0

    def test_too_many_levels(self, s1):
        with pytest.raises(ValueError):
            coarsen(s1, 4, 8, 4)

    def test_coarse_digest_validates(self, s1):
        assert validate(coarsen(s1, 4, 8, 2)).ok

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_the_dense_and_the_sorted_build_agree(self, data):
        """`_masses` reads a map through a value-indexed array or by sorting it: the same digest or refusal either way."""
        sigma = data.draw(st.integers(1, 300) | st.sampled_from([256, 1000, 1024]))
        cut = data.draw(st.integers(0, level(next_power_of_two(sigma))))
        k = data.draw(st.integers(1, 64))
        mults = st.integers(1, 9) | st.integers(2**62, 2**66)  # a mass past 64 bits leaves the array
        freqs = data.draw(st.dictionaries(st.integers(1, sigma), mults, max_size=sigma))
        fault = data.draw(st.sampled_from([None, "value", "multiplicity"]))
        if fault == "value":  # outside the domain or not an int
            freqs[data.draw(st.sampled_from([0, -3, sigma + 1, 2.5, "x"]))] = 1
        elif fault == "multiplicity":
            freqs[1] = data.draw(st.sampled_from([0, 1.5, None]))
        inputs = [freqs, list(freqs.items())] if fault is None else [freqs]  # pairs refuse before either path

        def build(given, dense):
            with patch("qdigest_auth.digest._DENSE", sigma if dense else 0):
                try:
                    return coarsen(given, k, sigma, cut)
                except ValueError as exc:
                    return str(exc)

        for given in inputs:
            dense, by_sorting = build(given, True), build(given, False)
            assert dense == by_sorting
            assert isinstance(dense, str) == (fault is not None)


class TestRecompress:
    def test_k_one_collapses_to_root(self, s1):
        q1 = build_from_frequencies(s1, 4, 8)
        assert recompress(q1, 1).buckets() == {1: 38}

    def test_k_two_is_valid_and_bounded(self, s1):
        q1 = build_from_frequencies(s1, 4, 8)
        out = recompress(q1, 2)
        assert out.k == 2
        assert validate(out).ok
        assert out.size <= 4 * 2 + 1
        assert out.n == 38

    def test_equal_or_larger_k_is_refused(self, s1):
        q1 = build_from_frequencies(s1, 4, 8)
        with pytest.raises(ValueError):
            recompress(q1, 4)
        with pytest.raises(ValueError):
            recompress(q1, 8)

    def test_k_below_one_is_refused(self, s1):
        with pytest.raises(ValueError, match="new compression parameter must be a positive integer, got 0"):
            recompress(build_from_frequencies(s1, 4, 8), 0)


def validate_by_nabla(q: QDigest) -> ValidityReport:
    """`validate` as the properties state it, bucket by bucket through `count` and `nabla`."""
    thr, buckets = q.threshold, q.buckets()
    inner = [b for b in buckets if b < q.sigma]
    return ValidityReport(
        prop1_violations=tuple(b for b in inner if q.count(b) > thr),
        prop2_violations=tuple(b for b in buckets if b != 1 and nabla(q, b) <= thr),
        size=len(buckets),
        size_bound_ok=len(buckets) <= 4 * q.k + 1,
        construction_invariant_holds=not any(q.count(2 * b) or q.count(2 * b + 1) for b in inner),
    )


class TestValidate:
    @given(st.data())
    def test_every_field_matches_a_reference_written_from_nabla_and_count(self, data):
        sigma = data.draw(st.sampled_from([1, 2, 8, 64]), label="sigma")
        nodes = st.integers(1, 2 * sigma - 1)
        counts = data.draw(st.dictionaries(nodes, st.integers(1, 20), max_size=2 * sigma), label="counts")
        q = QDigest(sigma, data.draw(st.integers(1, 4), label="k"), counts)
        if data.draw(st.booleans(), label="compressed"):  # so that valid digests are drawn as well as invalid ones
            q = iterative_compress(q)
        assert validate(q) == validate_by_nabla(q)

    def test_reports_never_raise(self):
        # wildly invalid structure: heavy inner bucket with bucket children
        q = QDigest(8, 4, {2: 100, 4: 1, 5: 1})
        report = validate(q)
        assert 2 in report.prop1_violations
        assert not report.construction_invariant_holds

    def test_empty_digest_is_valid(self):
        report = validate(QDigest(8, 4))
        assert report.ok and report.size == 0 and report.size_bound_ok

    def test_property_2_fails_when_a_neighbourhood_sum_equals_the_threshold(self):
        # n = 8, k = 2: leaves 4 and 5 have neighbourhood sum 2 + 2 = floor(n / k)
        at = validate(QDigest(4, 2, {3: 4, 4: 2, 5: 2}))
        assert {4, 5} <= set(at.prop2_violations)
        # n = 9: floor(n / k) is still 4, and the sum is 5
        above = validate(QDigest(4, 2, {3: 4, 4: 2, 5: 3}))
        assert not {4, 5} & set(above.prop2_violations)

    def test_size_bound_holds_at_exactly_4k_plus_1_buckets(self):
        assert validate(QDigest(8, 1, {i: 1 for i in range(8, 13)})).size_bound_ok
        assert not validate(QDigest(8, 1, {i: 1 for i in range(8, 14)})).size_bound_ok

    @pytest.mark.parametrize("width", [0, 3, 6, -2])
    def test_leaf_width_must_be_a_power_of_two(self, width):
        with pytest.raises(ValueError, match=f"leaf width must be a positive power of two, got {width}"):
            QDigest(8, 4, {8: 1}, width)

    def test_mass_conservation_over_random_merges(self):
        rng = random.Random(23)
        for _ in range(50):
            s = random_sum(rng, sigma=64, k=8)
            assert iterative_compress(s).n == s.n == recursive_compress(s).n


class TestQueryMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32))
    def test_quantile_answers_nondecreasing_in_q(self, seed):
        rng = random.Random(seed)
        q = build_from_frequencies(
            random_frequencies(rng, 64, max_distinct=30), rng.randint(1, 16), 64
        )
        answers = [quantile_query(q, frac) for frac in grid(21)]
        assert answers == sorted(answers)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32))
    def test_rank_nondecreasing_in_x(self, seed):
        rng = random.Random(seed)
        q = build_from_frequencies(
            random_frequencies(rng, 32, max_distinct=20), rng.randint(1, 8), 32
        )
        ranks = [rank_query(q, x) for x in range(1, 33)]
        assert ranks == sorted(ranks)
        assert ranks[0] == 0


class TestSumAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32))
    def test_sum_commutes_and_associates(self, seed):
        rng = random.Random(seed)
        sigma, k = 32, rng.randint(1, 8)
        a = build_from_frequencies(random_frequencies(rng, sigma, max_distinct=15), k, sigma)
        b = build_from_frequencies(random_frequencies(rng, sigma, max_distinct=15), k, sigma)
        c = build_from_frequencies(random_frequencies(rng, sigma, max_distinct=15), k, sigma)
        assert digest_sum(a, b) == digest_sum(b, a)
        assert digest_sum(digest_sum(a, b), c) == digest_sum(a, digest_sum(b, c))


class TestSingleNodeDomain:
    def test_queries_on_sigma_one(self):
        q = build_from_frequencies({1: 7}, 3, 1)
        assert q.sigma == 1 and q.n == 7
        assert validate(q).ok
        assert quantile_query(q, Fraction(1, 2)) == 1
        assert rank_query(q, 1) == 0
        assert range_query(q, 1, 1) == 7

    def test_merge_on_sigma_one(self):
        a = build_from_frequencies({1: 3}, 2, 1)
        b = build_from_frequencies({1: 4}, 2, 1)
        assert merge(a, b).buckets() == {1: 7}


class TestDeterminism:
    def test_identical_inputs_identical_buckets(self, s1, s2):
        a = merge(build_from_frequencies(s1, 4, 8), build_from_frequencies(s2, 4, 8))
        b = merge(build_from_frequencies(dict(reversed(list(s1.items()))), 4, 8),
                  build_from_frequencies(s2, 4, 8))
        assert a == b

    def test_operations_do_not_mutate_inputs(self, s1, s2):
        q1 = build_from_frequencies(s1, 4, 8)
        before = q1.buckets()
        merge(q1, build_from_frequencies(s2, 4, 8))
        recompress(q1, 2)
        compress_one_pass(q1)
        assert q1.buckets() == before


class TestBuildPath:
    """Every build, plain or coarse, pinned byte for byte and refusal by refusal."""

    # SHA-256 over digest_to_bytes (whose header carries the leaf width) of
    # the corpus below, taken from the code before the build had one path.
    GOLDEN_CORPUS = "128f2fd9f480d2b3a51c1ffbef45f17b97b80ca7df1b7a6027190c16dafc0ca9"

    def test_seeded_corpus_is_byte_identical(self):
        h = hashlib.sha256()
        for seed in range(300):
            rng = random.Random(seed)
            sigma = rng.choice([1, 2, 3, 5, 8, 10, 64, 100, 1000, 1024, 4096, 2**16])
            k = rng.randint(1, 64)
            skew = rng.random() < 0.5
            values = [min(sigma, int(rng.paretovariate(1.2))) if skew else rng.randint(1, sigma)
                      for _ in range(rng.randint(0, 1000))]
            pairs = [(v, rng.randint(1, 9)) for v in values]  # repeated values add up
            cut = min(rng.randint(0, 3), next_power_of_two(sigma).bit_length() - 1)
            freqs = dict(pairs) if rng.random() < 0.5 else pairs
            for q in (build_from_frequencies(freqs, k, sigma), coarsen(freqs, k, sigma, cut)):
                h.update(digest_to_bytes(q))
        assert h.hexdigest() == self.GOLDEN_CORPUS

    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"freqs": {0: 1}}, "value 0 out of domain [1, 8]"),
            ({"freqs": {9: 1}}, "value 9 out of domain [1, 8]"),
            ({"freqs": [(1.5, 1)]}, "value 1.5 out of domain [1, 8]"),
            ({"freqs": {1: 0}}, "multiplicity for value 1 must be a positive integer"),
            ({"freqs": {1: -1}}, "multiplicity for value 1 must be a positive integer"),
            ({"freqs": {1: 1.0}}, "multiplicity for value 1 must be a positive integer"),
            ({"sigma": 0}, "domain size must be a positive integer, got 0"),
            ({"k": 0}, "compression parameter k must be a positive integer, got 0"),
            ({"k": -1}, "compression parameter k must be a positive integer, got -1"),
            ({"sigma": True}, "domain size must be a positive integer, got True"),
        ],
    )
    def test_single_faults_keep_their_messages(self, fault, message):
        args = {"freqs": {1: 2, 5: 1}, "k": 4, "sigma": 8, **fault}
        for build in (
            lambda: build_from_frequencies(args["freqs"], args["k"], args["sigma"]),
            lambda: coarsen(args["freqs"], args["k"], args["sigma"], 1),
        ):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "cut, message",
        [
            (-1, "levels to cut must be a nonnegative integer, got -1"),
            (4, "cannot cut 4 levels from a domain of size 8"),
            (10**12, f"cannot cut {10**12} levels from a domain of size 8"),
        ],
    )
    def test_bad_cuts_keep_their_messages(self, cut, message):
        with pytest.raises(ValueError) as exc:
            coarsen({1: 2, 5: 1}, 4, 8, cut)
        assert str(exc.value) == message

    def test_a_bad_value_is_named_before_a_bad_cut_or_k(self):
        with pytest.raises(ValueError, match="value 9 out of domain"):
            coarsen({9: 1}, 0, 8, 4)
        with pytest.raises(ValueError, match="cannot cut 4 levels"):
            coarsen({1: 1}, 0, 8, 4)

    @pytest.mark.parametrize(
        "freqs, cut, k, message",
        [
            ({1: 1, 2: 1, 9: 1}, 0, 4, "value 9 out of domain [1, 8]"),
            ([(1, 1), (2, 1), (9, 1)], 0, 4, "value 9 out of domain [1, 8]"),
            ({1: 1, "a": 1}, 0, 4, "value 'a' out of domain [1, 8]"),
            ({"a": 1, 1: 1, 2.5: 1}, 1, 4, "value 'a' out of domain [1, 8]"),
            ({3: 1, 1.0: 1}, 0, 4, "value 1.0 out of domain [1, 8]"),
            ({True: 1, False: 1}, 0, 4, "value False out of domain [1, 8]"),
            ({1: 1, 2: 1.5}, 0, 4, "multiplicity for value 2 must be a positive integer"),
            ({1: 1, 2: None}, 0, 4, "multiplicity for value 2 must be a positive integer"),
            ([(3, 0), (3, 2)], 0, 4, "multiplicity for value 3 must be a positive integer"),
            ({2: 0, 9: 1}, 0, 4, "multiplicity for value 2 must be a positive integer"),
            ({9: 1, 2: 0}, 0, 4, "value 9 out of domain [1, 8]"),
            ([(2, -1), (9, 1)], 0, 4, "multiplicity for value 2 must be a positive integer"),
            ({1: 1, 9: 1}, 4, 4, "value 9 out of domain [1, 8]"),
            ([(1, 1), (0, 1)], 4, 0, "value 0 out of domain [1, 8]"),
            ({1: 0}, 4, 0, "multiplicity for value 1 must be a positive integer"),
        ],
    )
    def test_refusals_keep_their_precedence_and_messages(self, freqs, cut, k, message):
        with pytest.raises(ValueError) as exc:
            coarsen(freqs, k, 8, cut)
        assert str(exc.value) == message
