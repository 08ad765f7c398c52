import random
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest

from qdigest_auth.commitment import sha256_calls
from qdigest_auth.digest import QDigest, build_from_frequencies, digest_sum, iterative_compress, validate
from qdigest_auth.scenario import (
    CumulativeState,
    ResponderBehavior,
    Scenario,
    _split_stream,
    build_privacy_profile,
    cumulative_update,
    mean_bucket_depth,
    parse_levels,
    parse_scenario,
    run_scenario,
    run_session,
)
from qdigest_auth.serialize import digest_to_bytes

from helpers import exact_quantile, grid, log_uniform, random_frequencies

QUERIES = (Fraction(0), Fraction(1, 2), Fraction(1))


# The exact `run_scenario` lines on s1 (sigma 8, k 4, queries 0/1, 1/2, 1/1) for each scheme
# and run shape; a change to the simulator that keeps behaviour keeps them byte for byte.
GOLDEN_TRANSCRIPTS = {
    ("wda", "plain"): [
        "query=0/1 answer=2 accepted=1 insert_ops=0 bytes=63 reason=ok",
        "query=1/2 answer=6 accepted=1 insert_ops=0 bytes=63 reason=ok",
        "query=1/1 answer=8 accepted=1 insert_ops=0 bytes=63 reason=ok",
    ],
    ("wda", "cumulative"): [
        "# cumulative updates=3 window=2 n=26 size=4",
        "query=0/1 answer=5 accepted=1 insert_ops=0 bytes=54 reason=ok",
        "query=1/2 answer=8 accepted=1 insert_ops=0 bytes=54 reason=ok",
        "query=1/1 answer=8 accepted=1 insert_ops=0 bytes=54 reason=ok",
    ],
    ("wda", "levels"): [
        "# level=p1 k=8 size=7",
        "query=0/1 answer=3 accepted=1 insert_ops=0 bytes=69 reason=ok",
        "query=1/2 answer=6 accepted=1 insert_ops=0 bytes=69 reason=ok",
        "query=1/1 answer=8 accepted=1 insert_ops=0 bytes=69 reason=ok",
        "# level=p2 k=4 size=4",
        "query=0/1 answer=2 accepted=1 insert_ops=0 bytes=53 reason=ok",
        "query=1/2 answer=6 accepted=1 insert_ops=0 bytes=53 reason=ok",
        "query=1/1 answer=8 accepted=1 insert_ops=0 bytes=53 reason=ok",
    ],
    ("kvc_qa", "plain"): [
        "query=0/1 answer=2 accepted=1 insert_ops=3 bytes=116 reason=ok",
        "query=1/2 answer=6 accepted=1 insert_ops=9 bytes=130 reason=ok",
        "query=1/1 answer=8 accepted=1 insert_ops=12 bytes=140 reason=ok",
    ],
    ("kvc_qa", "cumulative"): [
        "# cumulative updates=3 window=2 n=26 size=4",
        "query=0/1 answer=5 accepted=1 insert_ops=8 bytes=117 reason=ok",
        "query=1/2 answer=8 accepted=1 insert_ops=12 bytes=127 reason=ok",
        "query=1/1 answer=8 accepted=1 insert_ops=15 bytes=131 reason=ok",
    ],
    ("kvc_qa", "levels"): [
        "# level=p1 k=8 size=7",
        "query=0/1 answer=3 accepted=1 insert_ops=4 bytes=117 reason=ok",
        "query=1/2 answer=6 accepted=1 insert_ops=9 bytes=132 reason=ok",
        "query=1/1 answer=8 accepted=1 insert_ops=15 bytes=146 reason=ok",
        "# level=p2 k=4 size=4",
        "query=0/1 answer=2 accepted=1 insert_ops=1 bytes=116 reason=ok",
        "query=1/2 answer=6 accepted=1 insert_ops=4 bytes=125 reason=ok",
        "query=1/1 answer=8 accepted=1 insert_ops=5 bytes=130 reason=ok",
    ],
    ("kvc_qa_accelerated", "plain"): [
        "query=0/1 answer=2 accepted=1 insert_ops=3 bytes=116 reason=ok",
        "query=1/2 answer=6 accepted=1 insert_ops=6 bytes=130 reason=ok",
        "query=1/1 answer=8 accepted=1 insert_ops=9 bytes=140 reason=ok",
    ],
    ("kvc_qa_accelerated", "cumulative"): [
        "# cumulative updates=3 window=2 n=26 size=4",
        "query=0/1 answer=5 accepted=1 insert_ops=1 bytes=117 reason=ok",
        "query=1/2 answer=8 accepted=1 insert_ops=5 bytes=127 reason=ok",
        "query=1/1 answer=8 accepted=1 insert_ops=8 bytes=131 reason=ok",
    ],
    ("kvc_qa_accelerated", "levels"): [
        "# level=p1 k=8 size=7",
        "query=0/1 answer=3 accepted=1 insert_ops=4 bytes=117 reason=ok",
        "query=1/2 answer=6 accepted=1 insert_ops=6 bytes=132 reason=ok",
        "query=1/1 answer=8 accepted=1 insert_ops=12 bytes=146 reason=ok",
        "# level=p2 k=4 size=4",
        "query=0/1 answer=2 accepted=1 insert_ops=1 bytes=116 reason=ok",
        "query=1/2 answer=6 accepted=1 insert_ops=4 bytes=125 reason=ok",
        "query=1/1 answer=8 accepted=1 insert_ops=5 bytes=130 reason=ok",
    ],
}


class TestScripts:
    def test_omit_left_requires_commitment_scheme(self):
        with pytest.raises(ValueError):
            Scenario("wda", ResponderBehavior.omit_left({10}), QUERIES)

    def test_tamper_needs_nonzero_delta(self):
        with pytest.raises(ValueError):
            ResponderBehavior.tamper_count(4, 0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            Scenario("merkle", ResponderBehavior.honest(), QUERIES)

    def test_query_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match="out of"):
            Scenario("wda", ResponderBehavior.honest(), (Fraction(3, 2),))

    def test_a_zero_denominator_is_refused_naming_the_entry(self):
        with pytest.raises(ValueError, match="zero denominator: '1/0'"):
            parse_scenario("scheme=wda\nbehavior=honest\nqueries=1/2,1/0\n")

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"window": -3}, "window"),
            ({"updates": 0}, "updates"),
            ({"updates": -2}, "updates"),
            ({"levels": (("a", 8, 0),), "window": 2}, "levels"),
            ({"levels": (("a", 8, 0),), "updates": 3}, "levels"),
            ({"window": True}, "window"),
        ],
    )
    def test_settings_that_cannot_run_are_refused(self, settings, message):
        with pytest.raises(ValueError, match=message):
            Scenario("kvc_qa", ResponderBehavior.honest(), QUERIES, **settings)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: ResponderBehavior("bogus"), "unknown responder behavior 'bogus'"),
            (lambda: ResponderBehavior.omit_left(set()), "omit_left behavior needs a nonempty omission set"),
            (lambda: parse_scenario("scheme=wda\nbehavior=tamper_count:4\nqueries=1/2\n"),
             "malformed tamper_count behavior: 'tamper_count:4'"),
            (lambda: parse_scenario("scheme=wda\nbehavior=bogus\nqueries=1/2\n"), "unknown behavior 'bogus'"),
            (lambda: parse_levels("a:x"), "malformed level entry 'a:x'"),
            (lambda: parse_levels("a"), "malformed level entry 'a'"),
            (lambda: parse_levels("a:1:2:3"), "malformed level entry 'a:1:2:3'"),
            (lambda: build_privacy_profile({1: 1}, 8, []), "need at least one privilege level"),
            (lambda: mean_bucket_depth(QDigest(8, 4)), "empty digest has no bucket depth"),
        ],
        ids=["behavior-bogus", "omit-left-empty", "tamper-count-short", "parse-behavior-bogus", "level-a:x",
             "level-a", "level-a:1:2:3", "no-levels", "empty-depth"],
    )
    def test_bad_inputs_are_refused_with_their_messages(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    def test_omit_left_refused_at_a_level_with_a_cut(self):
        # the omitted nodes are named in the full tree, which a cut level does not have
        omit = ResponderBehavior.omit_left({4})
        with pytest.raises(ValueError, match="omit_left"):
            Scenario("kvc_qa", omit, QUERIES, levels=(("a", 8, 0), ("b", 4, 1)))
        assert Scenario("kvc_qa", omit, QUERIES, levels=(("a", 8, 0), ("b", 4, 0))).levels[1] == ("b", 4, 0)


class TestSessions:
    def test_honest_wda_accepts_and_ships_whole_digest(self, s1):
        script = Scenario("wda", ResponderBehavior.honest(), QUERIES)
        records = run_session(script, build_from_frequencies(s1, 4, 8))
        digest_bytes = len(digest_to_bytes(build_from_frequencies(s1, 4, 8)))
        for rec in records:
            assert rec.accepted
            assert rec.bytes_moved == digest_bytes
            assert rec.insert_ops == 0

    @pytest.mark.parametrize("behavior", [ResponderBehavior.honest(), ResponderBehavior.tamper_count(12, 2)])
    def test_wda_session_makes_no_commitment(self, behavior):
        freqs = random_frequencies(random.Random(5), 4096, max_distinct=500)
        script = Scenario("wda", behavior, QUERIES)
        before = sha256_calls()
        records = run_session(script, build_from_frequencies(freqs, 64, 4096))
        assert sha256_calls() == before
        assert all(rec.accepted == (behavior.kind == "honest") for rec in records)

    def test_honest_kvc_accepts(self, s1):
        script = Scenario("kvc_qa", ResponderBehavior.honest(), QUERIES)
        assert all(rec.accepted for rec in run_session(script, build_from_frequencies(s1, 4, 8)))

    def test_honest_accelerated_never_costs_more(self, s1):
        digest = build_from_frequencies(s1, 4, 8)
        plain = run_session(Scenario("kvc_qa", ResponderBehavior.honest(), QUERIES), digest)
        accel = run_session(Scenario("kvc_qa_accelerated", ResponderBehavior.honest(), QUERIES), digest)
        for p, a in zip(plain, accel):
            assert a.accepted == p.accepted
            assert a.insert_ops <= p.insert_ops

    def test_omit_left_rejected(self, s1):
        # bucket 4 is the first post-order bucket of the s1 digest
        script = Scenario("kvc_qa", ResponderBehavior.omit_left({4}), (Fraction(1, 2),))
        records = run_session(script, build_from_frequencies(s1, 4, 8))
        assert records[0].accepted is False

    def test_worked_attack_session(self, example2_freqs, example2_digest):
        # the frequency set reconstructs the worked-example digest, so the
        # whole three-party attack run can be replayed end to end
        assert build_from_frequencies(example2_freqs, 5, 8) == example2_digest
        script = Scenario("kvc_qa", ResponderBehavior.omit_left({10}), (Fraction(1, 2),))
        record = run_session(script, build_from_frequencies(example2_freqs, 5, 8))[0]
        assert record.answer == 6
        assert not record.accepted

    def test_tampering_rejected_under_both_schemes(self, s1):
        for scheme in ("wda", "kvc_qa", "kvc_qa_accelerated"):
            script = Scenario(scheme, ResponderBehavior.tamper_count(12, 2), QUERIES)
            records = run_session(script, build_from_frequencies(s1, 4, 8))
            assert all(not rec.accepted for rec in records), scheme

    @pytest.mark.parametrize("scheme, reason", [("wda", "hash-mismatch"), ("kvc_qa", "malformed")])
    def test_a_tamper_that_empties_a_bucket_is_rejected(self, example2_digest, scheme, reason):
        # bucket 6 holds 2, so the tamper drops it and n falls from 15 to 13
        script = Scenario(scheme, ResponderBehavior.tamper_count(6, -2), (Fraction(1, 2),))
        (record,) = run_session(script, example2_digest)
        assert (record.accepted, record.reason) == (False, reason)

    def test_transcript_line_format(self, s1):
        script = Scenario("kvc_qa", ResponderBehavior.honest(), (Fraction(1, 2),))
        line = run_session(script, build_from_frequencies(s1, 4, 8))[0].transcript_line()
        assert line.startswith("query=1/2 answer=")
        assert " accepted=1 " in line and " insert_ops=" in line and " bytes=" in line
        assert line.endswith(" reason=ok")


class TestCumulative:
    def test_first_update_is_adopted_unchanged(self, s1):
        q0 = build_from_frequencies(s1, 4, 8)
        state = cumulative_update(CumulativeState(), q0)
        assert state.current == q0
        assert state.history_len == 1

    def test_full_mode_mass_accumulates(self):
        rng = random.Random(2)
        state = CumulativeState()
        total = 0
        for _ in range(10):
            q = build_from_frequencies(random_frequencies(rng, 64, max_distinct=20), 4, 64)
            total += q.n
            state = cumulative_update(state, q)
        assert state.current.n == total
        assert state.history_len == 10

    def test_windowed_mode_bounds_mass(self):
        rng = random.Random(3)
        w = 5
        state = CumulativeState(width=w)
        per_digest = []
        for _ in range(20):
            q = build_from_frequencies(random_frequencies(rng, 64, max_distinct=20), 4, 64)
            per_digest.append(q.n)
            state = cumulative_update(state, q)
            assert state.current.n == sum(per_digest[-w:])
        assert state.current.n <= w * max(per_digest)

    @pytest.mark.parametrize("width", [1, 2, 5, 8])
    def test_each_window_is_the_left_fold_of_binary_merges(self, width):
        rng = random.Random(width)
        state = CumulativeState(width=width)
        stream = []
        for _ in range(3 * width + 4):
            freqs = log_uniform(rng, 4096, rng.randint(1, 300)) if rng.random() < 0.8 else {}
            q = build_from_frequencies(freqs, 16, 4096)
            stream.append(q)
            state = cumulative_update(state, q)
            assert state.window == tuple(stream[-width:])
            assert state.current == reduce(lambda a, b: iterative_compress(digest_sum(a, b)), state.window)
        if width == 1:
            assert state.current is stream[-1]  # a window of one is kept, not merged

    @pytest.mark.parametrize("width", [0, 1])  # a width-1 window never merges, so only the check refuses
    def test_incompatible_digest_refused(self, s1, width):
        state = cumulative_update(CumulativeState(width=width), build_from_frequencies(s1, 4, 8))
        with pytest.raises(ValueError, match="incompatible digest"):
            cumulative_update(state, build_from_frequencies(s1, 5, 8))

    def test_distribution_shift_depth_degrades_without_window(self):
        # lower-half-heavy stream followed by an upper-half-heavy stream:
        # the ever-growing cumulative digest ends with shallow buckets while
        # the sliding window keeps resolution near the leaves
        rng = random.Random(9)
        sigma, k, w = 64, 4, 5
        full = CumulativeState()
        windowed = CumulativeState(width=w)
        for i in range(50):
            if i < 25:
                values = range(1, sigma // 2 + 1)
            else:
                values = range(sigma // 2 + 1, sigma + 1)
            freqs = {v: rng.randint(1, 8) for v in rng.sample(list(values), 16)}
            q = build_from_frequencies(freqs, k, sigma)
            full = cumulative_update(full, q)
            windowed = cumulative_update(windowed, q)
        assert mean_bucket_depth(full.current) < mean_bucket_depth(windowed.current)


class TestPrivacyProfile:
    def test_k_one_level_collapses_to_root(self, s1):
        profile = build_privacy_profile(s1, 8, [("p1", 64, 0), ("p2", 8, 0), ("p3", 1, 0)])
        assert list(profile) == ["p1", "p2", "p3"]  # privilege order
        assert profile["p3"].buckets() == {1: 38}

    def test_each_level_validates_and_sizes_shrink(self):
        rng = random.Random(21)
        freqs = random_frequencies(rng, 256, max_distinct=120)
        profile = build_privacy_profile(freqs, 256, [("p1", 64, 0), ("p2", 8, 0), ("p3", 1, 0)])
        assert [(name, q.k) for name, q in profile.items()] == [("p1", 64), ("p2", 8), ("p3", 1)]
        sizes = [q.size for q in profile.values()]
        for q in profile.values():
            assert validate(q).ok
            assert q.size <= 4 * q.k + 1
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_error_grows_as_privilege_drops(self):
        from qdigest_auth.digest import quantile_query

        rng = random.Random(8)
        freqs = random_frequencies(rng, 256, max_distinct=150)
        profile = build_privacy_profile(freqs, 256, [("p1", 512, 0), ("p2", 8, 0), ("p3", 1, 0)])

        def mean_error(q):
            return sum(
                abs(exact_quantile(freqs, frac) - quantile_query(q, frac)) for frac in grid(21)
            ) / 21

        errors = [mean_error(q) for q in profile.values()]
        assert errors[0] <= errors[1] <= errors[2]

    def test_non_monotone_parameters_refused(self, s1):
        with pytest.raises(ValueError):
            build_privacy_profile(s1, 8, [("p1", 4, 0), ("p2", 4, 0)])
        with pytest.raises(ValueError):
            build_privacy_profile(s1, 8, [("p1", 8, 1), ("p2", 4, 0)])
        with pytest.raises(ValueError, match="repeated: p1"):
            build_privacy_profile(s1, 8, [("p1", 8, 0), ("p1", 4, 0)])

    @pytest.mark.parametrize(
        "level, message",
        [
            (("p1", 4.9, 0), "compression parameter k must be a positive integer, got 4.9"),
            (("p1", 4, 0.5), "levels to cut must be a nonnegative integer, got 0.5"),
        ],
    )
    def test_a_fractional_k_or_cut_is_refused_not_truncated(self, s1, level, message):
        with pytest.raises(ValueError) as exc:
            build_privacy_profile(s1, 8, [level])
        assert str(exc.value) == message

    def test_coarse_levels_floor_precision(self, s1):
        profile = build_privacy_profile(s1, 8, [("p1", 8, 0), ("p2", 4, 1)])
        assert profile["p2"].leaf_width == 2


class TestScenarioFiles:
    def test_parse_minimal(self):
        scenario = parse_scenario("scheme=kvc_qa\nbehavior=honest\nqueries=0/1,1/2\n")
        assert scenario.scheme == "kvc_qa"
        assert scenario.queries == (Fraction(0), Fraction(1, 2))

    def test_parse_behaviors_and_options(self):
        scenario = parse_scenario(
            "# comment\nscheme=kvc_qa\nbehavior=omit_left:4,5\nqueries=1/2\nwindow=3\nupdates=6\n"
        )
        assert scenario.behavior.omit == frozenset({4, 5})
        assert scenario.window == 3 and scenario.updates == 6
        tampered = parse_scenario("scheme=wda\nbehavior=tamper_count:12:-1\nqueries=1/2\n")
        assert tampered.behavior.node == 12
        assert tampered.behavior.delta == -1

    def test_parse_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            parse_scenario("scheme=wda\n")

    def test_parse_rejects_a_repeated_key_spelled_with_spaces(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_scenario("scheme=wda\nscheme =kvc_qa\nbehavior=honest\nqueries=1/2\n")

    def test_levels_parse_as_triples(self):
        scenario = parse_scenario("scheme=wda\nbehavior=honest\nqueries=1/2\nlevels=p1:8,p2:4:1\n")
        assert scenario.levels == (("p1", 8, 0), ("p2", 4, 1))

    @pytest.mark.parametrize("scheme", ["wda", "kvc_qa", "kvc_qa_accelerated"])
    @pytest.mark.parametrize("shape", ["plain", "cumulative", "levels"])
    def test_golden_transcripts(self, s1, scheme, shape):
        settings = {"plain": "", "cumulative": "updates=3\nwindow=2\n", "levels": "levels=p1:8,p2:4:1\n"}[shape]
        scenario = parse_scenario(f"scheme={scheme}\nbehavior=honest\nqueries=0/1,1/2,1/1\n{settings}")
        assert run_scenario(scenario, s1, 4, 8) == GOLDEN_TRANSCRIPTS[scheme, shape]

    def test_run_scenario_transcripts(self, s1):
        scenario = parse_scenario("scheme=kvc_qa\nbehavior=honest\nqueries=0/1,1/2,1/1\n")
        lines = run_scenario(scenario, s1, 4, 8)
        assert len(lines) == 3
        assert all(line.startswith("query=") for line in lines)
        assert all(" accepted=1 " in line for line in lines)

    def test_run_scenario_with_levels(self, s1):
        scenario = parse_scenario(
            "scheme=kvc_qa\nbehavior=honest\nqueries=1/2\nlevels=p1:8,p2:2,p3:1\n"
        )
        lines = run_scenario(scenario, s1, 4, 8)
        assert sum(1 for line in lines if line.startswith("# level=")) == 3
        assert sum(1 for line in lines if line.startswith("query=")) == 3

    def test_a_stream_is_dealt_round_robin_into_at_most_one_slice_per_value(self):
        freqs = {3: 5, 1: 1, 2: 3}
        assert _split_stream(freqs, 2) == [{1: 1, 3: 5}, {2: 3}]
        assert _split_stream(freqs, 10) == [{1: 1}, {2: 3}, {3: 5}]
        assert _split_stream({}, 4) == []
        tracemalloc.start()
        try:
            assert len(_split_stream({1: 1, 2: 3}, 10**6)) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_run_scenario_with_window(self, s1):
        scenario = parse_scenario(
            "scheme=kvc_qa\nbehavior=honest\nqueries=1/2\nwindow=2\nupdates=4\n"
        )
        lines = run_scenario(scenario, s1, 4, 8)
        assert lines[0].startswith("# cumulative updates=4 window=2 ")
        assert lines[1].startswith("query=1/2 ") and " accepted=1 " in lines[1]
