"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
stated inline; randomized criteria use fixed seeds so the suite is
reproducible bit for bit.
"""

import random
import time
from fractions import Fraction

from qdigest_auth.bench import run_bench
from qdigest_auth.commitment import (
    combine,
    commit_digest,
    commit_records,
    initialize,
    insert,
    subtree_commitment,
)
from qdigest_auth.digest import (
    QDigest,
    build_from_frequencies,
    compress_one_pass,
    digest_sum,
    iterative_compress,
    nabla,
    quantile_query,
    recursive_compress,
    validate,
)
from qdigest_auth.kvcqa import aqq, malicious_aqq_omit_left, qqv, qqv_accelerated
from qdigest_auth.scenario import CumulativeState, cumulative_update, mean_bucket_depth
from qdigest_auth.tree import post_order_nodes, post_order_rank
from qdigest_auth.wda import wda_authinfo, wda_verify

from helpers import exact_quantile, grid, random_frequencies

S1 = {1: 1, 2: 2, 3: 3, 4: 4, 5: 6, 6: 6, 7: 7, 8: 9}
S2 = {1: 8, 2: 7, 3: 6, 4: 5, 5: 4, 6: 3, 7: 2, 8: 1}
EXAMPLE2 = {1: 1, 6: 2, 7: 2, 10: 4, 11: 6}


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_flawed_merge_regression():
    """Exact match with the worked counterexample; zero tolerance, < 1 s."""
    start = time.perf_counter()
    q1 = build_from_frequencies(S1, 4, 8)
    q2 = build_from_frequencies(S2, 4, 8)
    assert q1.buckets() == {4: 3, 5: 7, 12: 6, 13: 6, 14: 7, 15: 9}
    assert q2.buckets() == {6: 7, 7: 3, 8: 8, 9: 7, 10: 6, 11: 5}
    flawed = compress_one_pass(digest_sum(q1, q2))
    assert flawed.buckets() == {1: 10, 4: 18, 5: 18, 12: 6, 13: 6, 14: 7, 15: 9}
    report_ = validate(flawed)
    assert 15 in report_.prop2_violations
    assert nabla(flawed, 15) == 16
    assert flawed.n // flawed.k == 74 // 4 == 18
    assert time.perf_counter() - start < 1.0
    report(1, "flawed one-pass merge regression")


def test_criterion_02_corrected_compression_property_suite():
    """1000 random sums; both algorithms leave zero violations; < 30 s."""
    start = time.perf_counter()
    rng = random.Random("criterion-2")
    sigmas = [2**e for e in range(3, 11)]
    for _ in range(1000):
        sigma = rng.choice(sigmas)
        k = rng.randint(1, 64)
        a = build_from_frequencies(
            random_frequencies(rng, sigma, max_distinct=100, max_mult=50), k, sigma
        )
        b = build_from_frequencies(
            random_frequencies(rng, sigma, max_distinct=100, max_mult=50), k, sigma
        )
        s = digest_sum(a, b)
        assert s.n <= 10_000
        for compress in (recursive_compress, iterative_compress):
            out = compress(s)
            rep = validate(out)
            assert not rep.prop1_violations and not rep.prop2_violations
            assert out.size <= 4 * k + 1
            assert out.n == s.n
    assert time.perf_counter() - start < 30.0
    report(2, "corrected compression on 1000 random sums")


def test_criterion_03_construction_bound():
    """1000 random builds satisfy the construction invariant and |Q| <= 2k+1."""
    rng = random.Random("criterion-3")
    sigmas = [2**e for e in range(3, 11)]
    for _ in range(1000):
        sigma = rng.choice(sigmas)
        k = rng.randint(1, 64)
        q = build_from_frequencies(random_frequencies(rng, sigma), k, sigma)
        rep = validate(q)
        assert rep.ok
        assert rep.construction_invariant_holds
        assert q.size <= 2 * k + 1
    report(3, "construction invariant and 2k+1 bound on 1000 builds")


def _spine_candidate(rng: random.Random, sigma: int, k: int) -> QDigest:
    """Random chain-with-siblings digest, the shape that can exceed 3k buckets."""
    leaf_level = sigma.bit_length() - 1
    node = 1
    counts = {1: rng.randint(1, 2)}
    for _ in range(1, leaf_level):
        node = 2 * node + rng.randint(0, 1)
        counts[node] = rng.randint(1, 4)
        counts[node ^ 1] = rng.randint(1, 2)
    counts[2 * node] = rng.randint(1, 3)
    counts[2 * node + 1] = rng.randint(1, 3)
    return QDigest(sigma, k, counts)


def test_criterion_04_size_bound_witness_beyond_3k():
    """Randomized search at sigma=64, k=4 finds a valid digest with |Q| > 3k."""
    rng = random.Random("criterion-4")
    sigma, k = 64, 4
    witness = None
    for _ in range(50_000):
        q = _spine_candidate(rng, sigma, k)
        rep = validate(q)
        if rep.ok and q.size > 3 * k:
            witness = q
            break
    assert witness is not None, "no witness found within the search budget"
    assert witness.size > 3 * k
    assert witness.size <= 4 * k + 1
    assert validate(witness).ok
    report(4, f"valid digest with {witness.size} > 3k buckets (n={witness.n})")


def test_criterion_05_exact_quantile_degeneration():
    """k > n: quantile answers equal the brute-force oracle on a 101-point grid."""
    rng = random.Random("criterion-5")
    qgrid = grid(101)
    for _ in range(200):
        sigma = rng.choice([8, 16, 32, 64, 128])
        freqs = random_frequencies(rng, sigma, max_distinct=40, max_mult=20)
        n = sum(freqs.values())
        q = build_from_frequencies(freqs, n + 1, sigma)
        assert q.size == len(freqs)  # degenerates into a list of frequencies
        for frac in qgrid:
            assert quantile_query(q, frac) == exact_quantile(freqs, frac)
    report(5, "degenerate digests answer exactly on 200 random inputs")


def test_criterion_06_example2_golden():
    """The worked authenticated query: answer, prefix, node set, checks, accept."""
    start = time.perf_counter()
    q = QDigest(8, 5, EXAMPLE2)
    c = commit_digest(q)
    n = q.n
    proof = aqq(q, Fraction(1, 2))
    assert proof.answer == 4
    assert proof.counted == ((10, 4), (11, 6))

    target = Fraction(1, 2) * n
    counted_sum = sum(cnt for _, cnt in proof.counted)
    assert counted_sum == 10 and counted_sum >= target == Fraction(15, 2)
    assert counted_sum - proof.counted[-1][1] == 4 < target

    stop_rank = post_order_rank(11, 8)
    inserted = [node for pos, node in enumerate(post_order_nodes(8), 1) if pos <= stop_rank]
    assert inserted == [8, 9, 4, 10, 11]

    stats = qqv(proof, c, n, 8)
    assert stats.accepted and stats.insert_ops == 5
    assert time.perf_counter() - start < 1.0
    report(6, "worked authenticated query verifies with 5 insertions")


def test_criterion_07_omit_left_attack_rejected():
    """The worked attack and every nonempty omission over 200 random digests."""
    q = QDigest(8, 5, EXAMPLE2)
    c = commit_digest(q)
    mal = malicious_aqq_omit_left(q, Fraction(1, 2), {10})
    assert mal.answer == 6
    assert not qqv(mal, c, q.n, 8).accepted

    rng = random.Random("criterion-7")
    digests = 0
    rejected = 0
    while digests < 200:
        sigma = rng.choice([8, 16])
        k = rng.randint(1, 3)
        freqs = random_frequencies(rng, sigma, max_distinct=sigma, max_mult=9)
        dig = build_from_frequencies(freqs, k, sigma)
        if dig.size < 2:
            continue
        frac = rng.choice([Fraction(1, 2), Fraction(3, 4), Fraction(1)])
        honest = aqq(dig, frac)
        before = [node for node, _ in honest.counted[:-1]]
        if not before:
            continue
        digests += 1
        trusted = commit_digest(dig)
        for mask in range(1, 2 ** len(before)):
            omit = {before[i] for i in range(len(before)) if mask >> i & 1}
            proof = malicious_aqq_omit_left(dig, frac, omit)
            stats = qqv(proof, trusted, dig.n, sigma)
            assert not stats.accepted, (dig.buckets(), frac, omit)
            rejected += 1
    assert rejected > 500
    report(7, f"omit-left attack rejected in all {rejected} adversarial runs")


def test_criterion_08_wda_tamper_suite():
    """Every single-bucket mutation over 100 random digests is rejected."""
    rng = random.Random("criterion-8")
    mutations = 0
    for _ in range(100):
        sigma = rng.choice([8, 16, 32])
        k = rng.randint(1, 8)
        q = build_from_frequencies(random_frequencies(rng, sigma, max_distinct=sigma), k, sigma)
        auth = wda_authinfo(q)
        assert wda_verify(q, auth).accepted

        variants = []
        base = q.buckets()
        for node in base:
            up = dict(base)
            up[node] += 1
            variants.append(up)
            down = dict(base)
            if down[node] == 1:
                down.pop(node)
            else:
                down[node] -= 1
            variants.append(down)
            removed = dict(base)
            removed.pop(node)
            variants.append(removed)
        for node in range(1, 2 * sigma):
            if node not in base:
                added = dict(base)
                added[node] = 1
                variants.append(added)
        for counts in variants:
            if counts == base:
                continue
            mutated = QDigest(sigma, k, counts)
            assert not wda_verify(mutated, auth).accepted, (base, counts)
            mutations += 1
    assert mutations > 1000
    report(8, f"all {mutations} single-bucket mutations rejected")


def test_criterion_09_commitment_algebra():
    """Four algebraic laws, 1000 randomized trials each, and one shuffle of
    10,000 records with keys and values up to 2**40; zero failures."""
    rng = random.Random("criterion-9")

    def random_records(max_len=60):
        return [
            (rng.randint(1, 10**6), rng.randint(0, 10**9))
            for _ in range(rng.randint(0, max_len))
        ]

    for _ in range(1000):
        records = random_records()
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert commit_records(records) == commit_records(shuffled)

    records = [(rng.randint(1, 2**40), rng.randint(0, 2**40)) for _ in range(10_000)]
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert commit_records(records) == commit_records(shuffled)

    for _ in range(1000):
        a, b = random_records(), random_records()
        assert combine(commit_records(a), commit_records(b)) == commit_records(a + b)

    for _ in range(1000):
        key, value = rng.randint(1, 10**6), rng.randint(0, 10**9)
        once = insert(initialize(), key, value)
        assert insert(once, key, value) != once

    anchor = insert(initialize(), 7, 3)
    for _ in range(1000):
        key = rng.randint(1, 10**6)
        assert insert(anchor, key, 0) != anchor

    report(9, "commitment algebra holds over 4 x 1000 randomized trials and a 10,000-record shuffle")


def test_criterion_10_accelerated_verifier_agreement():
    """1000 random (digest, q) pairs: same verdicts, never more insertions,
    strictly fewer whenever the stop bucket lies after the precomputed subtree."""
    rng = random.Random("criterion-10")
    pairs = 0
    accelerated_cases = 0
    while pairs < 1000:
        sigma = rng.choice([16, 32, 64, 128])
        k = rng.randint(1, 6)
        q = build_from_frequencies(
            random_frequencies(rng, sigma, max_distinct=sigma // 2), k, sigma
        )
        if q.n == 0:
            continue
        trusted = commit_digest(q)
        pre = {2: subtree_commitment(q, 2)}
        left_rank = post_order_rank(2, sigma)
        for _ in range(5):
            frac = rng.choice(grid(101))
            proof = aqq(q, frac)
            plain = qqv(proof, trusted, q.n, sigma)
            accel = qqv_accelerated(proof, trusted, pre, q.n, sigma)
            assert accel.accepted == plain.accepted == True  # noqa: E712
            assert accel.insert_ops <= plain.insert_ops
            if post_order_rank(proof.counted[-1][0], sigma) > left_rank:
                assert accel.insert_ops < plain.insert_ops
                accelerated_cases += 1
            pairs += 1
    assert accelerated_cases > 100
    report(10, f"accelerated verifier agreed on 1000 pairs, faster on {accelerated_cases}")


def test_criterion_11_cost_asymmetry():
    """Verifier insertions scale linearly with sigma at q=1; WDA bytes do not."""
    rows = run_bench([64, 256, 1024], [4], [Fraction(1)], seed=0)
    assert all(row.accepted for row in rows)
    by_sigma = {row.sigma: row for row in rows}
    ops = [by_sigma[s].verifier_insert_ops for s in (64, 256, 1024)]
    # consecutive sigma quadruples, so the op counts must quadruple within 20%
    for lo, hi in zip(ops, ops[1:]):
        ratio = hi / lo
        assert abs(ratio - 4.0) <= 0.8, ratio
    # per-sigma slope stays flat within 20% of its mean
    slopes = [ops[i] / s for i, s in enumerate((64, 256, 1024))]
    mean_slope = sum(slopes) / len(slopes)
    for slope in slopes:
        assert abs(slope - mean_slope) <= 0.2 * mean_slope

    wda_bytes = [by_sigma[s].wda_bytes for s in (64, 256, 1024)]
    sizes = [by_sigma[s].digest_size for s in (64, 256, 1024)]
    assert all(size <= 4 * 4 + 1 for size in sizes)
    # the hash preimage tracks |Q| (a few index digits wider at most), not sigma
    assert wda_bytes[2] < 2 * wda_bytes[0]
    assert ops[2] / ops[0] > 10
    report(11, f"verifier ops {ops} grow linearly; WDA bytes {wda_bytes} stay flat")


def test_criterion_12_cumulative_degradation():
    """Distribution shift over 50 digests: full cumulation ends shallower."""
    rng = random.Random("criterion-12")
    sigma, k, width = 64, 4, 5
    full = CumulativeState()
    windowed = CumulativeState(width=width)
    for i in range(50):
        half = range(1, sigma // 2 + 1) if i < 25 else range(sigma // 2 + 1, sigma + 1)
        freqs = {v: rng.randint(1, 8) for v in rng.sample(list(half), 16)}
        q = build_from_frequencies(freqs, k, sigma)
        full = cumulative_update(full, q)
        windowed = cumulative_update(windowed, q)
    full_depth = mean_bucket_depth(full.current)
    windowed_depth = mean_bucket_depth(windowed.current)
    assert full_depth < windowed_depth
    report(12, f"mean depth {full_depth:.2f} (full) < {windowed_depth:.2f} (windowed)")
