"""Shared generators and independent oracles for the test suite."""

import os
import random
from fractions import Fraction

import pytest

from qdigest_auth import commitment
from qdigest_auth.digest import QDigest, build_from_frequencies, digest_sum
from qdigest_auth.tree import node_range, post_order_rank

SIGMAS = [2**e for e in range(3, 11)]

# Where a fold of `commitment._SPLIT_NODES` nodes or more is shared with the helper process.
CAN_SPLIT = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
needs_helper = pytest.mark.skipif(not CAN_SPLIT, reason="the helper needs os.fork and two usable CPUs")


def helper_pid():
    """The pid of the helper this process forked, or None."""
    helper = commitment._helper
    return helper[1] if helper and helper[0] == os.getpid() else None


def random_frequencies(rng: random.Random, sigma: int, max_distinct: int = 200, max_mult: int = 50):
    distinct = rng.randint(1, min(sigma, max_distinct))
    values = rng.sample(range(1, sigma + 1), distinct)
    return {v: rng.randint(1, max_mult) for v in values}


def log_uniform(rng: random.Random, sigma: int, count: int) -> dict[int, int]:
    """`count` values in [1, sigma] with a uniform logarithm, as in perfbench's `wda_stream` batches."""
    freqs: dict[int, int] = {}
    for _ in range(count):
        v = min(sigma, int((sigma + 1) ** rng.random()))
        freqs[v] = freqs.get(v, 0) + 1
    return freqs


def random_digest(rng: random.Random, sigma: int | None = None, k: int | None = None) -> QDigest:
    sigma = sigma or rng.choice(SIGMAS)
    k = k or rng.randint(1, 64)
    return build_from_frequencies(random_frequencies(rng, sigma), k, sigma)


def random_sum(rng: random.Random, sigma: int | None = None, k: int | None = None) -> QDigest:
    sigma = sigma or rng.choice(SIGMAS)
    k = k or rng.randint(1, 64)
    a = build_from_frequencies(random_frequencies(rng, sigma), k, sigma)
    b = build_from_frequencies(random_frequencies(rng, sigma), k, sigma)
    return digest_sum(a, b)


def exact_quantile(freqs, fraction) -> int:
    """Brute-force oracle: smallest value whose cumulative count reaches q*n."""
    frac = Fraction(fraction)
    n = sum(freqs.values())
    target = frac * n
    acc = 0
    for value in sorted(freqs):
        acc += freqs[value]
        if acc >= target:
            return value
    raise AssertionError("unreachable for nonempty frequencies")


def rank_oracle(q: QDigest, x: int) -> int:
    """Independent enumeration of the rank rule: mass of buckets ending below x."""
    total = 0
    for node, cnt in q.buckets().items():
        if node_range(node, q.sigma)[1] * q.leaf_width < x:
            total += cnt
    return total


def quantile_oracle(q: QDigest, fraction) -> int:
    """Independent linear scan of the stop rule: buckets by `post_order_rank`, first to reach fraction * n."""
    target = Fraction(fraction) * q.n
    acc = 0
    for node, cnt in sorted(q.buckets().items(), key=lambda bucket: post_order_rank(bucket[0], q.sigma)):
        acc += cnt
        if acc >= target:
            break
    return node_range(node, q.sigma)[1] * q.leaf_width


def grid(points: int = 101):
    return [Fraction(i, points - 1) for i in range(points)]
