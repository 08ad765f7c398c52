"""`verdict.precheck`, the answer checks both schemes share, on claims that carry no commitment."""

import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from qdigest_auth.digest import QDigest, counted_prefix, range_top
from qdigest_auth.verdict import VerificationStats, precheck

# the worked example, n = 15 at sigma 8
EXAMPLE = QDigest(8, 5, {1: 1, 6: 2, 7: 2, 10: 4, 11: 6})


def claim(q):
    """The honest answer at q with its counted prefix, as a record of no scheme: no remainder."""
    counted = tuple(counted_prefix(EXAMPLE.post_order_buckets(), q * EXAMPLE.n))
    return SimpleNamespace(q=q, n=EXAMPLE.n, answer=range_top(counted[-1][0], 8, 1), counted=counted)


def check(record):
    return precheck(record, EXAMPLE.n, EXAMPLE.sigma, EXAMPLE.leaf_width)


@pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)])
def test_an_honest_claim_is_left_to_the_scheme(q):
    assert check(claim(q)) is None


# A q outside [0, 1], or not a Fraction, is malformed: at 3/2 the bracket alone would call it
# count-too-low, and at -1/2 or 0.0 the one-bucket q = 0 prefix would pass it to the scheme.
@pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(-1, 2), 0.0, 0])
def test_a_quantile_outside_the_unit_interval_or_not_a_fraction_is_malformed(q):
    record = claim(Fraction(0))
    record.q = q
    assert check(record) == VerificationStats(False, "malformed", 0)


def test_the_bracket_of_q_n_gives_its_own_reasons():
    # the prefixes sum to 10 at q = 1/2 and to 12 at q = 3/4, n = 15
    short, long = claim(Fraction(1, 2)), claim(Fraction(3, 4))
    short.q, long.q = Fraction(4, 5), Fraction(1, 2)
    assert check(short) == VerificationStats(False, "count-too-low", 0)
    assert check(long) == VerificationStats(False, "prefix-overshoot", 0)


# A trusted sigma is the caller's to check; the honest claim's first counted node is in range at
# each of these, so the refusal cannot come from the node check instead.
@pytest.mark.parametrize("sigma", [6, 12, 8.0])
def test_a_trusted_sigma_that_is_not_a_power_of_two_raises(sigma):
    with pytest.raises(ValueError, match=re.escape(f"domain size must be a positive power of two, got {sigma!r}")):
        precheck(claim(Fraction(1, 2)), EXAMPLE.n, sigma, EXAMPLE.leaf_width)
