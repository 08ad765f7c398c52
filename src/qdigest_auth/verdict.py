"""Verdicts, and the checks every quantile answer passes before any scheme work.

Both schemes report a `VerificationStats`.  WDA verdicts carry
insert_ops 0.  `precheck` holds what a verifier checks of a claimed
answer without a commitment: the proof's shape, the post-order of its
counted prefix and the bracket of q*n.  A scheme adds its own checks
around it, so a second scheme imports these rather than the additive one.
All q*n comparisons use exact rational arithmetic so prover and verifier
can never disagree on a boundary.
"""

from dataclasses import dataclass
from fractions import Fraction

from .digest import counted_prefix, range_top
from .serialize import VALUE_LIMIT
from .tree import check_sigma, unchecked_rank

REASON_OK = "ok"
REASON_MALFORMED = "malformed"
REASON_COUNT_TOO_LOW = "count-too-low"
REASON_PREFIX_OVERSHOOT = "prefix-overshoot"


@dataclass(frozen=True)
class VerificationStats:
    """A verdict, its reason code and insert_ops: the SHA-256 calls made, 0 for a reject before any commitment work."""

    accepted: bool
    reason: str
    insert_ops: int


def _shape_error(proof, n: int, sigma: int, leaf_width: int):
    """Structural checks of a proof's q, n, counted prefix and answer; returns a reason or None."""
    if not isinstance(proof.q, Fraction) or not 0 <= proof.q <= 1:
        return "quantile out of range"
    if type(proof.n) is not int or proof.n != n:
        return "claimed n disagrees with trusted n"
    counted = proof.counted
    if not isinstance(counted, tuple) or not counted or any(not isinstance(e, tuple) or len(e) != 2 for e in counted):
        return "counted prefix is not a non-empty tuple of (index, count) pairs"
    check_sigma(sigma)  # a trusted sigma that is not a power of two raises, so each checked node is ranked unchecked
    last_rank = 0
    for node, cnt in counted:
        if type(node) is not int or not 1 <= node <= 2 * sigma - 1:
            return f"unknown node index {node!r}"
        if type(cnt) is not int or not 1 <= cnt < VALUE_LIMIT:
            return f"count for node {node} outside [1, 2**128)"
        rank = unchecked_rank(node, sigma)
        if rank <= last_rank:
            return "counted prefix is not strictly increasing in post-order"
        last_rank = rank
    if sum(cnt for _, cnt in counted) > n:
        return f"counted prefix sums to more than the trusted n={n}"
    stop = proof.counted[-1][0]
    if type(proof.answer) is not int or proof.answer != range_top(stop, sigma, leaf_width):
        return "answer does not match the stop bucket's range"
    return None


def precheck(proof, n: int, sigma: int, leaf_width: int) -> VerificationStats | None:
    """The checks before any commitment work: shape, then the bracket of q*n.

    `proof` has a q, n, answer and counted prefix.  Returns the reject,
    or None when the scheme must decide.
    """
    if _shape_error(proof, n, sigma, leaf_width) is not None:
        return VerificationStats(False, REASON_MALFORMED, 0)
    # The counts are at least 1, so the prover's stop rule, `counted_prefix`, trims
    # the prefix iff it overshoots, and returns it whole when it never reaches q*n.
    target = proof.q * n
    if len(counted_prefix(proof.counted, target)) < len(proof.counted):
        return VerificationStats(False, REASON_PREFIX_OVERSHOOT, 0)
    if sum(cnt for _, cnt in proof.counted) < target:
        return VerificationStats(False, REASON_COUNT_TOO_LOW, 0)
    return None
