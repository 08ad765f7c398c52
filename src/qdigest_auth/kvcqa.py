"""Commitment-authenticated quantile queries.

The responder answers a quantile query with the post-order prefix of
buckets it counted plus a *remainder* commitment covering every tree
node strictly after the stop bucket (empty nodes committed at value 0).
The verifier completes the commitment by inserting one record per tree
node up to and including the stop bucket -- counts taken from the prefix
for listed nodes, 0 otherwise -- and accepts only if the result equals
the trusted whole-digest commitment and the prefix sums bracket q*n.
Those nodes are enumerated as the per-level index ranges of the
subtrees of `tree.split_at`'s prefix roots (`tree.prefix_ranges`), not
in post-order: insertion commutes, so the fold is the same group element
and the count of insertions the same.

The responder never visits the nodes after the stop: by additivity the
remainder is the whole tree holding only the buckets after the stop,
Z(1) plus their H(b, c_b) - H(b, 0) (`commitment.commit_subtree`), less
the zero fold of the post-order prefix up to the stop
(`commitment.commit_prefix`).  That zero fold comes from the cheaper
side of `tree.split_at`: the prefix roots' disjoint subtrees, or Z(1) less
the stop's ancestors and the suffix roots' subtrees, whichever folds
fewer nodes not yet memoized; the group element is the same.  With the
zero folds of a sigma memoized a proof costs O(|Q|) SHA-256 calls for
|Q| buckets.  `qqv_fast` checks a proof the same way: the prefix's
subtrees holding the counted buckets commit to the very group element
the literal fold reaches.  `qqv` and `qqv_accelerated` keep the paper's one
insertion per node up to the stop; the accelerated one cuts the
precommitted subtree out of them once the counted buckets inside it
rebuild its precommitment.  insert_ops is the SHA-256 calls made.

Inserting the zeros is not optional: without them a malicious responder
can omit an early bucket from the counted prefix and hide its insertion
in the remainder, shifting the reported answer rightward while the
commitment still balances.  With them, the verifier's (index, 0)
insertion for the omitted node gives that key multiplicity two against
one in the trusted commitment, and verification fails.  That defeats the
omit-left adversary as modelled; it is not soundness.  The remainder is
a bare group element and the reference commitment has a public inverse,
so remainder = C - fold(claimed prefix) makes any prefix that passes the
bracket checks verify (README, "Security caveat").  Soundness needs a
key-value commitment without a public inverse.

Every verifier first runs `precheck`, the checks that need no
commitment work: the remainder's type, the proof's shape, the post-order
of its counted prefix and the bracket of q*n.  The verdict record and the
shared reason codes live in `verdict`; `commitment-mismatch` lives here.
The text formats of proofs and of the source's KVC auth files
(`KvcAuthInfo`) live here too, with `publish_kvc_auth`, the source side
of the scheme.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from .commitment import (
    COMMIT_MAX_SIGMA,
    Commitment,
    combine,
    commit_digest,
    commit_prefix,
    commit_records,
    commit_subtree,
    fold_ranges,
    inverse,
    sha256_calls,
    subtree_commitments,
)
from .digest import QDigest, counted_prefix, query_fraction, range_top
from .serialize import VALUE_LIMIT, check_auth_parameters, field, header_fields, index_count, require_canonical
from .tree import check_sigma, is_power_of_two, prefix_ranges, subtree_size, subtree_test, unchecked_rank
from .verdict import REASON_COUNT_TOO_LOW, REASON_MALFORMED, REASON_OK, REASON_PREFIX_OVERSHOOT, VerificationStats

REASON_COMMITMENT_MISMATCH = "commitment-mismatch"
_MALFORMED = VerificationStats(False, REASON_MALFORMED, 0)
# The proof header's readers: q as its two integers, never `Fraction(text)`, which expands an exponent's digits.
PROOF_FIELDS = {"q": lambda text: Fraction(*map(int, text.split("/", 1))), "n": int, "answer": int}


@dataclass(frozen=True)
class QuantileProof:
    """Responder's reply: answer, counted post-order prefix, remainder commitment."""

    q: Fraction
    n: int
    answer: int
    counted: tuple[tuple[int, int], ...]
    remainder: Commitment


def aqq(q: QDigest, fraction) -> QuantileProof:
    """Authenticated quantile query (honest responder)."""
    return _respond(q, query_fraction(q, fraction), q.post_order_buckets())


def malicious_aqq_omit_left(q: QDigest, fraction, omit) -> QuantileProof:
    """The omit-left adversary: count as if `omit` buckets came after the stop.

    Omitted buckets are dropped from the counted prefix and their true
    insertions are folded into the remainder instead, skewing the
    accumulation so a later bucket answers the query.  `omit` must be a
    subset of the buckets strictly before the honest stop bucket.
    """
    frac = query_fraction(q, fraction)
    omit = frozenset(omit)
    ordered = q.post_order_buckets()
    if not omit <= {i for i, _ in counted_prefix(ordered, frac * q.n)[:-1]}:
        raise ValueError("omission set must contain only buckets before the honest stop bucket")
    # The kept stop ranks at or after the honest one, so kept's tail is every bucket after it;
    # if the omitted mass made q*n unreachable, the last bucket is claimed anyway.
    kept = [(node, cnt) for node, cnt in ordered if node not in omit]
    proof = _respond(q, frac, kept)
    return replace(proof, remainder=combine(proof.remainder, commit_records((node, q.count(node)) for node in omit)))


def _respond(q: QDigest, frac: Fraction, buckets) -> QuantileProof:
    """The proof counting `buckets`, a post-order list, up to q*n; the rest go to the remainder.

    The remainder is the whole tree holding the buckets after the stop,
    less the zero fold of the post-order prefix up to the stop.
    """
    counted = counted_prefix(buckets, frac * q.n)
    stop = counted[-1][0]
    after = commit_subtree(q.sigma, 1, buckets[len(counted):])
    prefix = commit_prefix(q.sigma, stop, ())
    remainder = combine(after, inverse(prefix))
    answer = range_top(stop, q.sigma, q.leaf_width)
    return QuantileProof(q=frac, n=q.n, answer=answer, counted=tuple(counted), remainder=remainder)


def precheck(proof: QuantileProof, n: int, sigma: int, leaf_width: int) -> VerificationStats | None:
    """The checks before any commitment work; returns the reject, or None when the commitment must decide.

    A proof is malformed unless, in this order: its remainder is a
    commitment; q is a Fraction in [0, 1] and n the trusted n; the counted
    prefix is a non-empty tuple of (node, count) pairs, each node in the
    tree and each count in [1, 2**128), strictly increasing in post-order
    and summing to at most n; and the answer is the stop bucket's range
    top.  Then the bracket of q*n, in exact rational arithmetic so prover
    and verifier never disagree on a boundary, gives its own reasons.
    """
    if not isinstance(proof.remainder, Commitment):
        return _MALFORMED
    if not isinstance(proof.q, Fraction) or not 0 <= proof.q <= 1:
        return _MALFORMED
    if type(proof.n) is not int or proof.n != n:
        return _MALFORMED
    counted = proof.counted
    if not isinstance(counted, tuple) or not counted or any(not isinstance(e, tuple) or len(e) != 2 for e in counted):
        return _MALFORMED
    check_sigma(sigma)  # a trusted sigma that is not a power of two raises, so each checked node is ranked unchecked
    last_rank = 0
    for node, cnt in counted:
        if type(node) is not int or not 1 <= node <= 2 * sigma - 1:
            return _MALFORMED
        if type(cnt) is not int or not 1 <= cnt < VALUE_LIMIT:
            return _MALFORMED
        rank = unchecked_rank(node, sigma)
        if rank <= last_rank:
            return _MALFORMED
        last_rank = rank
    total = sum(cnt for _, cnt in counted)
    if total > n:
        return _MALFORMED
    if type(proof.answer) is not int or proof.answer != range_top(counted[-1][0], sigma, leaf_width):
        return _MALFORMED
    # The counts are at least 1, so the prover's stop rule, `counted_prefix`, trims
    # the prefix iff it overshoots, and returns it whole when it never reaches q*n.
    target = proof.q * n
    if len(counted_prefix(counted, target)) < len(counted):
        return VerificationStats(False, REASON_PREFIX_OVERSHOOT, 0)
    if total < target:
        return VerificationStats(False, REASON_COUNT_TOO_LOW, 0)
    return None


def _verdict(matches: bool, ops: int) -> VerificationStats:
    return VerificationStats(matches, REASON_OK if matches else REASON_COMMITMENT_MISMATCH, ops)


def _fold_to_stop(proof: QuantileProof, start: Commitment, sigma: int, skip=None) -> Commitment:
    """Fold one insertion per node up to the stop, less skip's subtree, into start.

    The nodes go range by range rather than in post-order; insertion
    commutes, so the fold is the same group element.
    """
    return combine(start, fold_ranges(prefix_ranges(proof.counted[-1][0], sigma, skip), dict(proof.counted)))


def qqv(proof: QuantileProof, c: Commitment, n: int, sigma: int, leaf_width: int = 1) -> VerificationStats:
    """Quantile query verification against the trusted commitment and n.

    Accepts iff (i) the counted prefix sums to at least q*n, (ii) the
    prefix without its last bucket stays below q*n (a single-bucket
    prefix is exempt: at q = 0 it is the shortest non-empty prefix and
    the honest responder must stop on the very first bucket), and (iii)
    folding one insertion per tree node up to the stop bucket into the
    remainder reproduces the trusted commitment exactly.
    """
    rejected = precheck(proof, n, sigma, leaf_width)
    if rejected is not None:
        return rejected
    before = sha256_calls()
    return _verdict(_fold_to_stop(proof, proof.remainder, sigma) == c, sha256_calls() - before)


def qqv_fast(proof: QuantileProof, c: Commitment, n: int, sigma: int, leaf_width: int = 1) -> VerificationStats:
    """`qqv` through the zero fold: the same checks, verdict and reason in O(|Q|) SHA-256 calls.

    Once `precheck` passes, the counted buckets are distinct and rank at
    or before the stop, so remainder + Z(1..stop) + sum of H(b, c_b) -
    H(b, 0) over them is the group element `qqv` folds node by node.
    insert_ops is the SHA-256 calls the fold made, from `sha256_calls`.
    At a sigma above the commitment limit the fold raises ValueError
    before any hashing.
    """
    rejected = precheck(proof, n, sigma, leaf_width)
    if rejected is not None:
        return rejected
    before = sha256_calls()
    prefix = commit_prefix(sigma, proof.counted[-1][0], proof.counted)
    return _verdict(combine(proof.remainder, prefix) == c, sha256_calls() - before)


def qqv_accelerated(
    proof: QuantileProof,
    c: Commitment,
    precomputed: dict[int, Commitment],
    n: int,
    sigma: int,
    leaf_width: int = 1,
) -> VerificationStats:
    """Verification using precomputed subtree commitments.

    When some precomputed subtree lies wholly before the stop bucket in
    post-order, its commitment is combined into the fold instead of
    inserting its nodes one by one.  Cheapest check first: after
    `precheck`, the counted buckets claimed inside the skipped subtree
    must rebuild its precommitment through `commit_subtree`, or the proof
    is a `commitment-mismatch` before the O(sigma) fold to the stop.  A
    precommitment outside the tree or not a `Commitment` is malformed.
    insert_ops is the SHA-256 calls it made, from `sha256_calls`: after a
    cross-check reject only the check's, with its zero fold if not memoized.
    """
    rejected = precheck(proof, n, sigma, leaf_width)
    if rejected is not None:
        return rejected

    stop_rank = unchecked_rank(proof.counted[-1][0], sigma)  # `precheck` checked sigma and every counted node
    best_size, best, inside = 0, None, []
    for root, pc in precomputed.items():
        if type(root) is not int or not 1 <= root <= 2 * sigma - 1 or not isinstance(pc, Commitment):
            return _MALFORMED
        if unchecked_rank(root, sigma) >= stop_rank:
            continue
        size = subtree_size(root, sigma)
        holds = subtree_test(root, sigma)
        claims = [(node, cnt) for node, cnt in proof.counted if holds(node)]
        # skipping saves nothing unless the subtree outsizes its claims' rebuild; the first of equal sizes wins
        if size > 2 * len(claims) and size > best_size:
            best_size, best, inside = size, root, claims
    before = sha256_calls()
    # The counted claims inside a skipped subtree must rebuild its precommitment; O(|claims|), so first.
    rebuilt = best is None or commit_subtree(sigma, best, inside) == precomputed[best]
    start = proof.remainder if best is None else combine(proof.remainder, precomputed[best])
    return _verdict(rebuilt and _fold_to_stop(proof, start, sigma, skip=best) == c, sha256_calls() - before)


def proof_to_text(proof: QuantileProof) -> str:
    lines = [f"aqqproof v1 q={proof.q.numerator}/{proof.q.denominator} n={proof.n} answer={proof.answer}"]
    lines.extend(f"{node}:{cnt}" for node, cnt in proof.counted)
    lines.append(f"remainder={proof.remainder.encode()}")
    return "\n".join(lines) + "\n"


def proof_from_text(text: str) -> QuantileProof:
    header, *body = text.splitlines() or [""]
    q, n, answer = header_fields(header, "aqqproof v1", PROOF_FIELDS)
    counted = tuple(map(index_count, body[:-1]))
    remainder = field("remainder", body[-1].removeprefix("remainder=") if body else "", Commitment.parse)
    proof = QuantileProof(q, n, answer, counted, remainder)
    require_canonical(text, proof_to_text(proof), "proof file")
    return proof


@dataclass(frozen=True)
class KvcAuthInfo:
    """The source's KVC auth file: the digest's parameters, its commitment and the precommitted subtrees."""

    sigma: int
    k: int
    leaf_width: int
    n: int
    commitment: Commitment
    subtrees: dict[int, Commitment]

    def encode(self) -> str:
        lines = [
            f"kvcauth v1 sigma={self.sigma} k={self.k} leafwidth={self.leaf_width} n={self.n}",
            f"commitment={self.commitment.encode()}",
        ]
        lines.extend(f"subtree={root}:{c.encode()}" for root, c in sorted(self.subtrees.items()))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "KvcAuthInfo":
        """Refuses, naming the field, a sigma that is not a power of two up to
        the commitment limit 2**20, k below 1, a leaf width that is not a
        power of two, a negative n and a subtree root outside the tree.
        """
        header, *body = text.splitlines() or [""]
        sigma, k, leaf_width, n = header_fields(header, "kvcauth v1", dict.fromkeys(("sigma", "k", "leafwidth", "n"), int))
        check_auth_parameters("KVC", sigma, k, COMMIT_MAX_SIGMA)
        if not is_power_of_two(leaf_width):
            raise ValueError(f"KVC auth field leafwidth={leaf_width} is not a positive power of two")
        if n < 0:
            raise ValueError(f"KVC auth field n={n} is negative")
        commitment = field("commitment", body[0].removeprefix("commitment=") if body else "", Commitment.parse)
        subtrees = {}
        for line in body[1:]:
            root_text, _, ctext = line.removeprefix("subtree=").partition(":")
            root = field("subtree", root_text)
            if not 1 <= root <= 2 * sigma - 1:
                raise ValueError(f"KVC auth field subtree={root} is outside the tree [1, {2 * sigma - 1}]")
            subtrees[root] = field("subtree", ctext, Commitment.parse)
        auth = cls(sigma, k, leaf_width, n, commitment, subtrees)
        require_canonical(text, auth.encode(), "KVC auth file")
        return auth


def publish_kvc_auth(q: QDigest) -> KvcAuthInfo:
    """The source's KVC auth info: the whole-digest commitment and subtree 2 precommitted."""
    subtrees = [2] if q.sigma > 1 else []
    return KvcAuthInfo(q.sigma, q.k, q.leaf_width, q.n, commit_digest(q), subtree_commitments(q, subtrees))
