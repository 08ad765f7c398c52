"""Order-independent key-value commitments over digest trees.

The reference construction hashes each (key, value) insertion into the
additive group of integers modulo a fixed 256-bit prime and sums the
contributions, which makes insertion commutative, constant time, and
homomorphic: the commitment of a multiset union is the group sum of the
parts' commitments.  Inserting (key, 0) is deliberately *not* an identity
operation; committing the empty nodes of a tree is what lets a verifier
prove that a key is unset.

Additivity makes every commitment over part of the tree cheap, in the
style of Bellare and Micciancio's incremental AdHash.  With H one
insertion's contribution and Z(r) the sum of H(node, 0) over r's subtree,
`commit_subtrees` is the one rule, for any disjoint subtrees holding
given buckets: the whole digest, one subtree, a zero subtree, or the
post-order prefix up to a proof's stop (`tree.prefix_roots`):

    commit(subtrees r) = sum of Z(r) + sum over buckets b in them of (H(b, c_b) - H(b, 0)).

Z depends only on sigma; `_zero_fold` memoizes nodes 1, 2 and 3 and
every subtree of more than `_SHORT` leaves, at most
min(2*sigma - 1, max(sigma/_SHORT - 1, 3)) ints per sigma.  Once it is
warm, a commitment costs 2*|Q| SHA-256 calls for |Q| buckets and a
post-order prefix at most 2*|Q| + 4*_SHORT (`sha256_calls` counts them).

`fold_ranges` is the loop behind every node-by-node fold, given
sequences of node indices: a short subtree of `_zero_fold` comes as one
range per level, a literal verifier's prefix as one range per level of
each `tree.prefix_roots` subtree (up to 17 roots at sigma 2^16), and
`commit_subtrees`'s corrections as the bucket nodes, folded once at
their counts and once at zero.  It makes one SHA-256 call per node;
`_RECORD` is the one layout of an insertion's bytes, in `serialize`'s widths.

This is a reference primitive, not a production one: additive hash
combiners need large moduli to resist generalized-birthday collision
search, and no formal security proof is claimed here.  Nor can a sound
commitment be slotted in behind these calls: the prover's remainder uses
`inverse`, and `commit_subtrees` and `qqv_fast` rely on additive zero folds,
the public inverse that lets a forged remainder verify (`kvcqa`).  A sound
scheme needs its own proof format.
"""

import hashlib
import hmac
import struct
from dataclasses import dataclass
from itertools import repeat

from .digest import QDigest
from .serialize import KEY_LIMIT, VALUE_BYTES, VALUE_LIMIT, require_canonical
from .tree import check_node, level, subtree_ranges

# secp256k1 field prime: the largest prime below 2**256 - 2**32.
GROUP_PRIME = 2**256 - 2**32 - 977

_DOMAIN_TAG = b"qdigest-kvc-v1"
_ENCODED_BYTES = 32
_PREFIX = "kvc1:"

# The bytes one insertion hashes: the domain tag, then the key (`Q`, KEY_BYTES = 8) and the value, big-endian.
_RECORD = struct.Struct(f">{len(_DOMAIN_TAG)}sQ{VALUE_BYTES}s")
_ZERO_VALUE = bytes(VALUE_BYTES)

# The largest domain a commitment covers: the first commitment at a sigma makes
# 2*sigma - 1 zero insertions (about 6 s at 2**20); a larger sigma is refused.
COMMIT_MAX_SIGMA = 1 << 20

# Subtrees with at most this many leaves are folded node by node; taller
# ones and nodes 1, 2 and 3 are memoized in _ZERO_FOLDS: sigma -> root -> Z(root).
_SHORT = 64
_ZERO_FOLDS: dict[int, dict[int, int]] = {}

_sha256_calls = 0


@dataclass(frozen=True, eq=False)
class Commitment:
    """An element of the commitment group; compare with == (constant time)."""

    acc: int

    def __post_init__(self):
        if not isinstance(self.acc, int) or not 0 <= self.acc < GROUP_PRIME:
            raise ValueError("commitment value out of group range")

    def to_bytes(self) -> bytes:
        return self.acc.to_bytes(_ENCODED_BYTES, "big")

    def encode(self) -> str:
        return _PREFIX + self.to_bytes().hex()

    @classmethod
    def parse(cls, text: str) -> "Commitment":
        c = cls(int(text.removeprefix(_PREFIX), 16))
        require_canonical(text, c.encode(), "commitment")
        return c

    def __eq__(self, other) -> bool:
        if not isinstance(other, Commitment):
            return NotImplemented
        return hmac.compare_digest(self.to_bytes(), other.to_bytes())

    def __hash__(self) -> int:
        return hash(self.acc)

    def __repr__(self) -> str:
        return f"Commitment({self.encode()!r})"


def initialize() -> Commitment:
    """The group identity: the commitment of zero insertions."""
    return Commitment(0)


def sha256_calls() -> int:
    """How many SHA-256 calls insertions have made in this process so far.

    Not locked: calls made by several threads at once may be undercounted.
    """
    return _sha256_calls


def _contribution(key: int, value: int) -> int:
    global _sha256_calls
    if not isinstance(key, int) or key < 0 or key >= KEY_LIMIT:
        raise ValueError(f"key {key!r} does not fit the fixed-width encoding")
    if not isinstance(value, int) or value < 0 or value >= VALUE_LIMIT:
        raise ValueError(f"value {value!r} does not fit the fixed-width encoding")
    _sha256_calls += 1
    material = _RECORD.pack(_DOMAIN_TAG, key, value.to_bytes(VALUE_BYTES, "big"))
    return int.from_bytes(hashlib.sha256(material).digest(), "big") % GROUP_PRIME


def insert(c: Commitment, key: int, value: int) -> Commitment:
    """Add one (key, value) insertion; order of insertions never matters."""
    return Commitment((c.acc + _contribution(key, value)) % GROUP_PRIME)


def combine(c1: Commitment, c2: Commitment) -> Commitment:
    """Group sum: commits the multiset union of the two insertion sets."""
    return Commitment((c1.acc + c2.acc) % GROUP_PRIME)


def inverse(c: Commitment) -> Commitment:
    return Commitment((-c.acc) % GROUP_PRIME)


def commit_records(records) -> Commitment:
    """Fold of (key, value) insertions: the group sum of their contributions."""
    return Commitment(sum(_contribution(key, value) for key, value in records) % GROUP_PRIME)


def fold_ranges(ranges, counted: dict[int, int]) -> Commitment:
    """Fold of one insertion per node of the index ranges, valued counted.get(node, 0).

    The loop behind every literal fold, without `_contribution`'s checks:
    the nodes come from `tree` or lie in checked subtrees, so each fits
    the key, and the counts must lie in [0, 2**128), as the caller has
    checked.  It makes one SHA-256 call per node and reduces mod p once at
    the end, which gives the residue of the sum of reduced contributions.
    """
    global _sha256_calls
    sha256, from_bytes, pack, tag = hashlib.sha256, int.from_bytes, _RECORD.pack, _DOMAIN_TAG
    value_of = {node: cnt.to_bytes(VALUE_BYTES, "big") for node, cnt in counted.items()}.get
    total = 0
    for nodes in ranges:
        for node in nodes:
            total += from_bytes(sha256(pack(tag, node, value_of(node, _ZERO_VALUE))).digest(), "big")
        _sha256_calls += len(nodes)
    return Commitment(total % GROUP_PRIME)


def _zero_fold(sigma: int, root: int) -> int:
    """Z(root), the sum of H(node, 0) over root's subtree; memoized for roots 1-3 and above _SHORT leaves.

    Subtree 2 is the one `kvcqa.publish_kvc_auth` precommits, so after
    it the accelerated verifier's cross-check finds Z(2) memoized at any sigma.
    """
    memo = _ZERO_FOLDS.setdefault(sigma, {})
    if root in memo:
        return memo[root]
    if sigma >> level(root) <= _SHORT:
        z = fold_ranges(subtree_ranges(root, sigma), {}).acc
        if root > 3:
            return z
    else:
        z = _zero_fold(sigma, 2 * root) + _zero_fold(sigma, 2 * root + 1) + _contribution(root, 0)
    memo[root] = z % GROUP_PRIME
    return memo[root]


def member(c: Commitment, proof: Commitment, key: int, value: int) -> bool:
    """True iff inserting (key, value) into the proof reproduces c exactly.

    Non-membership of a key is membership of (key, 0)."""
    return insert(proof, key, value) == c


def commit_digest(q: QDigest) -> Commitment:
    """Commitment of a whole digest: one insertion per tree node.

    Every node of the full tree is inserted exactly once, empty nodes
    with value 0, and the sum is taken as Z(1) plus one correction per
    bucket.  Committing the zeros is what defeats the attack of hiding
    an early bucket in a query proof's remainder: the verifier inserts
    (index, 0) for nodes it believes are empty, and an equal commitment
    then proves they really are.
    """
    return subtree_commitment(q, 1)


def commit_subtrees(sigma: int, roots, buckets) -> Commitment:
    """Z(r) per root plus H(b, c_b) - H(b, 0) per bucket: disjoint subtrees holding these buckets.

    The buckets must be distinct nodes of those subtrees, as every caller's are.  Refuses
    a root outside the tree, a sigma above the limit or a count outside [0, 2**128) before
    any hashing.  The corrections are the buckets' `fold_ranges` at their counts less at zero.
    """
    for root in roots:
        check_node(root, sigma)
    if sigma > COMMIT_MAX_SIGMA:
        raise ValueError(f"sigma {sigma} exceeds the commitment limit {COMMIT_MAX_SIGMA}")
    counted = dict(buckets)
    counts = counted.values()
    typed = all(map(isinstance, counts, repeat(int)))
    if not typed or min(counts, default=0) < 0 or max(counts, default=0) >= VALUE_LIMIT:
        bad = next(cnt for cnt in counts if not isinstance(cnt, int) or not 0 <= cnt < VALUE_LIMIT)
        raise ValueError(f"value {bad!r} does not fit the fixed-width encoding")
    nodes = [list(counted)]
    corrections = fold_ranges(nodes, counted).acc - fold_ranges(nodes, {}).acc
    return Commitment((sum(_zero_fold(sigma, root) for root in roots) + corrections) % GROUP_PRIME)


def subtree_commitment(q: QDigest, root: int) -> Commitment:
    """Fold of insertions for every node of the subtree, zeros included."""
    check_node(root, q.sigma)
    width = root.bit_length()  # a node is in the subtree iff its top `width` bits spell root
    inside = [
        (node, cnt) for node, cnt in q.buckets().items()
        if node.bit_length() >= width and node >> (node.bit_length() - width) == root
    ]
    return commit_subtrees(q.sigma, [root], inside)


def subtree_commitments(q: QDigest, roots) -> dict[int, Commitment]:
    return {root: subtree_commitment(q, root) for root in roots}
