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
`subtree_from_buckets` is the one rule, used for the whole digest, any
subtree and any zero subtree:

    commit(subtree of r) = Z(r) + sum over buckets b in it of (H(b, c_b) - H(b, 0)).

A proof's remainder, the nodes after a stop in post-order, is the whole
tree less the stop's post-order prefix, whose zero fold is Z(stop) plus
Z(left sibling) at each right turn of the root-to-stop path.  Z depends
only on sigma; `_zero_fold` memoizes the root and every subtree of more
than `_SHORT` leaves, at most max(sigma/_SHORT - 1, 1) ints per sigma.
Once it is warm, a commitment costs 2*|Q| SHA-256 calls for |Q| buckets
and a remainder at most 2*|Q| + 4*_SHORT (`sha256_calls` counts them).

This is a reference primitive, not a production one: additive hash
combiners need large moduli to resist generalized-birthday collision
search, and no formal security proof is claimed here.  The functions
below only assume the interface (Initialize / Insert plus homomorphic
combination), so a production key-value commitment can be slotted in.
"""

import hashlib
import hmac
from dataclasses import dataclass

from .digest import QDigest
from .tree import check_node, is_in_subtree, level, post_order_nodes, post_order_rank

# secp256k1 field prime: the largest prime below 2**256 - 2**32.
GROUP_PRIME = 2**256 - 2**32 - 977

_DOMAIN_TAG = b"qdigest-kvc-v1"
_KEY_BYTES = 8
_VALUE_BYTES = 16
_ENCODED_BYTES = 32
_PREFIX = "kvc1:"

# Exclusive upper bounds of an insertion's fixed-width key and value: node
# indices stay below 2**64, so a domain holds at most 2**63 values, and
# counts stay below 2**128.
KEY_LIMIT = 1 << (8 * _KEY_BYTES)
VALUE_LIMIT = 1 << (8 * _VALUE_BYTES)
MAX_SIGMA = KEY_LIMIT // 2

# Subtrees with at most this many leaves are folded node by node; taller
# ones and the root are memoized in _ZERO_FOLDS: sigma -> root -> Z(root).
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
        from .serialize import require_canonical  # serialize imports this module's limits

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
    material = _DOMAIN_TAG + key.to_bytes(_KEY_BYTES, "big") + value.to_bytes(_VALUE_BYTES, "big")
    return int.from_bytes(hashlib.sha256(material).digest(), "big") % GROUP_PRIME


def insert(c: Commitment, key: int, value: int) -> Commitment:
    """Add one (key, value) insertion; order of insertions never matters."""
    return Commitment((c.acc + _contribution(key, value)) % GROUP_PRIME)


def combine(c1: Commitment, c2: Commitment) -> Commitment:
    """Group sum: commits the multiset union of the two insertion sets."""
    return Commitment((c1.acc + c2.acc) % GROUP_PRIME)


def inverse(c: Commitment) -> Commitment:
    return Commitment((-c.acc) % GROUP_PRIME)


def _fold(records) -> int:
    return sum(_contribution(key, value) for key, value in records) % GROUP_PRIME


def commit_records(records) -> Commitment:
    """Fold of (key, value) insertions: the group sum of their contributions."""
    return Commitment(_fold(records))


def _zero_fold(sigma: int, root: int) -> int:
    """Z(root), the sum of H(node, 0) over root's subtree; memoized for the root and above _SHORT leaves."""
    memo = _ZERO_FOLDS.setdefault(sigma, {})
    if root in memo:
        return memo[root]
    if sigma >> level(root) <= _SHORT:
        z = _fold((node, 0) for node in post_order_nodes(sigma, root))
        if root > 1:
            return z
    else:
        z = _zero_fold(sigma, 2 * root) + _zero_fold(sigma, 2 * root + 1) + _contribution(root, 0)
    memo[root] = z % GROUP_PRIME
    return memo[root]


def _zero_prefix(sigma: int, node: int) -> int:
    """Sum of H(m, 0) over the nodes m up to and including `node` in post-order.

    Those are node's subtree and, at each right turn of the root-to-node
    path, the left sibling's subtree; no ancestor of node comes before it.
    """
    z = _zero_fold(sigma, node)
    while node > 1:
        if node & 1:
            z += _zero_fold(sigma, node - 1)
        node //= 2
    return z % GROUP_PRIME


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


def subtree_from_buckets(sigma: int, root: int, buckets) -> Commitment:
    """Z(root) plus H(b, c_b) - H(b, 0) per bucket: root's subtree holding these distinct buckets."""
    check_node(root, sigma)
    corrections = sum(_contribution(node, cnt) - _contribution(node, 0) for node, cnt in buckets)
    return Commitment((_zero_fold(sigma, root) + corrections) % GROUP_PRIME)


def subtree_commitment(q: QDigest, root: int) -> Commitment:
    """Fold of insertions for every node of the subtree, zeros included."""
    inside = ((node, cnt) for node, cnt in q.buckets().items() if is_in_subtree(node, root, q.sigma))
    return subtree_from_buckets(q.sigma, root, inside)


def commitment_after(q: QDigest, node: int) -> Commitment:
    """Fold of insertions for every node after `node` in post-order, zeros included."""
    rank = post_order_rank(node, q.sigma)
    after = ((b, cnt) for b, cnt in q.buckets().items() if post_order_rank(b, q.sigma) > rank)
    whole = subtree_from_buckets(q.sigma, 1, after)
    return Commitment((whole.acc - _zero_prefix(q.sigma, node)) % GROUP_PRIME)


def subtree_commitments(q: QDigest, roots) -> dict[int, Commitment]:
    return {root: subtree_commitment(q, root) for root in roots}


def zero_subtree_commitment(sigma: int, root: int) -> Commitment:
    """Fold of zero-valued insertions over a subtree.

    Depends only on the tree shape, not on any digest, so it is public
    setup data.
    """
    return subtree_from_buckets(sigma, root, ())
