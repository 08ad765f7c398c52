"""Order-independent key-value commitments over digest trees.

The reference construction hashes each (key, value) insertion into the
additive group of integers modulo a fixed 256-bit prime and sums the
contributions, which makes insertion commutative, constant time, and
homomorphic: the commitment of a multiset union is the group sum of the
parts' commitments.  Inserting (key, 0) is deliberately *not* an identity
operation; committing the empty nodes of a tree is what lets a verifier
prove that a key is unset.

This is a reference primitive, not a production one: additive hash
combiners need large moduli to resist generalized-birthday collision
search, and no formal security proof is claimed here.  The functions
below only assume the interface (Initialize / Insert plus homomorphic
combination), so a production key-value commitment can be slotted in.
"""

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache

from .digest import QDigest
from .tree import post_order_nodes

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


def _contribution(key: int, value: int) -> int:
    if not isinstance(key, int) or key < 0 or key >= KEY_LIMIT:
        raise ValueError(f"key {key!r} does not fit the fixed-width encoding")
    if not isinstance(value, int) or value < 0 or value >= VALUE_LIMIT:
        raise ValueError(f"value {value!r} does not fit the fixed-width encoding")
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


def commit_records(records) -> Commitment:
    """Fold of (key, value) insertions: the group sum of their contributions."""
    return Commitment(sum(_contribution(key, value) for key, value in records) % GROUP_PRIME)


def member(c: Commitment, proof: Commitment, key: int, value: int) -> bool:
    """True iff inserting (key, value) into the proof reproduces c exactly.

    Non-membership of a key is membership of (key, 0)."""
    return insert(proof, key, value) == c


def commit_digest(q: QDigest) -> Commitment:
    """Commitment of a whole digest: one insertion per tree node.

    Every node of the full tree is inserted exactly once, empty nodes
    with value 0.  Committing the zeros is what defeats the attack of
    hiding an early bucket in a query proof's remainder: the verifier
    inserts (index, 0) for nodes it believes are empty, and an equal
    commitment then proves they really are.
    """
    return subtree_commitment(q, 1)


def subtree_commitment(q: QDigest, root: int) -> Commitment:
    """Fold of insertions for every node of the subtree, zeros included."""
    return commit_records((node, q.count(node)) for node in post_order_nodes(q.sigma, root))


def subtree_commitments(q: QDigest, roots) -> dict[int, Commitment]:
    return {root: subtree_commitment(q, root) for root in roots}


@lru_cache(maxsize=None)
def zero_subtree_commitment(sigma: int, root: int) -> Commitment:
    """Fold of zero-valued insertions over a subtree.

    Depends only on the tree shape, not on any digest, so it is public
    setup data; results are memoized.
    """
    return commit_records((node, 0) for node in post_order_nodes(sigma, root))
