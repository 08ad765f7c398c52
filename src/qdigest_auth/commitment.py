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

A fold of 2^13 nodes or more (`_SPLIT_NODES`) is cut at half its
nodes: a helper process, forked on first use and reaped at exit, is sent
one half as pickled ranges through a pipe and sums it while the caller
sums the other; addition commutes, so the sum is the same.  Below that
size a round trip (about 50 us on a 2-vCPU VM, and a few ms for the fork)
costs more than it saves.  The fold stays in-process without `os.fork`,
with fewer than two usable CPUs or a second thread, and in a forked
child, which closes its copies of the pipes; if the fork fails or the
helper dies or errs, the caller folds its half and drops the helper.

This is a reference primitive, not a production one: additive hash
combiners need large moduli to resist generalized-birthday collision
search, and no formal security proof is claimed here.  Nor can a sound
commitment be slotted in behind these calls: the prover's remainder uses
`inverse`, and `commit_subtrees` and `qqv_fast` rely on additive zero folds,
the public inverse that lets a forged remainder verify (`kvcqa`).  A sound
scheme needs its own proof format.
"""

import atexit
import contextlib
import hashlib
import hmac
import os
import struct
import threading
from dataclasses import dataclass
from itertools import repeat

from .digest import QDigest
from .serialize import KEY_LIMIT, VALUE_BYTES, VALUE_LIMIT, require_canonical
from .tree import check_node, level, subtree_ranges, subtree_test

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

# A fold of at least this many nodes is split with the helper process,
# once forked (the forking pid, its pid, the request pipe, the reply pipe).
_SPLIT_NODES = 1 << 13
_helper = None


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
    """How many SHA-256 calls insertions have made for this process so far.

    The calls the helper process makes for this process's folds are
    included, so a `hashlib` wrapper installed here sees only this
    process's share of a fold of 2^13 nodes or more.  Not locked: calls
    made by several threads at once may be undercounted.
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


def fold_ranges(ranges: list, counted: dict[int, int]) -> Commitment:
    """Fold of one insertion per node of a list of index ranges, valued counted.get(node, 0).

    The loop behind every literal fold, without `_contribution`'s checks:
    the nodes come from `tree` or lie in checked subtrees, so each fits
    the key, and the counts must lie in [0, 2**128), as the caller has
    checked.  It makes one SHA-256 call per node and reduces mod p once at
    the end, which gives the residue of the sum of reduced contributions.
    A fold of `_SPLIT_NODES` or more is shared with the helper process.
    """
    global _sha256_calls
    values = {node: cnt.to_bytes(VALUE_BYTES, "big") for node, cnt in counted.items()}
    nodes = sum(map(len, ranges))
    pipes = _helper_pipes() if nodes >= _SPLIT_NODES else None
    total, calls = _fold_part(ranges, values) if pipes is None else _fold_in_two(ranges, values, nodes // 2, *pipes)
    _sha256_calls += calls
    return Commitment(total % GROUP_PRIME)


def _fold_part(ranges, values: dict[int, bytes]) -> tuple[int, int]:
    """The unreduced sum of the ranges' nodes' contributions at their encoded values, and the node count."""
    sha256, from_bytes, pack, tag, value_of = hashlib.sha256, int.from_bytes, _RECORD.pack, _DOMAIN_TAG, values.get
    total = calls = 0
    for nodes in ranges:
        for node in nodes:
            total += from_bytes(sha256(pack(tag, node, value_of(node, _ZERO_VALUE))).digest(), "big")
        calls += len(nodes)
    return total, calls


def _fold_in_two(ranges, values, cut, requests, replies) -> tuple[int, int]:
    """`_fold_part` of the first `cut` nodes here and of the rest in the helper, or here if the helper fails."""
    import pickle  # here and in the helper only: a process that never splits a fold does not load it
    for at, nodes in enumerate(ranges):
        if cut < len(nodes):
            break
        cut -= len(nodes)
    ours, theirs = [*ranges[:at], nodes[:cut]], [nodes[cut:], *ranges[at + 1:]]
    total = None
    try:
        pickle.dump((theirs, values), requests)
        requests.flush()
        total, calls = _fold_part(ours, values)
        their_total, their_calls = pickle.load(replies)
    except BaseException as exc:
        _stop_helper()  # an exchange cut short would leave part of a message in a pipe
        if not isinstance(exc, (OSError, EOFError, pickle.UnpicklingError)):
            raise
        if total is None:  # the request did not reach the helper
            return _fold_part(ranges, values)
        their_total, their_calls = _fold_part(theirs, values)
    return total + their_total, calls + their_calls


def _helper_pipes():
    """The helper's request and reply pipes, forking it on first use; None where a fold stays in this process."""
    global _helper
    usable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
    if not usable or threading.active_count() > 1:
        return None
    if _helper is None:
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        request_in, request_out, reply_in, reply_out = fds
        if pid == 0:  # the helper: it must not hold the request pipe's write end, or it never sees end of file
            try:
                import pickle
                os.close(request_out)
                requests, replies = os.fdopen(request_in, "rb"), os.fdopen(reply_out, "wb")
                while True:
                    pickle.dump(_fold_part(*pickle.load(requests)), replies)
                    replies.flush()
            finally:
                os._exit(0)
        os.close(request_in)
        os.close(reply_out)
        _helper = (os.getpid(), pid, os.fdopen(request_out, "wb"), os.fdopen(reply_in, "rb"))
    return _helper[2:] if _helper[0] == os.getpid() else None


def _stop_helper() -> None:
    """Close this process's ends of the helper's pipes, so it exits at end of file, and reap it if this process forked it."""
    global _helper
    if _helper is not None:
        owner, pid, *pipes = _helper
        for pipe in pipes:
            with contextlib.suppress(OSError):
                pipe.close()
        if owner == os.getpid():
            _helper = None
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


atexit.register(_stop_helper)
if hasattr(os, "register_at_fork"):  # a forked child keeps the record, so it folds in-process, but not the pipes
    os.register_at_fork(after_in_child=_stop_helper)


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
    inside = subtree_test(root, q.sigma)
    return commit_subtrees(q.sigma, [root], [(node, cnt) for node, cnt in q.buckets().items() if inside(node)])


def subtree_commitments(q: QDigest, roots) -> dict[int, Commitment]:
    return {root: subtree_commitment(q, root) for root in roots}
