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
`commit_subtree` is the one rule, for a subtree holding given buckets:
the whole digest, a precommitted subtree, or a zero subtree:

    commit(subtree r) = Z(r) + sum over buckets b in it of (H(b, c_b) - H(b, 0)).

`commit_prefix` applies it to the post-order prefix up to a proof's stop,
the disjoint subtrees of the prefix roots of `tree.split_at`, whose zero
fold is also Z(1) less the stop's ancestors and the suffix roots' subtrees
after it; it folds whichever side would make fewer SHA-256 calls.

Z depends only on sigma, so `_ZERO_ROOTS` ships Z(2) and Z(3) for each
power-of-two sigma from 2**11 to `COMMIT_MAX_SIGMA`: a process's first
commitment there makes 2*|Q| + 1 SHA-256 calls for |Q| buckets, not about
2*sigma + 2*|Q|, and its first prefix at most about sigma/2 + 2*|Q|, none
beyond 2*|Q| + log2(sigma) + 1 for a stop on the right spine of the tree
or of subtree 2.  `_zero_fold` memoizes nodes 1, 2 and 3 and every subtree
of more than `_SHORT` leaves when first needed, at most
min(2*sigma - 1, max(sigma/_SHORT - 1, 3)) ints per sigma.  Once it is
warm, a commitment costs 2*|Q| calls and a post-order prefix at most
2*|Q| + 4*_SHORT (`sha256_calls` counts them).

`fold_ranges` is the loop behind every node-by-node fold, given
sequences of node indices: a short subtree of `_zero_fold` comes as one
range per level, a literal verifier's prefix as one range per level of
each prefix root's subtree (up to 17 roots at sigma 2^16), and
`commit_subtree`'s corrections as the bucket nodes, folded once at
their counts and once at zero, and `_contribution` as one node.  Only
`_fold_part` hashes, one SHA-256 call per node, and only `fold_ranges`
counts, per thread; `_RECORD` is the one layout of an insertion's bytes.
It hashes with CPython's built-in SHA-256 constructor (`_sha2.sha256`
from 3.12, `_sha256.sha256` before), else `hashlib.sha256`: the digests
are the same bytes, but a 38-byte record costs about 0.6 us a call there
against 0.8 us in OpenSSL's, which spends most of it making and finishing
a context (2-vCPU Xeon VM, Python 3.11).  `wda` keeps `hashlib`, whose
SHA-NI path wins on a file of many blocks.

A fold of 2^13 nodes or more (`_SPLIT_NODES`) is split: a helper process,
forked on first use and reaped at exit, is sent the second half of every
range through a pipe and replies with one sum while the caller sums the
first halves; addition commutes, so the sum is the same.  Below that
size a round trip (about 50 us on a 2-vCPU VM, and a few ms for the fork)
costs more than it saves.  The fold stays in-process without `os.fork`,
with fewer than two usable CPUs or a second thread, and in a forked
child, which closes its copies of the pipes; if the fork fails or the
helper dies or errs, the caller folds what it did not return and drops it.

This is a reference primitive, not a production one: additive hash
combiners need large moduli to resist generalized-birthday collision
search, and no formal security proof is claimed here.  Nor can a sound
commitment be slotted in behind these calls: the prover's remainder uses
`inverse`, and `commit_subtree`, `commit_prefix` and `qqv_fast` rely on
additive zero folds, the public inverse that lets a forged remainder
verify (`kvcqa`).  A sound scheme needs its own proof format.
"""

import atexit
import contextlib
import hashlib
import hmac
import os
import struct
import threading
from bisect import bisect_left
from dataclasses import dataclass

from .digest import QDigest
from .serialize import KEY_LIMIT, VALUE_BYTES, VALUE_LIMIT, require_canonical
from .tree import check_node, level, split_at, subtree_ranges, subtree_test

# secp256k1 field prime: the largest prime below 2**256 - 2**32.
GROUP_PRIME = 2**256 - 2**32 - 977

_DOMAIN_TAG = b"qdigest-kvc-v1"
_ENCODED_BYTES = 32
_PREFIX = "kvc1:"

# The bytes one insertion hashes: the domain tag, then the key (`Q`, KEY_BYTES = 8) and the value, big-endian.
_RECORD = struct.Struct(f">{len(_DOMAIN_TAG)}sQ{VALUE_BYTES}s")
_ZERO_VALUE = bytes(VALUE_BYTES)
# The same bytes at value zero: pad bytes are zeros, so _ZERO_RECORD.pack(tag, node) == _RECORD.pack(tag, node, _ZERO_VALUE).
_ZERO_RECORD = struct.Struct(f">{len(_DOMAIN_TAG)}sQ{VALUE_BYTES}x")

try:  # CPython's own SHA-256, the fold's constructor (see above); the lookup is private to hashlib
    _sha256 = hashlib.__get_builtin_constructor("sha256")
except (AttributeError, ValueError):
    _sha256 = hashlib.sha256

# Subtrees with at most this many leaves are folded node by node; taller
# ones and nodes 1, 2 and 3 are memoized in _ZERO_FOLDS: sigma -> root -> Z(root).
_SHORT = 64
_ZERO_FOLDS: dict[int, dict[int, int]] = {}

# Z(2) and Z(3) per power-of-two sigma from 2**11 up, as `_zero_fold` would fold them; at
# 2**10 and below a first Z(1) folds at most 2,047 nodes.
_ZERO_ROOTS = {
    1 << 11: (0xb5fefa60e6a40b689dcbb3897638ae943b54acbaac24ebc098c5e84b7a69327d, 0xe1ff7183868159517dfb7c5266ec7283bfe4835166ac82cebde954d451a5634d),
    1 << 12: (0x959b17155a275aa0337a28139c33d0c552a3859a479fbc7005fcd2496d0d08cc, 0x74bed2f987be20098dfa1c3df3b72d11edcaa595996c338cba30eecaf1e06756),
    1 << 13: (0x673015010236f47d3e3ad634b5f1baf23ba32b4015696a62f0cd8ff0dcebb5c6, 0x23c77cc54e71e6a6fefd9e71741d1540cd3a7017f8d256145de46d674143a4a2),
    1 << 14: (0x9b21bc8bbecc856632c74c94a32b80f9bd38f84e409a1eca30b0bae3fc6cefbb, 0x7e1b5e6310a44cf91a8a7b01d89b630055762171876c01403eaefd0fcff7000c),
    1 << 15: (0x4a0e0b55585d41efc0a6084fcc1f60a52ad6e5075a88a8df324249e65eeec7af, 0x7eae6d675e766d389016ec7d0b418e33af5639a72f5bd3a453d78babd366fb6a),
    1 << 16: (0xb4b1e627562d21f4b576e306e8e00668cb7e864acfe6c09c66cb4ff8de5e0a89, 0xf60d2c39a09e0533ed1549c52d93e781a20b2109467ce0bc2a08012186185a12),
    1 << 17: (0x9cebd49c718c3a90e557b10284dedcbe147d0ac9e5275187e0a938a18ea29401, 0x3e6d13f0195b434c750d16b0c396372c336ada1cee6d899e71fa70f412fef1ed),
    1 << 18: (0x05318de60cc2ab0fb5842aeca3ab117d3f8e7d9b5bdff3b00bf16259e0f03e12, 0x47a3a93220bbe39209efd8ae25f86e4be1cd5196e71e69f10078b5eef2022dee),
    1 << 19: (0xb2b930bf1e7f247bf832648d24eb581a0dd0c03406ffaad187384a9c173e3f1f, 0xb3ffde55df304cc2ce42476d010959df05a4e7792eb56775e3e1f15cbadfe333),
    1 << 20: (0x5adc56b07e5c65a563c9ba4b725eadc2663dafcadaf5659d090107a7b95486f2, 0x02d13fdb7103a6bd68de9a991adf73d47f939cd53735661ba707744c8c1da5b8),
}

# The largest domain a commitment covers, the top of _ZERO_ROOTS; a larger sigma is
# refused.  It still bounds the cold zero folds of a first proof, which folds the
# cheaper side of its stop: up to about sigma/2 nodes, for a stop at node 6 or
# another whose two sides weigh the same (0.39 s at 2**20, 2-vCPU Xeon VM).
COMMIT_MAX_SIGMA = max(_ZERO_ROOTS)


class _Calls(threading.local):
    made = 0  # the SHA-256 calls `fold_ranges` has counted in this thread


_calls = _Calls()
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
    """How many SHA-256 calls insertions have made for this thread so far.

    The calls the helper process makes for this thread's folds are
    included.  A `hashlib` wrapper sees none of them: `_fold_part` hashes
    with `_sha256`, CPython's built-in constructor where there is one.
    """
    return _calls.made


def _contribution(key: int, value: int) -> int:
    if not isinstance(key, int) or key < 0 or key >= KEY_LIMIT:
        raise ValueError(f"key {key!r} does not fit the fixed-width encoding")
    if not isinstance(value, int) or value < 0 or value >= VALUE_LIMIT:
        raise ValueError(f"value {value!r} does not fit the fixed-width encoding")
    return fold_ranges([(key,)], {key: value}).acc


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

    The loop behind every fold, with no checks of its own: `tree`, the
    callers and `_contribution` ensure that each node fits the key and each
    count lies in [0, 2**128).  It counts one SHA-256 call per node and
    reduces mod p once, to the residue of the sum of reduced contributions.
    From `_SPLIT_NODES` nodes, the helper folds the second half of every range.
    """
    values = {node: cnt.to_bytes(VALUE_BYTES, "big") for node, cnt in counted.items()}
    nodes = sum(map(len, ranges))
    pipes = _helper_pipes() if nodes >= _SPLIT_NODES else None
    total = _fold_part(ranges, values) if pipes is None else _fold_in_two(ranges, values, *pipes)
    _calls.made += nodes
    return Commitment(total % GROUP_PRIME)


def _fold_part(ranges, values: dict[int, bytes]) -> int:
    """The unreduced sum of the ranges' nodes' contributions at their encoded values.

    A `range` of step 1 is cut at its counted nodes; the zero runs between them need no lookup.
    """
    sha256, from_bytes, pack, zero, tag = _sha256, int.from_bytes, _RECORD.pack, _ZERO_RECORD.pack, _DOMAIN_TAG
    keys = sorted(values)
    total = 0
    for nodes in ranges:
        if isinstance(nodes, range) and nodes.step == 1:
            inside = keys[bisect_left(keys, nodes.start):bisect_left(keys, nodes.stop)]
            zeros = [range(a + 1, b) for a, b in zip([nodes.start - 1] + inside, inside + [nodes.stop])]
        else:
            inside, zeros = nodes, ()
        for node in inside:
            total += from_bytes(sha256(pack(tag, node, values.get(node, _ZERO_VALUE))).digest(), "big")
        for run in zeros:
            for node in run:
                total += from_bytes(sha256(zero(tag, node)).digest(), "big")
    return total


def _fold_in_two(ranges, values, requests, replies) -> int:
    """`_fold_part` of the first half of every range here and of the second in the helper, or here what it did not return."""
    import pickle  # here and in the helper only: a process that never splits a fold does not load it
    ours = [nodes[:len(nodes) // 2] for nodes in ranges]
    theirs = [nodes[len(nodes) // 2:] for nodes in ranges]
    total = None
    try:
        pickle.dump((theirs, values), requests)
        requests.flush()
        total = _fold_part(ours, values)
        return total + pickle.load(replies)
    except BaseException as exc:
        _stop_helper()  # an exchange cut short would leave part of a message in a pipe
        if not isinstance(exc, (OSError, EOFError, pickle.UnpicklingError)):
            raise
    if total is None:  # the request did not reach the helper
        total = _fold_part(ours, values)
    return total + _fold_part(theirs, values)


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


def _memo(sigma: int) -> dict[int, int]:
    """The memo of sigma's zero folds, started from its `_ZERO_ROOTS` row."""
    memo = _ZERO_FOLDS.get(sigma)
    if memo is None:
        memo = _ZERO_FOLDS[sigma] = dict(zip((2, 3), _ZERO_ROOTS.get(sigma, ())))
    return memo


def _zero_fold(sigma: int, root: int) -> int:
    """Z(root), the sum of H(node, 0) over root's subtree; memoized for roots 1-3 and above _SHORT leaves.

    A sigma's memo starts from its `_ZERO_ROOTS` row, where Z(1) then costs one
    call; a taller root under 2 or 3 is folded the first time it is needed.
    Subtree 2 is the one `kvcqa.publish_kvc_auth` precommits, so after it the
    accelerated verifier's cross-check finds Z(2) memoized at any sigma.
    """
    memo = _memo(sigma)
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


def _fold_cost(memo: dict[int, int], sigma: int, roots, folded: set[int]) -> int:
    """The SHA-256 calls `_zero_fold` would make on these roots in turn, with the memo as it stands.

    folded gathers the roots those folds would memoize, so a later root finds them.
    """
    calls = 0
    for root in roots:
        if root in memo or root in folded:
            continue
        width = sigma >> level(root)
        if width <= _SHORT:
            calls += 2 * width - 1
            if root > 3:
                continue
        else:
            calls += _fold_cost(memo, sigma, (2 * root, 2 * root + 1), folded) + 1
        folded.add(root)
    return calls


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
    return commit_subtree(q.sigma, 1, q.buckets().items())


def commit_subtree(sigma: int, root: int, buckets) -> Commitment:
    """Z(root) plus H(b, c_b) - H(b, 0) per bucket: root's subtree holding these buckets.

    The buckets must be distinct nodes of that subtree, as every caller's are.  Refuses
    a root outside the tree, a sigma above the limit or a count outside [0, 2**128) before
    any hashing.  The corrections are the buckets' `fold_ranges` at their counts less at zero.
    """
    check_node(root, sigma)
    corrections = _corrections(sigma, buckets)
    return Commitment((_zero_fold(sigma, root) + corrections) % GROUP_PRIME)


def commit_prefix(sigma: int, stop: int, buckets) -> Commitment:
    """The post-order prefix up to stop holding these buckets, its zero fold from the cheaper side of `tree.split_at`.

    The prefix is the disjoint subtrees of the prefix roots; the nodes after
    stop are its ancestors and the suffix roots' subtrees, so the prefix's
    zero fold is also Z(1) less H(a, 0) per ancestor a less Z per suffix
    root: by additivity the same group element.  Of the two, the one whose
    `_zero_fold`s would make fewer SHA-256 calls with the memo as it stands
    is taken, the prefix roots' on a tie.  Refuses what `commit_subtree`
    refuses, before any hashing.
    """
    roots, ancestors, suffix = split_at(stop, sigma)
    corrections = _corrections(sigma, buckets)
    memo = _memo(sigma)
    if len(ancestors) + _fold_cost(memo, sigma, [1, *suffix], set()) < _fold_cost(memo, sigma, roots, set()):
        zeros = _zero_fold(sigma, 1) - fold_ranges([ancestors], {}).acc - sum(_zero_fold(sigma, r) for r in suffix)
    else:
        zeros = sum(_zero_fold(sigma, root) for root in roots)
    return Commitment((zeros + corrections) % GROUP_PRIME)


def _corrections(sigma: int, buckets) -> int:
    """H(b, c_b) - H(b, 0) summed over the buckets, once sigma and every count are checked: their fold at the counts less at zero."""
    if sigma > COMMIT_MAX_SIGMA:
        raise ValueError(f"sigma {sigma} exceeds the commitment limit {COMMIT_MAX_SIGMA}")
    counted = dict(buckets)
    for cnt in counted.values():
        if not isinstance(cnt, int) or not 0 <= cnt < VALUE_LIMIT:
            raise ValueError(f"value {cnt!r} does not fit the fixed-width encoding")
    nodes = [list(counted)]
    return fold_ranges(nodes, counted).acc - fold_ranges(nodes, {}).acc


def subtree_commitment(q: QDigest, root: int) -> Commitment:
    """Fold of insertions for every node of the subtree, zeros included."""
    inside = subtree_test(root, q.sigma)
    return commit_subtree(q.sigma, root, [(node, cnt) for node, cnt in q.buckets().items() if inside(node)])


def subtree_commitments(q: QDigest, roots) -> dict[int, Commitment]:
    return {root: subtree_commitment(q, root) for root in roots}
