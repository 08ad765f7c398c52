"""The q-digest quantile summary and its compression algorithms.

A q-digest stores a distribution of integer values in [1, sigma] as
positive counts attached to nodes of the binary partition tree of the
domain.  A compression parameter k controls how aggressively low-count
nodes are merged into their parents; a digest is considered well formed
when every non-leaf bucket keeps its count at or below floor(n / k)
(property 1) and every non-root bucket b has
b.cnt + b.parent.cnt + b.sibling.cnt above floor(n / k) (property 2).

The classic single bottom-up compression pass can leave property 2
violated after two digests are summed, because a merge at an upper level
can empty a parent whose count an earlier check relied upon.  This module
keeps that pass available as `compress_one_pass` and provides two
repaired algorithms, `recursive_compress` and `iterative_compress`, that
always restore property 2.

Every digest built from values, plain or coarse, comes from `coarsen`:
it checks the input in bulk, takes the prefix sums of the multiplicities
in ascending value order once (through a value-indexed array, with no
sort, when the values cover at least half the domain), and `_descend`
goes from the root into the nodes whose subtree holds more than
floor(n / k) values, reading masses from those sums.
`merge` sums its digests in one map, re-sweeping after each sum's full pass
only the families whose parent a merge popped; queries bisect a post-order index.
"""

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat, starmap
from math import ceil
from typing import Iterable, Mapping, Sequence

from .tree import (
    check_sigma,
    is_power_of_two,
    level,
    next_power_of_two,
    node_range,
    sibling,
    unchecked_rank,
    unchecked_top,
)

FrequencySet = Mapping[int, int]
# `coarsen` reads a map of at least sigma / _DENSE values into an array indexed by value instead of sorting it.
_DENSE = 2


def _check_k(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"compression parameter k must be a positive integer, got {k!r}")


class QDigest:
    """Immutable sparse map from tree node index to positive count.

    `leaf_width` is 1 for ordinary digests; coarse-grained digests built
    over a reduced tree carry the width of the original value range each
    leaf aggregates, and query answers are scaled back by it.
    """

    __slots__ = ("sigma", "k", "leaf_width", "_counts", "_n", "_index", "_bytes")

    def __init__(self, sigma: int, k: int, counts: Mapping[int, int] | None = None, leaf_width: int = 1):
        check_sigma(sigma)
        _check_k(k)
        if not is_power_of_two(leaf_width):
            raise ValueError(f"leaf width must be a positive power of two, got {leaf_width!r}")
        self.sigma = sigma
        self.k = k
        self.leaf_width = leaf_width
        top = 2 * sigma - 1
        items: dict[int, int] = {}
        if counts:
            try:
                keys = sorted(counts)
            except TypeError:  # keys that do not compare, so not all are integers: the first such is refused below
                keys = [next(i for i in counts if not isinstance(i, int))]
            for i in keys:
                c = counts[i]
                if not isinstance(i, int) or not 1 <= i <= top:
                    raise ValueError(f"node index {i!r} out of range [1, {top}]")
                if not isinstance(c, int) or c < 1:
                    raise ValueError(f"count for node {i} must be a positive integer, got {c!r}")
                items[i] = c
        self._counts = items
        self._n = sum(items.values())
        self._index = None  # see _post_order_index
        self._bytes = None  # the canonical encoding, set whole by serialize.digest_to_bytes

    @property
    def n(self) -> int:
        """Total number of stored values."""
        return self._n

    @property
    def size(self) -> int:
        """Number of buckets (nodes with positive count)."""
        return len(self._counts)

    @property
    def domain_size(self) -> int:
        """Size of the original value domain (sigma * leaf_width)."""
        return self.sigma * self.leaf_width

    @property
    def threshold(self) -> int:
        """The compression bound floor(n / k)."""
        return self._n // self.k

    def count(self, i: int) -> int:
        return self._counts.get(i, 0)

    def buckets(self) -> dict[int, int]:
        """Copy of the index -> count map, in ascending index order."""
        return dict(self._counts)

    def post_order_buckets(self) -> list[tuple[int, int]]:
        """Buckets as (index, count) pairs sorted by post-order rank."""
        return list(self._post_order_index()[0])

    def _post_order_index(self) -> tuple[list[tuple[int, int]], list[int], list[int]]:
        """Post-order buckets, each one's largest original value, and sums[j], the mass of the first j buckets."""
        if self._index is None:  # built on first use, assigned whole: a reader sees all of it or none
            sigma, width = self.sigma, self.leaf_width  # the keys were checked against sigma
            buckets = sorted(self._counts.items(), key=lambda bucket: unchecked_rank(bucket[0], sigma))
            tops = [unchecked_top(i, sigma) * width for i, _ in buckets]
            self._index = (buckets, tops, list(accumulate((c for _, c in buckets), initial=0)))
        return self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, QDigest):
            return NotImplemented
        return (
            self.sigma == other.sigma
            and self.k == other.k
            and self.leaf_width == other.leaf_width
            and self._counts == other._counts
        )

    def __repr__(self) -> str:
        return (
            f"QDigest(sigma={self.sigma}, k={self.k}, n={self._n}, "
            f"size={self.size}, leaf_width={self.leaf_width})"
        )


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of checking one digest against every stated property."""

    prop1_violations: tuple[int, ...]
    prop2_violations: tuple[int, ...]
    size: int
    size_bound_ok: bool
    construction_invariant_holds: bool

    @property
    def ok(self) -> bool:
        """True when both defining properties hold."""
        return not self.prop1_violations and not self.prop2_violations


def nabla(q: QDigest, b: int) -> int:
    """Bottom-up neighborhood sum: own + parent + sibling counts (root: own only)."""
    if b == 1:
        return q.count(1)
    return q.count(b) + q.count(b // 2) + q.count(sibling(b))


def validate(q: QDigest) -> ValidityReport:
    """Check both count properties, the size bounds, and the construction invariant.

    Property 1 is required of every non-leaf bucket including the root;
    property 2 of every non-root bucket including leaves.  Reports, never
    raises.
    """
    thr = q.threshold
    prop1 = []
    prop2 = []
    has_bucket_child = False
    for b, cnt in q._counts.items():
        if b < q.sigma:
            if cnt > thr:
                prop1.append(b)
            if q.count(2 * b) or q.count(2 * b + 1):
                has_bucket_child = True
        if b != 1 and nabla(q, b) <= thr:
            prop2.append(b)
    return ValidityReport(
        prop1_violations=tuple(prop1),
        prop2_violations=tuple(prop2),
        size=q.size,
        size_bound_ok=q.size <= 4 * q.k + 1,
        construction_invariant_holds=not has_bucket_child,
    )


def check_compatible(q1: QDigest, q2: QDigest) -> None:
    """Refuses two digests that differ in sigma, k or leaf width."""
    if (q1.sigma, q1.k, q1.leaf_width) != (q2.sigma, q2.k, q2.leaf_width):
        raise ValueError(
            "incompatible digests: "
            f"(sigma={q1.sigma}, k={q1.k}, leaf_width={q1.leaf_width}) vs "
            f"(sigma={q2.sigma}, k={q2.k}, leaf_width={q2.leaf_width})"
        )


def digest_sum(q1: QDigest, q2: QDigest) -> QDigest:
    """Pointwise count sum.  Preserves property 1 but may violate property 2."""
    check_compatible(q1, q2)
    counts = dict(q1._counts)
    _add_counts(counts, q2)
    return QDigest(q1.sigma, q1.k, counts, q1.leaf_width)


def _add_counts(counts: dict[int, int], q: QDigest) -> None:
    counts.update({i: counts.get(i, 0) + c for i, c in q._counts.items()})


def _one_pass(counts: dict[int, int], threshold: int, keys: Iterable[int]) -> list[int]:
    """One bottom-up sweep over the families of keys, nodes present in counts, merging children into parents in place.

    Families are visited deepest level first, ascending index within a
    level.  A level's nodes are its slice of the sorted keys plus the
    parents made by merges at the level below, which arrive in ascending
    order; siblings are then adjacent, so each family is read once.  The
    next level is the deepest one holding a key or a made parent, so an
    empty level costs nothing.  Returns the children its merges popped.
    """
    keys = sorted(keys)
    end = len(keys)
    made: list[int] = []
    popped: list[int] = []
    while made or end:
        lvl = (made[0] if made else keys[end - 1]).bit_length() - 1  # made parents lie above every key left
        if not lvl:  # the root has no family above it
            break
        start = bisect_left(keys, 1 << lvl, 0, end)
        nodes = sorted(keys[start:end] + made) if made else islice(keys, start, end)
        end, made, last = start, [], 0
        for i in nodes:
            p = i >> 1
            if p == last:  # i's sibling, or a parent both kept and made, came first
                continue
            last = p
            l, r = 2 * p, 2 * p + 1
            total = counts.get(p, 0) + counts.get(l, 0) + counts.get(r, 0)
            if total <= threshold:
                counts[p] = total
                if counts.pop(l, 0):
                    popped.append(l)
                if counts.pop(r, 0):
                    popped.append(r)
                made.append(p)
    return popped


def _descend(v: int, height: int, lo: int, hi: int, values, sums, threshold: int, kept: dict, cut: int, base: int) -> int:
    """The mass arriving at node v, whose values are values[lo:hi]; children that do not merge go to kept, even at 0.

    `_one_pass` on a leaf-only map: with no parent present, a family moves up as
    one parent when its sum is at most threshold, so a subtree that light arrives
    whole at its root, and only heavier nodes open, at most k a level.  sums are
    the prefix sums of the ascending values' multiplicities; v is `height` levels
    above the full tree's leaves (leaf base + x holds value x), the build's `cut` above those.

    A module function taking its state as arguments, not a closure that calls
    itself: such a closure is a reference cycle that only the cycle collector frees.
    """
    mass = sums[hi] - sums[lo]
    if mass <= threshold or height == cut:  # a light subtree arrives whole, a leaf with its count
        return mass
    height -= 1
    mid = bisect_left(values, ((2 * v + 1) << height) - base, lo, hi)  # the right child's first value
    l = _descend(2 * v, height, lo, mid, values, sums, threshold, kept, cut, base)
    r = _descend(2 * v + 1, height, mid, hi, values, sums, threshold, kept, cut, base)
    if l + r > threshold:
        kept[2 * v], kept[2 * v + 1] = l, r
        return 0
    return l + r


def compress_one_pass(q: QDigest) -> QDigest:
    """The original single-sweep compression; may leave property 2 violated."""
    counts = dict(q._counts)
    _one_pass(counts, q.threshold, counts)
    return QDigest(q.sigma, q.k, counts, q.leaf_width)


def _compress_until_stable(counts: dict[int, int], threshold: int) -> None:
    """Sweep counts in place until the next pass would be given no keys: the first merges nothing, or a later one's pops leave none.

    The first pass sweeps every family.  A family that failed its check can
    merge at the same threshold only if its parent was popped later in that
    pass: its children change only by merges below it, which a pass reaches
    through its made parents.  So each later pass sweeps the still-present
    children of the nodes the one before popped.
    """
    keys: Iterable[int] = counts
    while keys:
        keys = [c for i in _one_pass(counts, threshold, keys) for c in (2 * i, 2 * i + 1) if c in counts]


def iterative_compress(q: QDigest) -> QDigest:
    """Repeat the single-sweep compression until a first pass merges nothing or a later one is given no keys."""
    counts = dict(q._counts)
    _compress_until_stable(counts, q.threshold)
    return QDigest(q.sigma, q.k, counts, q.leaf_width)


def recursive_compress(q: QDigest) -> QDigest:
    """Compress by recursing into subtrees, re-compressing after each merge.

    Whenever a node absorbs its children, both child subtrees are
    compressed again, so a merge can never invalidate a property check
    made at the level below.  Subtrees holding no mass are skipped; the
    skipped work consists only of merges of empty children, which have no
    effect.
    """
    counts = dict(q._counts)
    below: dict[int, int] = {}
    for i, c in counts.items():
        j = i // 2
        while j >= 1:
            below[j] = below.get(j, 0) + c
            j //= 2
    _compress_subtree(1, counts, below, q.threshold, q.sigma)
    return QDigest(q.sigma, q.k, counts, q.leaf_width)


def _compress_subtree(b: int, counts: dict[int, int], below: dict[int, int], thr: int, sigma: int) -> None:
    """`recursive_compress` below node b, in place; below[v] is the mass strictly under v.

    A module function taking its state as arguments, like `_descend`, so it leaves no reference cycle.
    """
    if b >= sigma or below.get(b, 0) == 0:
        return
    l, r = 2 * b, 2 * b + 1
    _compress_subtree(l, counts, below, thr, sigma)
    _compress_subtree(r, counts, below, thr, sigma)
    lc = counts.get(l, 0)
    rc = counts.get(r, 0)
    if (lc or rc) and counts.get(b, 0) + lc + rc <= thr:
        counts[b] = counts.get(b, 0) + lc + rc
        counts.pop(l, None)
        counts.pop(r, None)
        below[b] -= lc + rc
        _compress_subtree(l, counts, below, thr, sigma)
        _compress_subtree(r, counts, below, thr, sigma)


def merge(q1: QDigest, q2: QDigest, *more: QDigest) -> QDigest:
    """Sum two or more digests, restoring property 2 after each, in one count map: the left fold of binary merges."""
    counts, n = dict(q1._counts), q1.n
    for q in (q2, *more):
        check_compatible(q1, q)
        _add_counts(counts, q)
        n += q.n
        _compress_until_stable(counts, n // q1.k)
    return QDigest(q1.sigma, q1.k, counts, q1.leaf_width)


def build_from_frequencies(freqs: FrequencySet | Iterable[tuple[int, int]], k: int, sigma: int) -> QDigest:
    """Build a digest from a value -> multiplicity map or (value, multiplicity) pairs.

    A non-power-of-two domain size is padded upward to the next power of
    two (the extra values simply stay at frequency zero), keeping the
    tree's node arithmetic closed-form.  The result satisfies both
    properties and the construction invariant: no bucket has a bucket
    child, which tightens the size bound to 2k+1.
    """
    return coarsen(freqs, k, sigma, 0)


def coarsen(
    freqs: FrequencySet | Iterable[tuple[int, int]],
    k: int,
    sigma: int,
    levels_cut: int,
) -> QDigest:
    """Build a coarse-grained digest by stopping the binary partition early.

    The bottom `levels_cut` tree levels are folded away (none for a plain
    build): values are mapped onto a domain of sigma / 2**levels_cut
    leaves, each covering 2**levels_cut original values.  Answers are
    scaled back up at query time, so disclosed precision is bounded below
    by the leaf width.

    A map is checked in bulk, pairs one by one, and a refusal names the
    first bad pair in input order; `_masses` reads the values, never mapping them to leaves.
    """
    if not isinstance(levels_cut, int) or levels_cut < 0:
        raise ValueError(f"levels to cut must be a nonnegative integer, got {levels_cut!r}")
    tree_sigma = next_power_of_two(sigma)
    if not isinstance(freqs, Mapping):
        freqs = _checked_sum(freqs, sigma)
    typed = all(map(isinstance, freqs, repeat(int))) and all(map(isinstance, freqs.values(), repeat(int)))
    masses = _masses(freqs, sigma) if typed and min(freqs.values(), default=1) >= 1 else None
    if masses is None:
        _checked_sum(freqs.items(), sigma)  # raises at the first bad pair
    leaves = tree_sigma >> levels_cut
    if not leaves:
        raise ValueError(f"cannot cut {levels_cut} levels from a domain of size {tree_sigma}")
    _check_k(k)
    values, sums = masses
    kept: dict[int, int] = {}
    # What reaches the root stays.  One descent settles a leaf-only map: a family that does
    # not merge keeps an empty parent, so a second `_one_pass` would repeat its failed check.
    threshold, base = sums[-1] // k, tree_sigma - 1
    kept[1] = _descend(1, level(tree_sigma), 0, len(values), values, sums, threshold, kept, levels_cut, base)
    return QDigest(leaves, k, {i: c for i, c in kept.items() if c}, tree_sigma // leaves)


def _masses(freqs: Mapping[int, int], sigma: int):
    """The ascending values and sums[j], the mass of the first j; None if a value lies outside [1, sigma].

    A map of at least sigma / _DENSE values is not sorted: its multiplicities
    go into an array indexed by value, whose prefix sums are taken over all of
    [1, sigma], most values at multiplicity 0, unless a sum needs 65 bits.
    The caller has checked that every value and multiplicity is an int and
    every multiplicity at least 1.
    """
    if _DENSE * len(freqs) >= sigma and min(freqs) >= 1:
        from array import array  # here only: a process that builds no dense map does not load it
        try:
            dense = array("Q", [0]) * (sigma + 1)
            deque(starmap(dense.__setitem__, freqs.items()), maxlen=0)
            return range(1, sigma + 1), array("Q", accumulate(dense))
        except IndexError:  # a value above sigma
            return None
        except OverflowError:
            pass
    values = sorted(freqs)
    if values and not 1 <= values[0] <= values[-1] <= sigma:
        return None
    return values, list(accumulate(map(freqs.__getitem__, values), initial=0))


def _checked_sum(pairs: Iterable[tuple[int, int]], sigma: int) -> dict[int, int]:
    """Each value's summed multiplicity; refuses the first pair, in input order, with a bad value or multiplicity."""
    freqs: dict[int, int] = {}
    for value, mult in pairs:
        if not isinstance(value, int) or not 1 <= value <= sigma:
            raise ValueError(f"value {value!r} out of domain [1, {sigma}]")
        if not isinstance(mult, int) or mult < 1:
            raise ValueError(f"multiplicity for value {value} must be a positive integer")
        freqs[value] = freqs.get(value, 0) + mult
    return freqs


def recompress(q: QDigest, k_new: int) -> QDigest:
    """Re-target a digest at a strictly smaller compression parameter.

    Lowering k raises floor(n / k), so property 1 is preserved and
    property 2 is restored by compression.  Raising k is refused: there
    is no procedure that restores property 1.
    """
    if not isinstance(k_new, int) or k_new < 1:
        raise ValueError(f"new compression parameter must be a positive integer, got {k_new!r}")
    if k_new >= q.k:
        raise ValueError(f"can only recompress to a strictly smaller k ({k_new} >= {q.k})")
    return iterative_compress(QDigest(q.sigma, k_new, q._counts, q.leaf_width))


def quantile_query(q: QDigest, fraction) -> int:
    """Smallest stored value estimated to be >= fraction * n values.

    Buckets are visited in post-order; the first bucket at which the
    accumulated count reaches fraction * n determines the answer, the
    maximum of its value range.  Comparisons are exact rational
    arithmetic, so prover and verifier can never disagree on a boundary.
    """
    frac = query_fraction(q, fraction)
    _, tops, sums = q._post_order_index()
    return tops[_stop_position(sums, frac * q.n)]


def quantile_fraction(value) -> Fraction:
    """`value`, anything `Fraction` reads, as an exact rational: the q reader of queries, the prover and scenarios.

    Refuses a zero denominator or a value outside [0, 1] with ValueError.
    """
    try:
        frac = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"quantile fraction has a zero denominator: {value!r}") from None
    if not 0 <= frac <= 1:
        raise ValueError(f"quantile fraction {frac} out of [0, 1]")
    return frac


def query_fraction(q: QDigest, fraction) -> Fraction:
    """`quantile_fraction` of `fraction`, refused for an empty digest after the fraction is read."""
    frac = quantile_fraction(fraction)
    if q.n == 0:
        raise ValueError("cannot query an empty digest")
    return frac


def counted_prefix(buckets: Sequence[tuple[int, int]], target) -> Sequence[tuple[int, int]]:
    """Shortest prefix of (index, count) pairs, no count negative, whose counts reach target; all if none does."""
    return buckets[: _stop_position(list(accumulate((cnt for _, cnt in buckets), initial=0)), target) + 1]


def _stop_position(sums: Sequence[int], target) -> int:
    """First j with sums[j + 1] >= ceil(target), else the last bucket's: sums[j] is the first j buckets' mass."""
    return bisect_left(sums, ceil(target), 1, len(sums) - 1) - 1


def range_top(i: int, sigma: int, leaf_width: int) -> int:
    """Largest original value under node i; the answer when i is the stop bucket."""
    return node_range(i, sigma)[1] * leaf_width


def rank_query(q: QDigest, x: int) -> int:
    """Lower-bound estimate of the rank of x: mass of buckets ending below x."""
    if not isinstance(x, int) or not 1 <= x <= q.domain_size:
        raise ValueError(f"value {x!r} out of domain [1, {q.domain_size}]")
    if q.n == 0:
        raise ValueError("cannot query an empty digest")
    return _rank_below(q, x)


def _rank_below(q: QDigest, x: int) -> int:
    _, tops, sums = q._post_order_index()  # a node follows its subtree in post-order: tops never decrease
    return sums[bisect_left(tops, x)]


def range_query(q: QDigest, lo: int, hi: int) -> int:
    """Estimated number of stored values falling in [lo, hi]."""
    dom = q.domain_size
    if not (isinstance(lo, int) and isinstance(hi, int)) or not 1 <= lo <= hi <= dom:
        raise ValueError(f"invalid range [{lo!r}, {hi!r}] for domain [1, {dom}]")
    if q.n == 0:
        raise ValueError("cannot query an empty digest")
    return _rank_below(q, hi + 1) - _rank_below(q, lo)
