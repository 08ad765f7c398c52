"""Index arithmetic for the full binary partition tree over [1, sigma].

Nodes are numbered breadth-first starting from 1 at the root, so the
children of node i are 2i and 2i+1 and its parent is i // 2.  For a
power-of-two domain size sigma the tree has nodes 1 .. 2*sigma-1 and its
leaves are exactly sigma .. 2*sigma-1; leaf sigma + v - 1 covers the
single domain value v.
"""


def is_power_of_two(x: int) -> bool:
    return isinstance(x, int) and x >= 1 and x & (x - 1) == 0


def next_power_of_two(x: int) -> int:
    if not isinstance(x, int) or x < 1:
        raise ValueError(f"domain size must be a positive integer, got {x!r}")
    return 1 << (x - 1).bit_length() if x > 1 else 1


def check_sigma(sigma: int) -> None:
    if not is_power_of_two(sigma):
        raise ValueError(f"domain size must be a positive power of two, got {sigma!r}")


def check_node(i: int, sigma: int) -> None:
    check_sigma(sigma)
    if not isinstance(i, int) or not 1 <= i <= 2 * sigma - 1:
        raise ValueError(f"node index {i!r} out of range [1, {2 * sigma - 1}]")


def level(i: int) -> int:
    """Depth of node i; the root is at level 0."""
    return i.bit_length() - 1


def sibling(i: int) -> int:
    if i <= 1:
        raise ValueError("the root has no sibling")
    return i ^ 1


def unchecked_top(i: int, sigma: int) -> int:
    """Largest domain value under node i, for an i and sigma the caller has checked.

    Node i spans width = sigma >> level(i) values and ends just before its
    right neighbour at the same level would start: (i + 1) * width - sigma.
    """
    return (i + 1) * (sigma >> level(i)) - sigma


def node_range(i: int, sigma: int) -> tuple[int, int]:
    """Closed interval of domain values covered by node i."""
    check_node(i, sigma)
    hi = unchecked_top(i, sigma)
    return hi - (sigma >> level(i)) + 1, hi


def unchecked_rank(i: int, sigma: int) -> int:
    """`post_order_rank` of node i, for an i and sigma the caller has checked.

    The j leaves left of i's subtree are covered by one perfect subtree
    per set bit of j, 2j - popcount(j) nodes visited before i's subtree;
    i comes last in its own.
    """
    width = sigma >> level(i)
    j = i * width - sigma
    return 2 * j - j.bit_count() + 2 * width - 1


def post_order_rank(i: int, sigma: int) -> int:
    """1-based position of node i in a post-order visit of the full tree."""
    check_node(i, sigma)
    return unchecked_rank(i, sigma)


def post_order_nodes(sigma: int, root: int = 1):
    """Yield the nodes of the subtree rooted at `root` in post-order.

    A right child is followed by its parent, a left child by the leftmost
    leaf of its right sibling; the walk starts at root's leftmost leaf.
    """
    check_node(root, sigma)
    leaf_level = level(sigma)
    node = root << (leaf_level - level(root))
    while node != root:
        yield node
        node = node >> 1 if node & 1 else (node + 1) << (leaf_level - level(node))
    yield root


def split_at(stop: int, sigma: int) -> tuple[list[int], list[int], list[int]]:
    """The tree around stop in post-order: the prefix roots, stop's ancestors and the suffix roots, each bottom-up.

    The prefix roots' disjoint subtrees hold the nodes of post-order rank at
    most rank(stop): stop's own and, at each right turn of the root-to-stop
    path, the left sibling's.  Every other node ranks after stop: it is an
    ancestor, or in the subtree of a suffix root, the right sibling at each
    left turn of the path.
    """
    check_node(stop, sigma)
    prefix, ancestors, suffix = [stop], [], []
    while stop > 1:
        (prefix if stop & 1 else suffix).append(stop ^ 1)
        stop >>= 1
        ancestors.append(stop)
    return prefix, ancestors, suffix


def subtree_ranges(root: int, sigma: int) -> list[range]:
    """The nodes of root's subtree as one range of indices per level, from root's down to the leaves."""
    check_node(root, sigma)
    return [range(root << d, (root + 1) << d) for d in range(level(sigma) - level(root) + 1)]


def prefix_ranges(stop: int, sigma: int, skip: int | None = None) -> list[range]:
    """The nodes of post-order rank at most rank(stop): `subtree_ranges` of each prefix root of `split_at`.

    With `skip`, a node ranked before stop, its subtree is left out: in the
    one prefix subtree that holds skip, each range at and below skip's
    level is split in two around skip's range at that level.
    """
    roots = split_at(stop, sigma)[0]
    if skip is not None and post_order_rank(skip, sigma) >= post_order_rank(stop, sigma):
        raise ValueError(f"subtree {skip!r} does not rank before stop {stop}")
    ranges = []
    for root in roots:
        levels = subtree_ranges(root, sigma)
        if skip is not None and subtree_test(root, sigma)(skip):
            head = level(skip) - level(root)
            for whole, sub in zip(levels[head:], subtree_ranges(skip, sigma)):
                ranges += [range(whole.start, sub.start), range(sub.stop, whole.stop)]
            levels = levels[:head]
        ranges += levels
    return ranges


def subtree_size(root: int, sigma: int) -> int:
    check_node(root, sigma)
    return 2 ** (level(sigma) - level(root) + 1) - 1


def subtree_test(root: int, sigma: int):
    """Membership in root's subtree for checked nodes: root is checked once, and a node is in iff its top bits spell root."""
    check_node(root, sigma)
    width = root.bit_length()
    return lambda i: i.bit_length() >= width and i >> (i.bit_length() - width) == root
