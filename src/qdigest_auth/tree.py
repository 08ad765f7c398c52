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


def tree_size(sigma: int) -> int:
    """Number of nodes of the full tree over [1, sigma]."""
    check_sigma(sigma)
    return 2 * sigma - 1


def check_node(i: int, sigma: int) -> None:
    check_sigma(sigma)
    if not isinstance(i, int) or not 1 <= i <= 2 * sigma - 1:
        raise ValueError(f"node index {i!r} out of range [1, {2 * sigma - 1}]")


def level(i: int) -> int:
    """Depth of node i; the root is at level 0."""
    return i.bit_length() - 1


def parent(i: int) -> int:
    if i <= 1:
        raise ValueError("the root has no parent")
    return i // 2


def sibling(i: int) -> int:
    if i <= 1:
        raise ValueError("the root has no sibling")
    return i ^ 1


def children(i: int) -> tuple[int, int]:
    return 2 * i, 2 * i + 1


def leaf_for_value(v: int, sigma: int) -> int:
    check_sigma(sigma)
    if not isinstance(v, int) or not 1 <= v <= sigma:
        raise ValueError(f"value {v!r} out of domain [1, {sigma}]")
    return sigma + v - 1


def node_range(i: int, sigma: int) -> tuple[int, int]:
    """Closed interval of domain values covered by node i."""
    check_node(i, sigma)
    lvl = level(i)
    width = sigma >> lvl
    lo = (i - (1 << lvl)) * width + 1
    return lo, lo + width - 1


def post_order_rank(i: int, sigma: int) -> int:
    """1-based position of node i in a post-order visit of the full tree.

    Computed by walking the bit path from the root: stepping to a left
    child skips the right sibling's whole subtree plus the parent itself,
    stepping to a right child skips only the parent.
    """
    check_node(i, sigma)
    leaf_level = level(sigma)
    rank = 2 * sigma - 1
    lvl = level(i)
    for shift in range(lvl - 1, -1, -1):
        child_level = lvl - shift
        if (i >> shift) & 1:
            rank -= 1
        else:
            rank -= 2 ** (leaf_level - child_level + 1)
    return rank


def post_order_nodes(sigma: int, root: int = 1):
    """Yield the nodes of the subtree rooted at `root` in post-order."""
    check_node(root, sigma)
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or node >= sigma:
            yield node
        else:
            stack.append((node, True))
            stack.append((2 * node + 1, False))
            stack.append((2 * node, False))


def subtree_size(root: int, sigma: int) -> int:
    check_node(root, sigma)
    return 2 ** (level(sigma) - level(root) + 1) - 1


def subtree_rank_interval(root: int, sigma: int) -> tuple[int, int]:
    """Post-order ranks occupied by the subtree of `root` (inclusive)."""
    hi = post_order_rank(root, sigma)
    return hi - subtree_size(root, sigma) + 1, hi


def is_in_subtree(i: int, root: int, sigma: int) -> bool:
    check_node(i, sigma)
    check_node(root, sigma)
    shift = level(i) - level(root)
    return shift >= 0 and (i >> shift) == root
