from itertools import islice

import pytest
from hypothesis import given, strategies as st

from qdigest_auth.tree import (
    level,
    node_range,
    post_order_nodes,
    post_order_rank,
    prefix_ranges,
    sibling,
    split_at,
    subtree_ranges,
    subtree_size,
    subtree_test,
)

# hand enumeration of the post-order visit for sigma = 8
POST_ORDER_8 = [8, 9, 4, 10, 11, 5, 2, 12, 13, 6, 14, 15, 7, 3, 1]


def subtree_rank_interval(root, sigma):
    """Post-order ranks occupied by the subtree of `root` (inclusive)."""
    hi = post_order_rank(root, sigma)
    return hi - subtree_size(root, sigma) + 1, hi


sigmas = st.sampled_from([2, 4, 8, 16, 64, 256])


def test_node_range_examples():
    assert node_range(11, 8) == (4, 4)
    assert node_range(6, 8) == (5, 6)
    assert node_range(1, 8) == (1, 8)


def test_node_range_rejects_out_of_range():
    with pytest.raises(ValueError):
        node_range(16, 8)
    with pytest.raises(ValueError):
        node_range(0, 8)


def test_post_order_examples():
    assert post_order_rank(8, 8) == 1
    assert post_order_rank(11, 8) == 5
    assert post_order_rank(1, 8) == 15


def test_post_order_matches_enumeration():
    assert list(post_order_nodes(8)) == POST_ORDER_8
    for rank, node in enumerate(POST_ORDER_8, start=1):
        assert post_order_rank(node, 8) == rank


def test_sibling():
    assert sibling(10) == 11 and sibling(11) == 10
    with pytest.raises(ValueError):
        sibling(1)


def recursive_post_order(sigma, node):
    if node < sigma:
        yield from recursive_post_order(sigma, 2 * node)
        yield from recursive_post_order(sigma, 2 * node + 1)
    yield node


@pytest.mark.parametrize("sigma", [2**e for e in range(11)])
def test_post_order_matches_a_recursive_visit_at_every_root(sigma):
    whole = list(recursive_post_order(sigma, 1))
    assert [post_order_rank(node, sigma) for node in whole] == list(range(1, 2 * sigma))
    for root in range(1, 2 * sigma):
        assert list(post_order_nodes(sigma, root)) == list(recursive_post_order(sigma, root))


def flat(ranges):
    return [node for nodes in ranges for node in nodes]


@pytest.mark.parametrize("sigma", [2**e for e in range(9)])
def test_prefix_ranges_hold_the_post_order_prefix_of_every_stop(sigma):
    for rank, stop in enumerate(post_order_nodes(sigma), 1):
        nodes = flat(prefix_ranges(stop, sigma))
        assert len(nodes) == len(set(nodes)) == rank, stop
        assert set(nodes) == set(islice(post_order_nodes(sigma), rank)), stop


@pytest.mark.parametrize("sigma", [2**e for e in range(9)])
def test_split_at_every_stop_holds_its_post_order_prefix_in_disjoint_subtrees(sigma):
    walk = list(post_order_nodes(sigma))
    for rank, stop in enumerate(walk, 1):
        prefix = [node for root in split_at(stop, sigma)[0] for node in post_order_nodes(sigma, root)]
        assert len(prefix) == len(set(prefix)) and set(prefix) == set(walk[:rank]), stop
        assert set(flat(prefix_ranges(stop, sigma))) == set(prefix), stop


@pytest.mark.parametrize("sigma", [2**e for e in range(9)])
def test_split_at_every_stop_parts_the_tree_into_prefix_ancestors_and_suffix(sigma):
    for rank, stop in enumerate(post_order_nodes(sigma), 1):
        roots, ancestors, siblings = split_at(stop, sigma)
        prefix = [node for root in roots for node in post_order_nodes(sigma, root)]
        suffix = [node for root in siblings for node in post_order_nodes(sigma, root)]
        assert sorted(prefix + ancestors + suffix) == list(range(1, 2 * sigma)), stop
        assert all(post_order_rank(node, sigma) > rank for node in ancestors + suffix), stop
        assert ancestors == [stop >> up for up in range(1, level(stop) + 1)], stop
        # each part is listed bottom-up; only stop and its left sibling share a level
        for part in (roots, ancestors, siblings):
            assert all(level(a) >= level(b) for a, b in zip(part, part[1:])), stop


@pytest.mark.parametrize("sigma", [2**e for e in range(8)])
def test_prefix_ranges_without_a_subtree_hold_the_post_order_walk_around_it(sigma):
    walk = list(post_order_nodes(sigma))
    for stop_rank, stop in enumerate(walk, 1):
        for root in walk[:stop_rank - 1]:
            # the walk that skipped root's subtree before the prefix was enumerated level by level
            skip_lo, skip_hi = subtree_rank_interval(root, sigma)
            outside = walk[:skip_lo - 1] + walk[skip_hi:stop_rank]
            nodes = flat(prefix_ranges(stop, sigma, skip=root))
            assert len(nodes) == len(set(nodes)) == len(outside), (stop, root)
            assert set(nodes) == set(outside), (stop, root)
        for root in walk[stop_rank - 1:]:
            with pytest.raises(ValueError):
                prefix_ranges(stop, sigma, skip=root)


@pytest.mark.parametrize("sigma", [2**e for e in range(9)])
def test_subtree_ranges_hold_the_subtree_one_level_each(sigma):
    for root in range(1, 2 * sigma):
        ranges = subtree_ranges(root, sigma)
        assert [level(nodes[0]) for nodes in ranges] == list(range(level(root), level(sigma) + 1))
        assert sorted(flat(ranges)) == sorted(post_order_nodes(sigma, root))


@given(sigmas)
def test_post_order_rank_is_a_total_order(sigma):
    ranks = [post_order_rank(i, sigma) for i in range(1, 2 * sigma)]
    assert sorted(ranks) == list(range(1, 2 * sigma))
    assert list(post_order_nodes(sigma)) == sorted(
        range(1, 2 * sigma), key=lambda i: post_order_rank(i, sigma)
    )


@given(sigmas, st.data())
def test_leaf_ranges_partition_the_domain(sigma, data):
    v = data.draw(st.integers(1, sigma))
    leaf = sigma + v - 1
    assert node_range(leaf, sigma) == (v, v)


@given(sigmas, st.data())
def test_children_split_the_parent_range(sigma, data):
    i = data.draw(st.integers(1, sigma - 1)) if sigma > 1 else 1
    lo, hi = node_range(i, sigma)
    llo, lhi = node_range(2 * i, sigma)
    rlo, rhi = node_range(2 * i + 1, sigma)
    assert (llo, rhi) == (lo, hi)
    assert lhi + 1 == rlo


@given(sigmas, st.data())
def test_subtree_interval_matches_membership(sigma, data):
    root = data.draw(st.integers(1, 2 * sigma - 1))
    lo, hi = subtree_rank_interval(root, sigma)
    assert hi - lo + 1 == subtree_size(root, sigma)
    inside = subtree_test(root, sigma)
    members = {i for i in range(1, 2 * sigma) if inside(i)}
    by_rank = {i for i in range(1, 2 * sigma) if lo <= post_order_rank(i, sigma) <= hi}
    assert members == by_rank


@given(sigmas)
def test_tree_size(sigma):
    assert len(list(post_order_nodes(sigma))) == 2 * sigma - 1
    assert level(sigma) == sigma.bit_length() - 1
