"""Authenticated q-digest quantile summaries.

A q-digest compactly summarizes a distribution of integers in [1, sigma]
on the nodes of a binary partition tree.  This package provides the
structure with compression algorithms that stay correct under merging,
plus two ways to answer quantile queries through an untrusted responder:
whole-digest authentication (hash the canonical serialization) and
key-value-commitment query authentication (prove each query against a
commitment that also covers the tree's empty nodes).
"""

from .commitment import (
    Commitment,
    combine,
    commit_digest,
    commit_records,
    initialize,
    insert,
    member,
    subtree_commitment,
    subtree_commitments,
)
from .digest import (
    QDigest,
    ValidityReport,
    build_from_frequencies,
    coarsen,
    compress_one_pass,
    digest_sum,
    iterative_compress,
    merge,
    nabla,
    quantile_query,
    range_query,
    rank_query,
    recompress,
    recursive_compress,
    validate,
)
from .kvcqa import (
    KvcAuthInfo,
    QuantileProof,
    VerificationStats,
    aqq,
    malicious_aqq_omit_left,
    qqv,
    qqv_accelerated,
    qqv_fast,
)
from .scenario import (
    CumulativeState,
    ResponderBehavior,
    Scenario,
    build_privacy_profile,
    cumulative_update,
    mean_bucket_depth,
    run_session,
)
from .serialize import digest_from_bytes, digest_to_bytes, load_digest, load_frequencies
from .tree import node_range, post_order_nodes, post_order_rank
from .wda import WdaAuthInfo, WdaVerdict, wda_authinfo, wda_verify

__all__ = [
    "Commitment",
    "CumulativeState",
    "KvcAuthInfo",
    "QDigest",
    "QuantileProof",
    "ResponderBehavior",
    "Scenario",
    "ValidityReport",
    "VerificationStats",
    "WdaAuthInfo",
    "WdaVerdict",
    "aqq",
    "build_from_frequencies",
    "build_privacy_profile",
    "coarsen",
    "combine",
    "commit_digest",
    "commit_records",
    "compress_one_pass",
    "cumulative_update",
    "digest_from_bytes",
    "digest_sum",
    "digest_to_bytes",
    "initialize",
    "insert",
    "iterative_compress",
    "load_digest",
    "load_frequencies",
    "malicious_aqq_omit_left",
    "mean_bucket_depth",
    "member",
    "merge",
    "nabla",
    "node_range",
    "post_order_nodes",
    "post_order_rank",
    "qqv",
    "qqv_accelerated",
    "qqv_fast",
    "quantile_query",
    "range_query",
    "rank_query",
    "recompress",
    "recursive_compress",
    "run_session",
    "subtree_commitment",
    "subtree_commitments",
    "validate",
    "wda_authinfo",
    "wda_verify",
]
