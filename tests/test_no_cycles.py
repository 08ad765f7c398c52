"""The hot paths leave no reference cycles, so the cycle collector never has to free their memory."""

import gc
import random

from qdigest_auth.digest import (
    build_from_frequencies,
    compress_one_pass,
    digest_sum,
    iterative_compress,
    merge,
    quantile_query,
    range_query,
    rank_query,
    recompress,
    recursive_compress,
)
from qdigest_auth.kvcqa import aqq, publish_kvc_auth, qqv_accelerated
from qdigest_auth.scenario import CumulativeState, cumulative_update
from qdigest_auth.serialize import digest_from_bytes, digest_to_bytes
from qdigest_auth.wda import wda_authinfo, wda_verify

from helpers import log_uniform


def test_hot_paths_make_no_cyclic_garbage():
    rng = random.Random(3)
    sigma, k = 2**16, 64
    batches = [log_uniform(rng, sigma, 2_000) for _ in range(4)]
    gc.collect()
    gc.disable()
    try:
        window = [build_from_frequencies(b, k, sigma) for b in batches]
        assert gc.collect() == 0, "build"
        merged = merge(*window)
        assert gc.collect() == 0, "merge"
        state = CumulativeState(width=3)
        for q in window:
            state = cumulative_update(state, q)
        assert gc.collect() == 0, "cumulative_update"
        summed = digest_sum(window[0], window[1])
        for compress in (compress_one_pass, recursive_compress, iterative_compress):
            compress(summed)
            assert gc.collect() == 0, compress.__name__
        recompress(merged, k // 2)
        assert gc.collect() == 0, "recompress"
        quantile_query(merged, "1/2")
        rank_query(merged, 500)
        range_query(merged, 10, 5_000)
        assert gc.collect() == 0, "queries"
        auth = wda_authinfo(merged)
        assert gc.collect() == 0, "WDA auth"
        received = digest_from_bytes(digest_to_bytes(merged))
        assert gc.collect() == 0, "decode"
        assert wda_verify(received, auth).accepted
        assert gc.collect() == 0, "WDA verify of the decoded digest"
        auth = publish_kvc_auth(merged)
        for q in ("0", "1/3", "3/4", "1"):
            stats = qqv_accelerated(aqq(merged, q), auth.commitment, auth.subtrees, merged.n, sigma)
            assert stats.accepted
        assert gc.collect() == 0, "aqq and qqv_accelerated"
    finally:
        gc.enable()
