"""Cost sweeps contrasting whole-digest hashing with commitment queries.

For each (sigma, k, q) configuration a seeded random digest is built,
authenticated both ways, and one authenticated quantile query is proved
and verified.  The interesting outputs are operation counts and byte
sizes, which are deterministic for a given seed; wall-clock times are
recorded for orientation only.

The expected shape of the numbers: the literal commitment verifier's
insert count grows linearly with sigma (it must touch the empty nodes), while
the whole-digest hash preimage grows with the bucket count, which is
bounded by 4k+1 regardless of sigma.  The prover's SHA-256 calls are
counted by the commitment layer around `aqq`, and the zero-fold verifier
reports its own as `qqv_fast`'s insert_ops; with the zero folds of a
sigma memoized they grow with the buckets, not with sigma.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .commitment import commit_digest, sha256_calls
from .digest import build_from_frequencies, quantile_fraction
from .kvcqa import aqq, proof_to_text, qqv, qqv_fast
from .serialize import digest_to_bytes
from .wda import hash_digest_bytes


@dataclass(frozen=True)
class BenchRow:
    sigma: int
    k: int
    q: Fraction
    digest_size: int
    prover_sha256_calls: int
    verifier_insert_ops: int
    fast_verifier_sha256_calls: int
    proof_bytes: int
    wda_bytes: int
    prove_seconds: float
    verify_seconds: float
    wda_hash_seconds: float
    accepted: bool


def _bench_frequencies(rng: random.Random, sigma: int) -> dict[int, int]:
    """Random data spread over the whole domain; the top value is always present."""
    distinct = min(sigma, 64)
    values = rng.sample(range(1, sigma + 1), distinct)
    freqs = {v: rng.randint(1, 50) for v in values}
    freqs[sigma] = freqs.get(sigma, 0) + rng.randint(1, 50)
    return freqs


def run_bench(sigmas, ks, qs, seed: int = 0) -> list[BenchRow]:
    rows = []
    for sigma in sigmas:
        for k in ks:
            rng = random.Random(f"{seed}:{sigma}:{k}")
            digest = build_from_frequencies(_bench_frequencies(rng, sigma), k, sigma)
            payload = digest_to_bytes(digest)
            trusted_c = commit_digest(digest)

            t0 = time.perf_counter()
            hash_digest_bytes(payload)
            wda_seconds = time.perf_counter() - t0

            for q in qs:
                frac = quantile_fraction(q)
                calls = sha256_calls()
                t0 = time.perf_counter()
                proof = aqq(digest, frac)
                prove_seconds = time.perf_counter() - t0
                prover_calls = sha256_calls() - calls
                t0 = time.perf_counter()
                stats = qqv(proof, trusted_c, digest.n, digest.sigma)
                verify_seconds = time.perf_counter() - t0
                rows.append(
                    BenchRow(
                        sigma=digest.sigma,
                        k=k,
                        q=frac,
                        digest_size=digest.size,
                        prover_sha256_calls=prover_calls,
                        verifier_insert_ops=stats.insert_ops,
                        fast_verifier_sha256_calls=qqv_fast(proof, trusted_c, digest.n, digest.sigma).insert_ops,
                        proof_bytes=len(proof_to_text(proof).encode("ascii")),
                        wda_bytes=len(payload),
                        prove_seconds=prove_seconds,
                        verify_seconds=verify_seconds,
                        wda_hash_seconds=wda_seconds,
                        accepted=stats.accepted,
                    )
                )
    return rows


def format_bench_table(rows) -> str:
    header = (
        f"{'sigma':>6} {'k':>4} {'q':>6} {'|Q|':>5} {'prv_sha':>8} {'ver_ins':>8} {'fst_sha':>8} "
        f"{'proof_B':>8} {'wda_B':>7} {'prove_ms':>9} {'verify_ms':>10} {'hash_ms':>8} ok"
    )
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.sigma:>6} {r.k:>4} {str(r.q):>6} {r.digest_size:>5} "
            f"{r.prover_sha256_calls:>8} {r.verifier_insert_ops:>8} "
            f"{r.fast_verifier_sha256_calls:>8} {r.proof_bytes:>8} "
            f"{r.wda_bytes:>7} {r.prove_seconds * 1e3:>9.3f} {r.verify_seconds * 1e3:>10.3f} "
            f"{r.wda_hash_seconds * 1e3:>8.3f} {1 if r.accepted else 0}"
        )
    return "\n".join(lines)
