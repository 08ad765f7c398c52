"""Reference figures: commitment costs along a sigma ladder.

    python3 perfbench/ladder.py [--seed 0]

For sigma = 2^6 ... 2^16 and k in {4, 64}, builds a digest of 10,000
uniform values, then times commit_digest, aqq, qqv and qqv_accelerated
(with subtree 2 precommitted) on one query at q = 3/4, and counts the
SHA-256 calls each makes and the bytes of the proof text.  Times are
medians of five calls, SHA-256 counts those of the last (warm) call, scaled to the reference host speed (speed.py).
Prints a Markdown table.
"""

import argparse
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path

from speed import measure
from tracing import Tracer, install_hash_counter

Q = Fraction(3, 4)
VALUES = 10_000
REPEATS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    tracer = Tracer(enabled=True)
    install_hash_counter(tracer)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from qdigest_auth import aqq, build_from_frequencies, commit_digest, qqv, qqv_accelerated, subtree_commitments
    from qdigest_auth.kvcqa import proof_to_text

    print("| sigma | k | buckets | commit ms | aqq ms | qqv ms | accel ms "
          "| commit sha | aqq sha | qqv sha | accel sha | proof B |")
    print("|---:" * 12 + "|")
    for exp in range(6, 17):
        sigma = 2**exp
        for k in (4, 64):
            rng = random.Random(f"ladder:{args.seed}:{sigma}:{k}")
            freqs: dict[int, int] = {}
            for _ in range(VALUES):
                v = rng.randint(1, sigma)
                freqs[v] = freqs.get(v, 0) + 1
            digest = build_from_frequencies(freqs, k, sigma)
            c = commit_digest(digest)
            subtrees = subtree_commitments(digest, [2])
            proof = aqq(digest, Q)
            calls = {
                "commit": lambda: commit_digest(digest),
                "aqq": lambda: aqq(digest, Q),
                "qqv": lambda: qqv(proof, c, digest.n, sigma),
                "accel": lambda: qqv_accelerated(proof, c, subtrees, digest.n, sigma),
            }
            ms, sha = [], []
            for name, call in calls.items():
                times = []
                for _ in range(REPEATS):
                    tracer.op = name
                    tracer.sha256[name] = 0
                    with tracer.span(name):
                        _, elapsed, scale = measure(call)
                    times.append(elapsed * scale * 1e3)
                ms.append(statistics.median(times))
                sha.append(tracer.sha256[name])
            assert qqv(proof, c, digest.n, sigma).accepted
            cells = [sigma, k, digest.size, *(f"{t:.2f}" for t in ms), *sha, len(proof_to_text(proof))]
            print("| " + " | ".join(map(str, cells)) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
