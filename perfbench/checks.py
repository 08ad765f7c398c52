"""Independent checks of the program's outputs.

Nothing here imports the package under test.  The oracles are written
from the documented constructions and from the generated data alone, so
a fault in the program cannot hide itself by also being in the check.
"""

import bisect
import hashlib
from fractions import Fraction

# The documented commitment construction: SHA-256 over a domain tag, an
# 8-byte node key and a 16-byte count, summed modulo the secp256k1 prime.
GROUP_PRIME = 2**256 - 2**32 - 977
DOMAIN_TAG = b"qdigest-kvc-v1"


class CheckFailed(AssertionError):
    """A program output disagrees with an independent oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class ExactCounts:
    """Exact order statistics of a multiset given as value -> multiplicity."""

    def __init__(self, freqs):
        self.values = sorted(freqs)
        self.cumulative = []
        total = 0
        for v in self.values:
            total += freqs[v]
            self.cumulative.append(total)
        self.n = total

    def at_most(self, x: int) -> int:
        """Number of stored values <= x."""
        pos = bisect.bisect_right(self.values, x)
        return self.cumulative[pos - 1] if pos else 0


def merge_counts(*freq_maps) -> dict[int, int]:
    out: dict[int, int] = {}
    for freqs in freq_maps:
        for v, m in freqs.items():
            out[v] = out.get(v, 0) + m
    return out


def _log2(sigma: int) -> int:
    return sigma.bit_length() - 1


def check_total(exact: ExactCounts, n: int) -> None:
    require(n == exact.n, f"digest n={n} but the data holds {exact.n} values")


def check_quantile(exact: ExactCounts, q, answer: int, sigma: int, k: int) -> None:
    """A q-digest quantile answer brackets q*n within the digest's error bound.

    Every value counted before the answer's bucket is <= answer, so its
    true rank reaches q*n.  The values below the answer that were not
    counted sit in the answer's own bucket or in one of its log2(sigma)
    ancestors, each holding at most floor(n/k) once it is not a leaf.
    """
    target = Fraction(q) * exact.n
    slack = (_log2(sigma) + 1) * (exact.n // k)
    require(exact.at_most(answer) >= target,
            f"q={q}: answer {answer} has true rank {exact.at_most(answer)} < q*n={target}")
    require(exact.at_most(answer - 1) < target + slack,
            f"q={q}: answer {answer} overshoots, {exact.at_most(answer - 1)} values below it")


def check_rank(exact: ExactCounts, x: int, estimate: int, sigma: int, k: int) -> None:
    """rank_query(x) undercounts the values < x by at most log2(sigma)*floor(n/k)."""
    true = exact.at_most(x - 1)
    require(true - _log2(sigma) * (exact.n // k) <= estimate <= true,
            f"rank of {x}: estimate {estimate}, true {true}")


def check_range(exact: ExactCounts, lo: int, hi: int, estimate: int, sigma: int, k: int) -> None:
    """range_query is a difference of two rank estimates, each within the rank bound."""
    true = exact.at_most(hi) - exact.at_most(lo - 1)
    err = _log2(sigma) * (exact.n // k)
    require(abs(estimate - true) <= err, f"range [{lo}, {hi}]: estimate {estimate}, true {true}")


def canonical_bytes(sigma: int, k: int, leaf_width: int, buckets) -> bytes:
    """The documented digest file: header, then ascending index:count lines."""
    lines = [f"qdigest v1 sigma={sigma} k={k} leafwidth={leaf_width}"]
    lines += [f"{i}:{buckets[i]}" for i in sorted(buckets)]
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_digest_file(data: bytes) -> tuple[dict[str, int], dict[int, int]]:
    """Header fields and buckets of a digest file, read with no program code."""
    header, *rows = data.decode("ascii").splitlines()
    fields = dict(part.split("=") for part in header.split(" ")[2:])
    buckets = {}
    for row in rows:
        idx, cnt = row.split(":")
        buckets[int(idx)] = int(cnt)
    return {key: int(value) for key, value in fields.items()}, buckets


def wda_hash_hex(sigma: int, k: int, leaf_width: int, buckets) -> str:
    return hashlib.sha256(canonical_bytes(sigma, k, leaf_width, buckets)).hexdigest()


def commitment_hex(sigma: int, buckets, root: int = 1) -> str:
    """kvc1 encoding of the fold over every node of root's subtree, zeros included."""
    acc = 0
    frontier = [root]
    while frontier:
        node = frontier.pop()
        material = DOMAIN_TAG + node.to_bytes(8, "big") + buckets.get(node, 0).to_bytes(16, "big")
        acc += int.from_bytes(hashlib.sha256(material).digest(), "big")
        if node < sigma:
            frontier += (2 * node, 2 * node + 1)
    return "kvc1:" + (acc % GROUP_PRIME).to_bytes(32, "big").hex()


def check_equal(what: str, got, expected) -> None:
    require(got == expected, f"{what}: program gave {got!r}, oracle {expected!r}")


def check_verdict(what: str, accepted: bool, honest: bool) -> None:
    """Honest answers are accepted and every attack is rejected."""
    if honest:
        require(accepted, f"{what}: honest answer rejected")
    else:
        require(not accepted, f"{what}: attack accepted")
