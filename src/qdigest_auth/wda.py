"""Whole-digest authentication: hash the canonical serialization.

The trusted source publishes the hash of a digest's canonical bytes; a
user who receives the digest from an untrusted responder recomputes the
hash and additionally checks that what arrived is structurally a valid
digest within the size bound, so that even a (hypothetical) hash
collision would have to be a well-formed digest to be accepted.  The
verdict is the `verdict.VerificationStats` both schemes report, with
insert_ops 0: the one SHA-256 call hashes bytes, not a commitment.
"""

import hashlib
import hmac
from dataclasses import dataclass

from .digest import QDigest, validate
from .serialize import MAX_SIGMA, check_auth_parameters, digest_to_bytes, field, header_fields, require_canonical
from .verdict import REASON_OK, VerificationStats


def hash_digest_bytes(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class WdaAuthInfo:
    """The source's WDA auth file: one line, its final "\n" included."""

    digest_hash: bytes
    sigma: int
    k: int

    def encode(self) -> str:
        return f"wda1:{self.digest_hash.hex()} sigma={self.sigma} k={self.k}\n"

    @classmethod
    def parse(cls, text: str) -> "WdaAuthInfo":
        """Refuses, naming the field, a sigma that is not a power of two up to 2**63 and k below 1."""
        if not text.endswith("\n"):
            raise ValueError("WDA auth file must end with a newline")
        line = text[:-1]
        tag = line.partition(" ")[0]
        sigma, k = header_fields(line, tag, {"sigma": int, "k": int})
        check_auth_parameters("WDA", sigma, k, MAX_SIGMA)
        digest_hash = field("hash", tag.removeprefix("wda1:"), bytes.fromhex)
        if len(digest_hash) != 32:
            raise ValueError("WDA hash must be 32 bytes")
        auth = cls(digest_hash=digest_hash, sigma=sigma, k=k)
        require_canonical(text, auth.encode(), "WDA auth info")
        return auth


def wda_authinfo(q: QDigest) -> WdaAuthInfo:
    return WdaAuthInfo(digest_hash=hash_digest_bytes(digest_to_bytes(q)), sigma=q.sigma, k=q.k)


def wda_verify(received: QDigest, auth: WdaAuthInfo) -> VerificationStats:
    """Accept iff parameters echo, the hash matches, and the digest validates, checked in that order."""
    if (received.sigma, received.k) != (auth.sigma, auth.k):
        return VerificationStats(False, "parameter-mismatch", 0)
    actual = hash_digest_bytes(digest_to_bytes(received))
    if not hmac.compare_digest(actual, auth.digest_hash):
        return VerificationStats(False, "hash-mismatch", 0)
    report = validate(received)
    if not report.ok or not report.size_bound_ok:
        return VerificationStats(False, "invalid-structure", 0)
    return VerificationStats(True, REASON_OK, 0)
