"""The verdict record both schemes report, and the reason codes they share.

WDA verdicts carry insert_ops 0.  The additive scheme's checks of a
claimed answer, and its `commitment-mismatch`, live in `kvcqa`; WDA's
own reasons live in `wda`.
"""

from dataclasses import dataclass

REASON_OK = "ok"
REASON_MALFORMED = "malformed"
REASON_COUNT_TOO_LOW = "count-too-low"
REASON_PREFIX_OVERSHOOT = "prefix-overshoot"


@dataclass(frozen=True)
class VerificationStats:
    """A verdict, its reason code and insert_ops: the SHA-256 calls made, 0 for a reject before any commitment work."""

    accepted: bool
    reason: str
    insert_ops: int
