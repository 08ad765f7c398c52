"""Timing scaled to a reference host speed.

On a shared virtual machine the same work can take anywhere from one to
two times as long, in phases that last from a second to a minute.  The
phases slow interpreted code and hashing alike, so the benchmark times a
fixed calibration loop right before and right after each timed call and
scales the call's wall-clock time by the loop's reference duration over
its measured one.  A reported time is therefore the wall-clock time the
call would take on a host that runs the loop in REFERENCE_S seconds.

The calibration uses the SHA-256 function as it was when this module was
imported, so the traced run's call counter does not slow it.
"""

import hashlib
import time

_sha256 = hashlib.sha256
# The loop's median duration on a 2-vCPU 2.1 GHz virtual machine.
REFERENCE_S = 0.0025
_ROUNDS = 3000


def calibrate() -> float:
    """Seconds one pass of the fixed calibration loop takes right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(_ROUNDS):
        acc += int.from_bytes(_sha256(i.to_bytes(8, "big")).digest(), "big") % 7
    return time.perf_counter() - start


def measure(fn):
    """Run fn(); return its result, its wall-clock seconds and the factor scaling them."""
    before = calibrate()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    after = calibrate()
    return result, elapsed, 2 * REFERENCE_S / (before + after)
