"""In-memory spans and counters for the traced run.

Spans are recorded from the benchmark's own code around each call into a
layer of the package.  SHA-256 calls are counted by wrapping
`hashlib.sha256` and `hashlib.new`; `install_hash_counter` runs before the
package is imported so that no module can hold the unwrapped functions.
Only calls made while a span is open are counted, so the benchmark's own
checks never are.

Every span and counter carries the id of the operation it belongs to: an
integer for operations of the timed loop, a ("setup", n) pair for the
steps of set-up, and a ("probe", n) pair for the probe's calls.
"""

import hashlib
import json
import time
from collections import Counter
from contextlib import contextmanager

SETUP = "setup"
PROBE = "probe"


class Tracer:
    """Records (name, start, end, parent, op) spans and named counts while enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op = SETUP
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.values: list[tuple[str, int, object]] = []
        self.sha256 = Counter()
        # op id -> factor scaling its wall-clock times to the reference host speed
        self.scale: dict[object, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def record(self, name: str, value: int) -> None:
        if self.enabled:
            self.values.append((name, value, self.op))

    def durations(self, name: str, phase) -> list[float]:
        """Scaled seconds spent in each span called `name` during one phase (None: the timed loop)."""
        return [(end - start) * self.scale.get(op, 1.0)
                for n, start, end, _, op in self.spans if n == name and _phase(op) == phase]

    def sha256_in(self, phase) -> int:
        """SHA-256 calls counted during one phase."""
        return sum(count for op, count in self.sha256.items() if _phase(op) == phase)

    def recorded(self, name: str, phase) -> list[int]:
        return [value for n, value, op in self.values if n == name and _phase(op) == phase]

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "scale": self.scale.get(op, 1.0)}) + "\n")


def _phase(op):
    if isinstance(op, int):
        return None
    return op[0] if isinstance(op, tuple) else op


def install_hash_counter(tracer: Tracer) -> None:
    sha256, new = hashlib.sha256, hashlib.new
    open_spans, calls = tracer._stack, tracer.sha256

    def counted_sha256(*args, **kwargs):
        if open_spans:
            calls[tracer.op] += 1
        return sha256(*args, **kwargs)

    def counted_new(name, *args, **kwargs):
        if open_spans and name.lower().replace("-", "") == "sha256":
            calls[tracer.op] += 1
        return new(name, *args, **kwargs)

    hashlib.sha256 = counted_sha256
    hashlib.new = counted_new
