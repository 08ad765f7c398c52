"""Canonical text formats for digests and frequency files.

The digest format is the hashing preimage for whole-digest
authentication, so it must be byte-exact across platforms: a fixed header
line, then one `index:count` pair per line in strictly ascending index
order, "\n" line endings, no trailing whitespace.  The parser is strict
and rejects anything the writer would not produce.
"""

from .commitment import MAX_SIGMA, VALUE_LIMIT
from .digest import QDigest

_HEADER_PREFIX = "qdigest v1 "


def digest_to_bytes(q: QDigest) -> bytes:
    lines = [f"qdigest v1 sigma={q.sigma} k={q.k} leafwidth={q.leaf_width}"]
    lines.extend(f"{i}:{c}" for i, c in sorted(q.buckets().items()))
    return ("\n".join(lines) + "\n").encode("ascii")


def digest_from_bytes(data: bytes) -> QDigest:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"digest file is not ascii text: {exc}") from None
    if not text.endswith("\n"):
        raise ValueError("digest file must end with a newline")
    lines = text[:-1].split("\n")
    header = lines[0]
    if not header.startswith(_HEADER_PREFIX):
        raise ValueError(f"unrecognized digest header: {header!r}")
    fields = {}
    for part in header[len(_HEADER_PREFIX):].split(" "):
        key, eq, value = part.partition("=")
        if not eq or key in fields:
            raise ValueError(f"malformed digest header: {header!r}")
        fields[key] = value
    if set(fields) != {"sigma", "k", "leafwidth"}:
        raise ValueError(f"malformed digest header: {header!r}")
    sigma = _parse_positive_int(fields["sigma"], "sigma")
    if sigma > MAX_SIGMA:
        raise ValueError(f"sigma {sigma} exceeds the node-key limit 2**63")
    k = _parse_positive_int(fields["k"], "k")
    leaf_width = _parse_positive_int(fields["leafwidth"], "leafwidth")

    counts: dict[int, int] = {}
    last = 0
    for line in lines[1:]:
        idx_text, sep, cnt_text = line.partition(":")
        if not sep:
            raise ValueError(f"malformed digest line: {line!r}")
        idx = _parse_positive_int(idx_text, "node index")
        cnt = _parse_positive_int(cnt_text, "count")
        if cnt >= VALUE_LIMIT:
            raise ValueError(f"count {cnt} for node {idx} does not fit the 2**128 limit")
        if idx <= last:
            raise ValueError(f"node indices must be strictly ascending, got {idx} after {last}")
        counts[idx] = cnt
        last = idx
    q = QDigest(sigma, k, counts, leaf_width)
    if digest_to_bytes(q) != data:
        raise ValueError("digest file is not in canonical form")
    return q


def _parse_positive_int(text: str, what: str) -> int:
    if not text.isdigit() or (len(text) > 1 and text[0] == "0"):
        raise ValueError(f"invalid {what}: {text!r}")
    return int(text)


def dump_digest(q: QDigest, path) -> None:
    with open(path, "wb") as fh:
        fh.write(digest_to_bytes(q))


def load_digest(path) -> QDigest:
    with open(path, "rb") as fh:
        return digest_from_bytes(fh.read())


def parse_frequency_text(text: str) -> dict[int, int]:
    """Parse `value<TAB>multiplicity` lines; `#` comments and blank lines ignored.

    Repeated values accumulate.
    """
    freqs: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected value<TAB>multiplicity, got {raw!r}")
        try:
            value, mult = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
        if mult < 1:
            raise ValueError(f"line {lineno}: multiplicity must be positive, got {mult}")
        freqs[value] = freqs.get(value, 0) + mult
    return freqs


def load_frequencies(path) -> dict[int, int]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_frequency_text(fh.read())


def dump_frequencies(freqs, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for value in sorted(freqs):
            fh.write(f"{value}\t{freqs[value]}\n")
