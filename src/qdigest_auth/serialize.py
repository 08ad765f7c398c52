"""Canonical text formats, the one rule every wire-format parser keeps, and file I/O.

A parser reads each field leniently through `field`, which names a field
it cannot read, builds the value, and then refuses the input unless the
writer's output for that value is identical (`require_canonical`).  So
each parser accepts exactly the texts its writer produces: digest, proof,
KVC auth, WDA auth and commitment text alike.  The fixed-width encoding
limits are defined here, for both schemes: the digest writer refuses a
digest outside them, so such a digest file is neither written nor parsed,
and the key-value commitment inserts no key or value outside them.

The digest format is the hashing preimage for whole-digest
authentication, so it must be byte-exact across platforms: a fixed header
line, then one `index:count` pair per line in strictly ascending index
order, "\n" line endings, no trailing whitespace.  It is made once and kept
on the immutable `QDigest`, for the bytes sent, the WDA hash and the parser's check.

A text in `dump_frequencies`'s line shape is read as two columns by one JSON
scan, and a digest file's canonical `index:count` body by one `map(int, ...)`
over its split; a digest file in the writer's shape is also kept as its digest's
bytes unencoded.  Any other text, and every proof's counted lines, is read line
by line, to the same value or refusal message.  `json` is imported on the
first bulk frequency read only.

Every file the package reads or writes is opened here.  Text files are
ASCII with no newline translation (`read_text`, `write_text`), so a stray
"\r" reaches the parser's canonical check; digest files are bytes.  Files
are overwritten in place and a longer old file is cut to the new length, as
ext4 flushes a file cut to zero when it is closed, and the next write waits
on that I/O.  Text is encoded first, so refused text leaves the old file.
"""

import os
import re
from contextlib import suppress

from .digest import QDigest
from .tree import is_power_of_two

# The encoding's widths and exclusive bounds: node keys below 2**64, so a
# domain holds at most 2**63 values, and counts below 2**128.
KEY_BYTES = 8
VALUE_BYTES = 16
KEY_LIMIT = 1 << (8 * KEY_BYTES)
VALUE_LIMIT = 1 << (8 * VALUE_BYTES)
MAX_SIGMA = KEY_LIMIT // 2

# A digest's `index:count` lines as its writer spells them: positive integers in canonical spelling.
_CANONICAL_BODY = re.compile(r"(?:[1-9][0-9]*:[1-9][0-9]*\n)*")
# What `str.translate` leaves of `dump_frequencies`'s lines: their tab and newline.
_DROP_NUMBERS = str.maketrans("", "", "0123456789-")


def field(key: str, text: str, read=int):
    """The file field `key`, read from its `text` by `read`; a value `read` refuses is refused naming the field."""
    try:
        return read(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"field {key}={text!r} does not parse") from None


def header_fields(line: str, magic: str, readers: dict) -> list:
    """The `key=value` words after `magic`, each read by its `field` reader in `readers`, in `readers` order."""
    fields = dict(word.partition("=")[::2] for word in line.removeprefix(magic + " ").split(" "))
    if not line.startswith(magic + " ") or set(fields) != set(readers):
        raise ValueError(f"expected a {magic!r} header with {', '.join(readers)}, got {line!r}")
    return [field(key, fields[key], read) for key, read in readers.items()]


def check_auth_parameters(name: str, sigma: int, k: int, max_sigma: int) -> None:
    """Refuse, naming the field in `name`'s auth file, a sigma not a power of two up to max_sigma, or k below 1."""
    if not is_power_of_two(sigma) or sigma > max_sigma:
        raise ValueError(f"{name} auth field sigma={sigma} is not a power of two in [1, {max_sigma}]")
    if k < 1:
        raise ValueError(f"{name} auth field k={k} is below 1")


def index_count(line: str) -> tuple[int, int]:
    """An `index:count` line as its two integers."""
    index, _, count = line.partition(":")
    try:
        return int(index), int(count)
    except ValueError:
        raise ValueError(f"expected an index:count line, got {line!r}") from None


def index_counts(body: str) -> tuple[tuple[tuple[int, int], ...], bool]:
    """`index:count` lines as pairs, and whether they are canonical: then read in one pass, else line by line."""
    if _CANONICAL_BODY.fullmatch(body):
        with suppress(ValueError):  # a number with more digits than int() reads: the loop names its line
            numbers = map(int, body.replace(":", "\n").split())
            return tuple(zip(numbers, numbers)), True
    return tuple(map(index_count, body.splitlines())), False


def require_canonical(text: str | bytes, written: str | bytes, what: str) -> None:
    """Refuse `text` (str or bytes) unless it is exactly `written`, the writer's output for its value."""
    if text == written:
        return
    got, want = text.splitlines(keepends=True), written.splitlines(keepends=True)
    line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    found = repr(got[line]) if line < len(got) else "the end of the text"
    raise ValueError(f"{what} is not in canonical form at line {line + 1}: found {found}")


def _header(q: QDigest) -> str:
    """The header line of q's bytes; refuses a digest outside the encoding limits."""
    if q.sigma > MAX_SIGMA:
        raise ValueError(f"sigma {q.sigma} exceeds the node-key limit 2**63")
    if max(q._counts.values(), default=0) >= VALUE_LIMIT:
        raise ValueError("a count does not fit the 2**128 limit")
    return f"qdigest v1 sigma={q.sigma} k={q.k} leafwidth={q.leaf_width}"


def digest_to_bytes(q: QDigest) -> bytes:
    """The canonical bytes of q, made on the first call and kept on q; a refused digest raises on every call."""
    if q._bytes is None:
        lines = [_header(q)]
        lines.extend(f"{i}:{c}" for i, c in q._counts.items())  # in ascending index order
        q._bytes = ("\n".join(lines) + "\n").encode("ascii")
    return q._bytes


def digest_from_bytes(data: bytes) -> QDigest:
    # latin-1 decodes any byte, so every input reaches the canonical check
    header, newline, body = data.decode("latin-1").partition("\n")
    sigma, k, leaf_width = header_fields(header, "qdigest v1", dict.fromkeys(("sigma", "k", "leafwidth"), int))
    buckets, canonical = index_counts(body)
    q = QDigest(sigma, k, dict(buckets), leaf_width)
    # Canonical integers in ascending index order under q's header are q's bytes, so they need no encoding.
    if canonical and tuple(q._counts.items()) == buckets and newline and header == _header(q):
        q._bytes = bytes(data)
    require_canonical(data, digest_to_bytes(q), "digest file")
    return q


def _write_bytes(path, data: bytes) -> None:
    """Overwrite path with data in place, cutting an old file only where it was longer."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666), "wb") as fh:
        old_size = os.fstat(fh.fileno()).st_size  # 0 for a character device or FIFO, so /dev/null is never cut
        fh.write(data)
        if old_size > len(data):
            fh.truncate(len(data))


def dump_digest(q: QDigest, path) -> None:
    _write_bytes(path, digest_to_bytes(q))  # a refused digest leaves no file behind


def load_digest(path) -> QDigest:
    with open(path, "rb") as fh:
        return digest_from_bytes(fh.read())


def frequency_columns(text: str) -> tuple[list[int], list[int]] | None:
    """A `dump_frequencies`-shaped text's values and multiplicities, in file order, every multiplicity at least 1.

    One C-level check of the lines' shape, then one JSON scan; None for any other text, which is left to
    `parse_frequency_lines` to read or to refuse naming its line.  The values may repeat or be unsorted."""
    if text.endswith("\n") and text.translate(_DROP_NUMBERS) == "\t\n" * text.count("\n"):
        import json  # here only: a process that reads no dumped frequency file does not load it

        with suppress(ValueError):  # a leading zero, a lone sign, or more digits than int() reads
            numbers = json.loads("[" + text[:-1].replace("\t", ",").replace("\n", ",") + "]")
            values, mults = numbers[::2], numbers[1::2]
            if min(mults, default=1) >= 1:
                return values, mults
    return None


def parse_frequency_text(text: str) -> dict[int, int]:
    """Parse `value<TAB>multiplicity` lines; `#` comments and blank lines ignored.

    Repeated values accumulate.  A text `frequency_columns` reads with distinct
    values is taken from its columns, any other text line by line, to the same result.
    """
    columns = frequency_columns(text)
    if columns is not None:
        freqs = dict(zip(*columns))
        if len(freqs) == len(columns[0]):  # a repeated value accumulates in the loop
            return freqs
    return parse_frequency_lines(text)


def parse_frequency_lines(text: str) -> dict[int, int]:
    """`parse_frequency_text` one line at a time: the reader of any text and the source of every refusal."""
    freqs = {}
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
    return parse_frequency_text(read_text(path))


def dump_frequencies(freqs, path) -> None:
    write_text(path, "".join(f"{value}\t{freqs[value]}\n" for value in sorted(freqs)))


def read_text(path) -> str:
    with open(path, "r", encoding="ascii", newline="") as fh:
        return fh.read()


def write_text(path, text: str) -> None:
    _write_bytes(path, text.encode("ascii"))  # refused text leaves the old file as it was
