"""Canonical text formats, the one rule every wire-format parser keeps, and file I/O.

A parser reads its fields leniently, builds the value, and then refuses
the input unless the writer's output for that value is identical
(`require_canonical`).  So each parser accepts exactly the texts its
writer produces: digest, proof, KVC auth, WDA auth and commitment text
alike.  The digest writer refuses a digest outside the fixed-width
encoding limits, so such a digest file is neither written nor parsed.

The digest format is the hashing preimage for whole-digest
authentication, so it must be byte-exact across platforms: a fixed header
line, then one `index:count` pair per line in strictly ascending index
order, "\n" line endings, no trailing whitespace.

Every file the package reads or writes is opened here.  Text files are
ASCII with no newline translation (`read_text`, `write_text`), so a stray
"\r" reaches the parser's canonical check; digest files are bytes.
"""

from .commitment import MAX_SIGMA, VALUE_LIMIT
from .digest import QDigest
from .tree import is_power_of_two


def header_fields(line: str, magic: str, keys: tuple[str, ...]) -> list[str]:
    """The values of the `key=value` words after `magic`, in `keys` order, spelled as given."""
    fields = dict(word.partition("=")[::2] for word in line.removeprefix(magic + " ").split(" "))
    if not line.startswith(magic + " ") or set(fields) != set(keys):
        raise ValueError(f"expected a {magic!r} header with {', '.join(keys)}, got {line!r}")
    return [fields[key] for key in keys]


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


def require_canonical(text: str | bytes, written: str | bytes, what: str) -> None:
    """Refuse `text` (str or bytes) unless it is exactly `written`, the writer's output for its value."""
    if text == written:
        return
    got, want = text.splitlines(keepends=True), written.splitlines(keepends=True)
    line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    found = repr(got[line]) if line < len(got) else "the end of the text"
    raise ValueError(f"{what} is not in canonical form at line {line + 1}: found {found}")


def digest_to_bytes(q: QDigest) -> bytes:
    if q.sigma > MAX_SIGMA:
        raise ValueError(f"sigma {q.sigma} exceeds the node-key limit 2**63")
    buckets = q.buckets().items()  # in ascending index order
    if any(cnt >= VALUE_LIMIT for _, cnt in buckets):
        raise ValueError("a count does not fit the 2**128 limit")
    lines = [f"qdigest v1 sigma={q.sigma} k={q.k} leafwidth={q.leaf_width}"]
    lines.extend(f"{i}:{c}" for i, c in buckets)
    return ("\n".join(lines) + "\n").encode("ascii")


def digest_from_bytes(data: bytes) -> QDigest:
    # latin-1 decodes any byte, so every input reaches the canonical check
    header, _, body = data.decode("latin-1").partition("\n")
    sigma, k, leaf_width = map(int, header_fields(header, "qdigest v1", ("sigma", "k", "leafwidth")))
    q = QDigest(sigma, k, dict(index_count(line) for line in body.splitlines()), leaf_width)
    require_canonical(data, digest_to_bytes(q), "digest file")
    return q


def dump_digest(q: QDigest, path) -> None:
    data = digest_to_bytes(q)  # a refused digest leaves no file behind
    with open(path, "wb") as fh:
        fh.write(data)


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
    return parse_frequency_text(read_text(path))


def dump_frequencies(freqs, path) -> None:
    write_text(path, "".join(f"{value}\t{freqs[value]}\n" for value in sorted(freqs)))


def read_text(path) -> str:
    with open(path, "r", encoding="ascii", newline="") as fh:
        return fh.read()


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
