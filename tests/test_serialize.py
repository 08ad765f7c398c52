import ast
import graphlib
import os
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qdigest_auth
from qdigest_auth.commitment import Commitment
from qdigest_auth.digest import QDigest, build_from_frequencies
from qdigest_auth.kvcqa import PROOF_FIELDS, QuantileProof, proof_from_text, proof_to_text
from qdigest_auth.serialize import (
    _write_bytes,
    digest_from_bytes,
    digest_to_bytes,
    dump_digest,
    field,
    header_fields,
    index_count,
    load_digest,
    load_frequencies,
    parse_frequency_text,
    require_canonical,
    write_text,
)

from helpers import random_digest
from test_wire_formats import FORMATS, digests, proofs, single_edits


def test_canonical_bytes_layout(example2_digest):
    assert digest_to_bytes(example2_digest) == (
        b"qdigest v1 sigma=8 k=5 leafwidth=1\n1:1\n6:2\n7:2\n10:4\n11:6\n"
    )


def test_empty_digest_serializes_to_header_only():
    data = digest_to_bytes(QDigest(8, 4))
    assert data == b"qdigest v1 sigma=8 k=4 leafwidth=1\n"
    assert digest_from_bytes(data) == QDigest(8, 4)


def test_round_trip_is_byte_identical():
    rng = random.Random(3)
    for _ in range(50):
        q = random_digest(rng)
        data = digest_to_bytes(q)
        assert digest_to_bytes(digest_from_bytes(data)) == data


def test_file_round_trip(tmp_path, s1):
    q = build_from_frequencies(s1, 4, 8)
    path = tmp_path / "digest.qd"
    dump_digest(q, path)
    assert load_digest(path) == q


@pytest.mark.parametrize(
    "data",
    [
        b"qdigest v1 sigma=8 k=4 leafwidth=1\n4:3",  # missing trailing newline
        b"qdigest v1 sigma=8 k=4 leafwidth=1\n5:7\n4:3\n",  # out of order
        b"qdigest v1 sigma=8 k=4 leafwidth=1\n4:0\n",  # zero count
        b"qdigest v1 sigma=8 k=4 leafwidth=1\n4:3 \n",  # trailing whitespace
        b"qdigest v1 sigma=8 k=4 leafwidth=1\n04:3\n",  # non-canonical integer
        b"qdigest v1 sigma=8 k=4\n",  # missing header field
        b"qdigest v2 sigma=8 k=4 leafwidth=1\n",  # unknown version
        b"qdigest v1 sigma=7 k=4 leafwidth=1\n",  # sigma not a power of two
        b"qdigest v1 sigma=8 k=4 leafwidth=1\n16:1\n",  # index out of range
        b"qdigest v1 sigma=8 k=4 leafwidth=1\n1:%d\n" % 2**128,  # count beyond the encoding
        b"qdigest v1 sigma=%d k=4 leafwidth=1\n" % 2**64,  # node keys beyond the encoding
    ],
)
def test_strict_parsing_rejects_non_canonical_input(data):
    with pytest.raises(ValueError):
        digest_from_bytes(data)


@pytest.mark.parametrize("text", ["# a comment\n1\t3\n\n2\t4\n1\t2\n", "1\t3\n2\t4\n1\t2\n"])
def test_frequency_parsing(text):
    assert parse_frequency_text(text) == {1: 5, 2: 4}


@pytest.mark.parametrize("text", ["1 3\n", "1\t3\t4\n", "1\tx\n", "1\t0\n"])
def test_frequency_parsing_rejects_bad_lines(text):
    with pytest.raises(ValueError):
        parse_frequency_text(text)


def test_frequency_file_round_trip(tmp_path):
    path = tmp_path / "freqs.tsv"
    path.write_text("5\t2\n1\t9\n")
    assert load_frequencies(path) == {5: 2, 1: 9}


def test_a_digest_is_encoded_once():
    q = build_from_frequencies({1: 2, 5: 1, 8: 4}, 4, 8)
    assert digest_to_bytes(q) is digest_to_bytes(q)


def test_a_decoded_digest_keeps_the_bytes_it_was_decoded_from():
    rng = random.Random(4)
    for _ in range(50):
        data = digest_to_bytes(random_digest(rng))
        q = digest_from_bytes(data)
        assert q._bytes is data  # the input itself, in the writer's shape, with no second encoding
        assert digest_to_bytes(q) is digest_to_bytes(q)
        assert digest_to_bytes(q) == data


@pytest.mark.parametrize(
    "q, message",
    [(QDigest(2**64, 4), "sigma 18446744073709551616 exceeds the node-key limit 2**63"),
     (QDigest(8, 4, {1: 2**128}), "a count does not fit the 2**128 limit")],
)
def test_a_refused_digest_raises_on_every_call(q, message):
    for _ in range(3):
        with pytest.raises(ValueError) as exc:
            digest_to_bytes(q)
        assert str(exc.value) == message
    assert q._bytes is None


def outcome(parse, text):
    """What parse makes of text: its value, a dict as its items in order, or the message it refuses text with."""
    try:
        value = parse(text)
    except ValueError as exc:
        return f"refused: {exc}"
    return list(value.items()) if isinstance(value, dict) else value


def frequencies_line_by_line(text: str) -> dict[int, int]:
    """The frequency reader's line loop alone: the oracle of its bulk path."""
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


def digest_line_by_line(data: bytes) -> QDigest:
    """`digest_from_bytes` reading one `index:count` line at a time and always encoding the digest to compare."""
    header, _, body = data.decode("latin-1").partition("\n")
    sigma, k, leaf_width = header_fields(header, "qdigest v1", dict.fromkeys(("sigma", "k", "leafwidth"), int))
    q = QDigest(sigma, k, dict(index_count(line) for line in body.splitlines()), leaf_width)
    require_canonical(data, digest_to_bytes(q), "digest file")
    return q


def proof_line_by_line(text: str) -> QuantileProof:
    """`proof_from_text` reading one `index:count` line at a time."""
    header, *body = text.splitlines() or [""]
    q, n, answer = header_fields(header, "aqqproof v1", PROOF_FIELDS)
    counted = tuple(index_count(line) for line in body[:-1])
    remainder = field("remainder", body[-1].removeprefix("remainder=") if body else "", Commitment.parse)
    proof = QuantileProof(q, n, answer, counted, remainder)
    require_canonical(text, proof_to_text(proof), "proof file")
    return proof


# few values, so that lines repeat them
frequency_values = st.integers(-3, 20)
dumped_lines = st.builds("{}\t{}\n".format, frequency_values, st.integers(1, 10**30))
other_frequency_lines = st.one_of(
    st.sampled_from(["# a comment\n", "\n", " \t \n", "#\t1\n"]),
    st.builds(" {}\t{}  \n".format, frequency_values, st.integers(1, 9)),  # padded fields
    st.builds("+{}\t1_{}\n".format, st.integers(0, 20), st.integers(0, 9)),  # spellings int() accepts
    st.builds("{}\t{}\r\n".format, frequency_values, st.integers(1, 9)),
    st.builds("{}\t{}\n".format, frequency_values, st.integers(-2, 0)),  # multiplicities below 1
    st.builds("0{}\t0{}\n".format, st.integers(0, 9), st.integers(1, 9)),  # leading zeros
    st.sampled_from(["1 3\n", "1\t3\t4\n", "1\tx\n", "x\t1\n", "\t\n", "1\t\n", "1:3\n", "-\t1\n"]),
)


@st.composite
def frequency_texts(draw):
    """`dump_frequencies`-shaped lines with up to two others among them, the last newline sometimes cut."""
    lines = draw(st.lists(dumped_lines, max_size=10))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(other_frequency_lines))
    text = "".join(lines)
    return text[:-1] if draw(st.integers(0, 3)) == 0 else text


@settings(max_examples=400, deadline=None)
@given(frequency_texts())
@example("1" * 4301 + "\t1\n")  # past int()'s digit limit, which the JSON scanner shares
@example("-0\t3\n0\t2\n")  # -0 is 0, so the value repeats
@example("-0\t3\n")
@example("01\t3\n2\t4\n")  # a leading zero, which JSON refuses
@example("")
@example("1\t3\n2\t4")  # the last line without its newline
def test_bulk_frequency_reading_matches_the_line_loop(text):
    assert outcome(parse_frequency_text, text) == outcome(frequencies_line_by_line, text)


@settings(max_examples=100, deadline=None)
@given(digests(), st.data())
def test_digest_reading_matches_the_line_loop_on_single_edits(q, data):
    written = digest_to_bytes(q)
    for text in [written, *(data.draw(single_edits(written)) for _ in range(10))]:
        assert outcome(digest_from_bytes, text) == outcome(digest_line_by_line, text)


@settings(max_examples=100, deadline=None)
@given(proofs, st.data())
def test_proof_reading_matches_the_line_loop_on_single_edits(proof, data):
    written = proof_to_text(proof)
    for text in [written, *(data.draw(single_edits(written)) for _ in range(10))]:
        assert outcome(proof_from_text, text) == outcome(proof_line_by_line, text)


# the file kinds whose parsers read header fields, and the keys of each header
HEADER_KEYS = {
    "digest": ("sigma", "k", "leafwidth"),
    "proof": ("q", "n", "answer"),
    "kvc-auth": ("sigma", "k", "leafwidth", "n"),
    "wda-auth": ("sigma", "k"),
}


@pytest.mark.parametrize("name", HEADER_KEYS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_refused_edit_is_refused_in_the_parsers_own_words(name, data):
    """No refusal passes on what `int()` or `bytes.fromhex` says of a field it cannot read."""
    values, write, parse = FORMATS[name]
    written = write(data.draw(values))
    for _ in range(10):
        try:
            parse(data.draw(single_edits(written)))
        except ValueError as exc:
            assert "invalid literal" not in str(exc) and "non-hexadecimal" not in str(exc)


@pytest.mark.parametrize("name, key", [(name, key) for name, keys in HEADER_KEYS.items() for key in keys])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_header_word_without_its_value_is_refused_naming_it(name, key, data):
    values, write, parse = FORMATS[name]
    written = write(data.draw(values))
    text = written.decode("latin-1") if isinstance(written, bytes) else written
    bare = re.sub(rf" {key}=[^ \n]*", f" {key}", text, count=1)
    with pytest.raises(ValueError, match=f"^field {key}='' does not parse$"):
        parse(bare.encode("latin-1") if isinstance(written, bytes) else bare)


def test_largest_encodable_sigma_and_count_load():
    data = b"qdigest v1 sigma=%d k=4 leafwidth=1\n1:%d\n" % (2**63, 2**128 - 1)
    q = digest_from_bytes(data)
    assert q.sigma == 2**63 and q.n == 2**128 - 1


@st.composite
def old_and_new_bytes(draw):
    """An old file's bytes and new bytes that are empty, shorter, as long or longer."""
    old = draw(st.binary(max_size=64))
    size = draw(st.sampled_from([0, len(old) // 2, len(old), len(old) + 1 + draw(st.integers(0, 64))]))
    return old, draw(st.binary(min_size=size, max_size=size))


@settings(max_examples=200, deadline=None)
@given(old_and_new_bytes())
def test_a_file_written_over_holds_exactly_the_new_bytes(tmp_path_factory, old_new):
    old, new = old_new
    path = tmp_path_factory.mktemp("over") / "file"
    path.write_bytes(old)
    _write_bytes(path, new)
    assert path.read_bytes() == new


def test_a_file_is_written_in_place_through_hard_links_and_symlinks(tmp_path):
    target, hard, soft = tmp_path / "target.qd", tmp_path / "hard.qd", tmp_path / "soft.qd"
    target.write_text("an old file, longer than what replaces it\n")
    inode = target.stat().st_ino
    os.link(target, hard)
    soft.symlink_to(target)
    write_text(hard, "new\n")
    assert target.read_text() == "new\n" and target.stat().st_ino == inode
    dump_digest(QDigest(8, 4), soft)
    assert soft.is_symlink()
    assert hard.read_bytes() == target.read_bytes() == b"qdigest v1 sigma=8 k=4 leafwidth=1\n"
    assert target.stat().st_ino == inode


def test_writing_to_the_null_device_succeeds():
    write_text(os.devnull, "1\t2\n")
    dump_digest(QDigest(8, 4), os.devnull)


def test_refused_text_leaves_the_old_file_and_makes_no_new_one(tmp_path):
    old, absent = tmp_path / "old.txt", tmp_path / "absent.txt"
    old.write_text("old\n")
    for path in (old, absent):
        with pytest.raises(UnicodeEncodeError):
            write_text(path, "\u00e9\n")
    assert old.read_text() == "old\n"
    assert not absent.exists()


def test_only_serialize_opens_files():
    """Every file is opened in `serialize`, so each file rule has one home."""
    calls = {}
    for path in sorted(Path(qdigest_auth.__file__).parent.glob("*.py")):
        if path.name == "serialize.py":
            continue
        lines = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "open" or getattr(node.func, "attr", None) == "open")
        ]
        if lines:
            calls[path.name] = lines
    assert calls == {}


def test_only_coarsen_frequency_checks_take_a_bool_for_an_int():
    """A bool passes `isinstance(x, int)`, so every other integer check is `type(x) is int`.

    `coarsen` counts a bool value or multiplicity as the integer it is; nothing else may.
    """
    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    found = set()
    for path in sorted(Path(qdigest_auth.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                found |= {
                    (path.name, func.name)
                    for call in ast.walk(func)
                    if isinstance(call, ast.Call)
                    and "isinstance" in names(call.func) | {getattr(arg, "id", None) for arg in call.args}
                    and "int" in names(call)
                }
    assert found == {("digest.py", "coarsen"), ("digest.py", "_checked_sum")}


def test_package_imports_are_module_level_and_acyclic():
    """Each module imports the package's modules at its top, and no two modules import each other, even through others."""
    package = Path(qdigest_auth.__file__).parent
    graph, nested = {}, []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        graph[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # `from .x import y` names module x; `from . import x` names x itself
                targets = [node.module] if node.module else [alias.name for alias in node.names]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                absolute = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                targets = [name.split(".")[1] for name in absolute if name.startswith(package.name + ".")]
            else:
                continue
            graph[path.stem].update(targets)
            if targets and node not in tree.body:
                nested.append(f"{path.name}:{node.lineno}")
    assert nested == []
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError, naming the cycle


def test_the_verdict_module_imports_no_scheme():
    """`verdict` imports no module of the package, so a new scheme takes the verdict record and reason codes alone."""
    tree = ast.parse((Path(qdigest_auth.__file__).parent / "verdict.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {"." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"dataclasses"}
