"""Properties of the five wire formats: each parser accepts exactly what its writer writes.

For digests, proofs, KVC auth files, WDA auth files and commitments:
parsing a writer's output gives the value back, and after any
single-character edit of that output the parser either raises
`ValueError` or returns a value whose written form is the edited text.
No other exception escapes a parser.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qdigest_auth.commitment import COMMIT_MAX_SIGMA, GROUP_PRIME, Commitment
from qdigest_auth.digest import QDigest
from qdigest_auth.kvcqa import KvcAuthInfo, QuantileProof, proof_from_text, proof_to_text
from qdigest_auth.serialize import MAX_SIGMA, VALUE_LIMIT, digest_from_bytes, digest_to_bytes
from qdigest_auth.tree import is_power_of_two
from qdigest_auth.wda import WdaAuthInfo

commitments = st.integers(0, GROUP_PRIME - 1).map(Commitment)


@st.composite
def digests(draw):
    sigma = 2 ** draw(st.integers(0, 63))
    counts = draw(st.dictionaries(st.integers(1, 2 * sigma - 1), st.integers(1, VALUE_LIMIT - 1), max_size=6))
    return QDigest(sigma, draw(st.integers(1, 2**70)), counts, 2 ** draw(st.integers(0, 70)))


proofs = st.builds(
    QuantileProof,
    q=st.fractions(),
    n=st.integers(),
    answer=st.integers(),
    counted=st.lists(st.tuples(st.integers(), st.integers()), max_size=6).map(tuple),
    remainder=commitments,
)


@st.composite
def kvc_auths(draw):
    sigma = 2 ** draw(st.integers(0, COMMIT_MAX_SIGMA.bit_length() - 1))
    return KvcAuthInfo(
        sigma=sigma,
        k=draw(st.integers(min_value=1)),
        leaf_width=2 ** draw(st.integers(0, 70)),
        n=draw(st.integers(min_value=0)),
        commitment=draw(commitments),
        subtrees=draw(st.dictionaries(st.integers(1, 2 * sigma - 1), commitments, max_size=3)),
    )


wda_auths = st.builds(
    WdaAuthInfo,
    digest_hash=st.binary(min_size=32, max_size=32),
    sigma=st.integers(0, MAX_SIGMA.bit_length() - 1).map(lambda exp: 2**exp),
    k=st.integers(min_value=1),
)

# name: (values, writer, parser)
FORMATS = {
    "digest": (digests(), digest_to_bytes, digest_from_bytes),
    "proof": (proofs, proof_to_text, proof_from_text),
    "kvc-auth": (kvc_auths(), KvcAuthInfo.encode, KvcAuthInfo.parse),
    "wda-auth": (wda_auths, WdaAuthInfo.encode, WdaAuthInfo.parse),
    "commitment": (commitments, Commitment.encode, Commitment.parse),
}

# the separators and digits of the formats, and characters that lenient
# integer, hex and line readers accept in place of them
EDIT_CHARS = "0129afAF :=/_-+xkv\n\r\t\x0b\x85\xa0\u0661"


@st.composite
def single_edits(draw, text):
    """`text` with one character deleted, inserted or replaced."""
    pos = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(EDIT_CHARS))
    new = char if isinstance(text, str) else char.encode("utf-8")
    kind = draw(st.sampled_from(["delete", "insert", "replace"]))
    if kind == "insert":
        return text[:pos] + new + text[pos:]
    return text[:pos] + (new if kind == "replace" else text[:0]) + text[pos + 1:]


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parse_inverts_write(name, data):
    values, write, parse = FORMATS[name]
    value = data.draw(values)
    assert parse(write(value)) == value


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_an_edited_text_is_refused_or_is_what_the_writer_writes(name, data):
    values, write, parse = FORMATS[name]
    written = write(data.draw(values))
    for _ in range(10):
        edited = data.draw(single_edits(written))
        try:
            parsed = parse(edited)
        except ValueError:
            continue
        assert write(parsed) == edited


# each KVC auth field, as the file names it, with its attribute and values outside its limits
OUT_OF_LIMIT_KVC_FIELDS = {
    "sigma": ("sigma", st.integers().filter(lambda sigma: not is_power_of_two(sigma) or sigma > COMMIT_MAX_SIGMA)),
    "k": ("k", st.integers(max_value=0)),
    "leafwidth": ("leaf_width", st.integers().filter(lambda width: not is_power_of_two(width))),
    "n": ("n", st.integers(max_value=-1)),
}


@settings(max_examples=100, deadline=None)
@given(kvc_auths(), st.sampled_from([*OUT_OF_LIMIT_KVC_FIELDS, "subtree"]), st.data())
def test_a_kvc_auth_field_out_of_its_limits_is_refused(auth, field, data):
    if field == "subtree":
        outside = st.integers().filter(lambda root: not 1 <= root <= 2 * auth.sigma - 1)
        auth = replace(auth, subtrees={**auth.subtrees, data.draw(outside): auth.commitment})
    else:
        attr, values = OUT_OF_LIMIT_KVC_FIELDS[field]
        auth = replace(auth, **{attr: data.draw(values)})
    with pytest.raises(ValueError, match=f"field {field}="):
        KvcAuthInfo.parse(auth.encode())


# each WDA auth field with values outside its limits
OUT_OF_LIMIT_WDA_FIELDS = {
    "sigma": st.integers().filter(lambda sigma: not is_power_of_two(sigma) or sigma > MAX_SIGMA),
    "k": st.integers(max_value=0),
}


@settings(max_examples=100, deadline=None)
@given(wda_auths, st.sampled_from(list(OUT_OF_LIMIT_WDA_FIELDS)), st.data())
def test_a_wda_auth_field_out_of_its_limits_is_refused(auth, field, data):
    auth = replace(auth, **{field: data.draw(OUT_OF_LIMIT_WDA_FIELDS[field])})
    with pytest.raises(ValueError, match=f"^WDA auth field {field}="):
        WdaAuthInfo.parse(auth.encode())


def test_a_refusal_names_the_first_line_that_differs():
    text = "aqqproof v1 q=1/2 n=15 answer=4\n10:4\n11:06\nremainder=kvc1:" + "0" * 64 + "\n"
    with pytest.raises(ValueError, match=r"^proof file is not in canonical form at line 3: found '11:06\\n'$"):
        proof_from_text(text)
