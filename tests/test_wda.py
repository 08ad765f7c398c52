import hashlib
import random

import pytest

from qdigest_auth import VerificationStats
from qdigest_auth.digest import QDigest, build_from_frequencies
from qdigest_auth.serialize import digest_from_bytes, digest_to_bytes, read_text, write_text
from qdigest_auth.wda import WdaAuthInfo, hash_digest_bytes, wda_authinfo, wda_verify

from helpers import random_digest

# pinned at first build; guards the canonical serialization and hash choice
EXAMPLE2_HASH = "d84168bcf2cbf47cd12a16f2f73e738131d3896ef6ecb2be7914d732614e2ea7"


def test_golden_vector(example2_digest):
    auth = wda_authinfo(example2_digest)
    assert auth.digest_hash.hex() == EXAMPLE2_HASH
    assert auth.sigma == 8 and auth.k == 5


def test_hash_is_deterministic(example2_digest):
    assert wda_authinfo(example2_digest) == wda_authinfo(example2_digest)


def test_same_buckets_different_k_hash_differently(example2_digest):
    other = QDigest(8, 6, example2_digest.buckets())
    assert wda_authinfo(other).digest_hash != wda_authinfo(example2_digest).digest_hash


def test_round_trip_accepts(example2_digest):
    verdict = wda_verify(example2_digest, wda_authinfo(example2_digest))
    assert verdict.accepted and verdict.reason == "ok"


def test_verify_hashes_a_decoded_digest_once(monkeypatch):
    q = build_from_frequencies({v: v % 7 + 1 for v in range(1, 200, 3)}, 8, 256)
    auth = wda_authinfo(q)
    received = digest_from_bytes(digest_to_bytes(q))
    calls = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *args: calls.append(args) or sha256(*args))
    assert wda_verify(received, auth).accepted
    assert calls == [(digest_to_bytes(q),)]


def test_single_count_change_rejected(example2_digest):
    auth = wda_authinfo(example2_digest)
    counts = example2_digest.buckets()
    counts[10] += 1
    verdict = wda_verify(QDigest(8, 5, counts), auth)
    assert not verdict.accepted and verdict.reason == "hash-mismatch"


def test_parameter_mismatch_rejected(example2_digest):
    auth = wda_authinfo(example2_digest)
    other = QDigest(8, 6, example2_digest.buckets())
    verdict = wda_verify(other, auth)
    assert not verdict.accepted and verdict.reason == "parameter-mismatch"


def test_structurally_invalid_digest_rejected_even_with_matching_hash():
    # forged auth info for an invalid structure: the hash matches, but the
    # structural check is independent of it and still refuses
    bogus = QDigest(8, 4, {2: 50, 4: 1, 5: 1, 3: 50})
    forged_auth = WdaAuthInfo(hash_digest_bytes(digest_to_bytes(bogus)), 8, 4)
    verdict = wda_verify(bogus, forged_auth)
    assert not verdict.accepted and verdict.reason == "invalid-structure"


def test_every_outcome_is_the_shared_verdict_record_with_no_insert_ops(example2_digest):
    auth = wda_authinfo(example2_digest)
    raised = example2_digest.buckets()
    raised[10] += 1
    bogus = QDigest(8, 4, {2: 50, 4: 1, 5: 1, 3: 50})
    outcomes = [
        wda_verify(example2_digest, auth),
        wda_verify(QDigest(8, 6, example2_digest.buckets()), auth),
        wda_verify(QDigest(8, 5, raised), auth),
        # forged auth info for an invalid structure: the hash matches, but the structural check still refuses
        wda_verify(bogus, WdaAuthInfo(hash_digest_bytes(digest_to_bytes(bogus)), 8, 4)),
    ]
    assert outcomes == [
        VerificationStats(True, "ok", 0),
        VerificationStats(False, "parameter-mismatch", 0),
        VerificationStats(False, "hash-mismatch", 0),
        VerificationStats(False, "invalid-structure", 0),
    ]


def test_random_round_trips():
    rng = random.Random(17)
    for _ in range(100):
        q = random_digest(rng)
        assert wda_verify(q, wda_authinfo(q)).accepted


def test_authinfo_text_round_trip(tmp_path, example2_digest):
    auth = wda_authinfo(example2_digest)
    text = auth.encode()
    assert text == f"wda1:{EXAMPLE2_HASH} sigma=8 k=5\n"
    assert WdaAuthInfo.parse(text) == auth
    path = tmp_path / "auth.wda"
    write_text(path, text)
    assert WdaAuthInfo.parse(read_text(path)) == auth


def test_authinfo_file_without_its_final_newline_is_refused(tmp_path, example2_digest):
    path = tmp_path / "auth.wda"
    path.write_text(wda_authinfo(example2_digest).encode()[:-1])
    with pytest.raises(ValueError, match="must end with a newline"):
        WdaAuthInfo.parse(read_text(path))


@pytest.mark.parametrize(
    "text",
    [
        "wda1:abcd sigma=8 k=5\n",
        "wda1:" + "0" * 64 + "\n",
        "wda1:" + "0" * 64 + " sigma=8\n",
        "x\n",
        "wda1:" + "A" * 64 + " sigma=8 k=5\n",
        "wda1:" + "0" * 64 + " sigma=08 k=5\n",
        " wda1:" + "0" * 64 + " sigma=8 k=5\n",
    ],
)
def test_authinfo_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        WdaAuthInfo.parse(text)
