"""Hashing, commitments, and authenticated sealing."""

from __future__ import annotations

import numpy as np
import pytest

from bxhf.crypto import (
    AuthenticationError,
    KeyTable,
    NONCE_LEN,
    SALT_LEN,
    SealedPayload,
    UnknownKeyError,
    ZERO_HASH,
    commit,
    digest,
    digest_value,
    seal,
    unseal,
)
from bxhf.canon import canonicalize

# FIPS 180-2 test vectors.
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def _table(seed: int = 0) -> KeyTable:
    rng = np.random.default_rng(seed)
    table = KeyTable()
    table.register("k-a", rng.bytes(32))
    table.register("k-b", rng.bytes(32))
    return table


def test_sha256_standard_vectors():
    assert digest(b"") == SHA256_EMPTY
    assert digest(b"abc") == SHA256_ABC
    assert len(digest(b"anything")) == 64
    assert digest(b"anything") == digest(b"anything")


def test_digest_value_uses_canonical_bytes():
    assert digest_value({"a": 1}) == digest(b'{"a":1}')
    assert digest_value({"b": 2, "a": 1}) == digest_value({"a": 1, "b": 2})


def test_zero_hash_shape():
    assert ZERO_HASH == "0" * 64


def test_commitment_round_trip():
    salt = bytes(range(SALT_LEN))
    encoded = canonicalize({"record_id": "r1", "features": {"hr": 72.0}})
    c = commit(encoded, salt)
    assert c.matches(encoded)
    assert not c.matches(canonicalize({"record_id": "r1", "features": {"hr": 72.5}}))
    assert c.digest == digest(b'{"features":{"hr":f"4052000000000000"},"record_id":"r1"}' + salt)


def test_commitment_salt_hides_content():
    c1 = commit(b'{"v":1}', b"\x00" * SALT_LEN)
    c2 = commit(b'{"v":1}', b"\x01" * SALT_LEN)
    assert c1.digest != c2.digest


def test_commit_rejects_bad_salt_length():
    with pytest.raises(ValueError):
        commit(b'{"v":1}', b"short")


def test_seal_unseal_round_trip():
    keys = _table()
    encoded = canonicalize({"record_id": "r9", "outcome": 1.0})
    payload = seal(encoded, "k-a", keys, b"\x00" * NONCE_LEN)
    assert unseal(payload, keys) == encoded
    assert payload.key_id == "k-a"
    assert len(payload.auth_tag) == 16
    assert payload.ciphertext[:NONCE_LEN] == b"\x00" * NONCE_LEN


def test_commit_and_seal_cover_one_encoding():
    keys = _table()
    encoded = canonicalize({"record_id": "r9", "features": {"hr": 61.5}, "outcome": 0.0})
    salt, nonce = b"\x05" * SALT_LEN, b"\x09" * NONCE_LEN
    commitment = commit(encoded, salt)
    assert commitment.digest == digest(encoded + salt)
    assert commitment.matches(unseal(seal(encoded, "k-a", keys, nonce), keys))
    with pytest.raises(ValueError):
        seal(encoded, "k-a", keys, b"short")


def test_seal_is_deterministic_given_nonce():
    keys = _table()
    encoded = canonicalize({"v": [1, 2, 3]})
    nonce = b"\x07" * NONCE_LEN
    a = seal(encoded, "k-a", keys, nonce)
    b = seal(encoded, "k-a", keys, nonce)
    assert a == b


def test_unseal_wrong_key_is_authentication_error():
    keys = _table()
    payload = seal(b'{"v":1}', "k-a", keys, b"\x01" * NONCE_LEN)
    other = KeyTable()
    other.register("k-a", np.random.default_rng(99).bytes(32))
    with pytest.raises(AuthenticationError):
        unseal(payload, other)


def test_unseal_unknown_key_is_distinct_error():
    keys = _table()
    payload = seal(b'{"v":1}', "k-a", keys, b"\x01" * NONCE_LEN)
    empty = KeyTable()
    with pytest.raises(UnknownKeyError):
        unseal(payload, empty)
    assert not issubclass(UnknownKeyError, AuthenticationError)


def test_any_single_byte_flip_fails_authentication():
    keys = _table()
    payload = seal(b'{"v":"sensitive"}', "k-b", keys, b"\x02" * NONCE_LEN)
    for offset in range(len(payload.ciphertext)):
        mutated = bytearray(payload.ciphertext)
        mutated[offset] ^= 0x01
        bad = SealedPayload(bytes(mutated), payload.auth_tag, payload.key_id)
        with pytest.raises(AuthenticationError):
            unseal(bad, keys)
    for offset in range(len(payload.auth_tag)):
        mutated = bytearray(payload.auth_tag)
        mutated[offset] ^= 0x01
        bad = SealedPayload(payload.ciphertext, bytes(mutated), payload.key_id)
        with pytest.raises(AuthenticationError):
            unseal(bad, keys)


def test_key_table_round_trip():
    keys = _table(3)
    again = KeyTable.from_value(keys.to_value())
    assert again.to_value() == keys.to_value()
    assert again.key_ids() == ["k-a", "k-b"]
    with pytest.raises(ValueError):
        again.register("short", b"\x00" * 5)

