"""Hashing, salted commitments, and authenticated record sealing.

Records at rest are kept as AES-GCM sealed payloads bound to a salted
SHA-256 commitment over the same bytes: the caller encodes a record once and
passes that encoding to :func:`commit` and :func:`seal`, and :func:`unseal`
returns it.  Sealing here is an integrity/access mechanism for the
simulation, not a privacy-preserving computation scheme: unsealing requires
the owning institution's key, and any single-bit modification of a sealed
payload fails authentication.

All randomness (salts, nonces, keys) is supplied by the caller so that a
scenario's seeded generator fully determines every byte on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .canon import canonicalize

__all__ = [
    "AuthenticationError",
    "Commitment",
    "KeyTable",
    "SealedPayload",
    "UnknownKeyError",
    "ZERO_HASH",
    "commit",
    "digest",
    "seal",
    "unseal",
]

ZERO_HASH = "0" * 64

SALT_LEN = 16
NONCE_LEN = 12
KEY_LEN = 32
TAG_LEN = 16


class UnknownKeyError(KeyError):
    """Key id is not registered in the key table."""


class AuthenticationError(Exception):
    """Sealed payload failed authentication (tampered bytes or wrong key)."""


def digest(data: bytes) -> str:
    """SHA-256 of the input, rendered as 64 lowercase hex characters."""
    return hashlib.sha256(data).hexdigest()


def digest_value(value) -> str:
    """SHA-256 over the canonical encoding of a structured value."""
    return digest(canonicalize(value))


@dataclass(frozen=True)
class Commitment:
    """Salted hash binding an identifier to off-chain content."""

    digest: str
    salt: bytes

    def matches(self, encoded: bytes) -> bool:
        """True iff these exact bytes, salted, reproduce the digest."""
        return digest(encoded + self.salt) == self.digest


def commit(encoded: bytes, salt: bytes) -> Commitment:
    """Commit to exact bytes: ``digest = H(encoded || salt)``.

    A caller that seals the same encoding passes it here and to
    :func:`seal`, so the commitment and the seal cover one emission, and
    :meth:`Commitment.matches` over the unsealed bytes reproduces it.
    """
    if len(salt) != SALT_LEN:
        raise ValueError(f"salt must be {SALT_LEN} bytes, got {len(salt)}")
    return Commitment(digest=digest(encoded + salt), salt=bytes(salt))


@dataclass(frozen=True)
class SealedPayload:
    """Authenticated-encrypted canonical bytes.  ``ciphertext`` = nonce || body."""

    ciphertext: bytes
    auth_tag: bytes
    key_id: str


class KeyTable:
    """Registry of symmetric keys, one per institution in a scenario."""

    def __init__(self):
        self._keys: dict[str, bytes] = {}

    def register(self, key_id: str, key: bytes) -> None:
        if len(key) != KEY_LEN:
            raise ValueError(f"key must be {KEY_LEN} bytes, got {len(key)}")
        self._keys[key_id] = bytes(key)

    def get(self, key_id: str) -> bytes:
        try:
            return self._keys[key_id]
        except KeyError:
            raise UnknownKeyError(key_id) from None

    def key_ids(self) -> list[str]:
        return sorted(self._keys)

    def to_value(self) -> dict:
        return dict(sorted(self._keys.items()))

    @classmethod
    def from_value(cls, value: dict) -> "KeyTable":
        table = cls()
        for key_id, key in value.items():
            table.register(key_id, key)
        return table


def seal(encoded: bytes, key_id: str, keys: KeyTable, nonce: bytes) -> SealedPayload:
    """Seal exact bytes under a registered key; :func:`unseal` returns them.

    The nonce is caller-supplied (drawn from the scenario generator) so
    sealing is deterministic for a fixed seed.
    """
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes, got {len(nonce)}")
    key = keys.get(key_id)
    sealed = AESGCM(key).encrypt(nonce, encoded, None)
    body, tag = sealed[:-TAG_LEN], sealed[-TAG_LEN:]
    return SealedPayload(ciphertext=bytes(nonce) + body, auth_tag=tag, key_id=key_id)


def unseal(payload: SealedPayload, keys: KeyTable) -> bytes:
    """Authenticate and decrypt a sealed payload, returning the sealed bytes.

    Raises :class:`UnknownKeyError` if the payload's key id is unregistered,
    :class:`AuthenticationError` if the bytes were tampered with or the
    registered key does not match.
    """
    key = keys.get(payload.key_id)
    nonce, body = payload.ciphertext[:NONCE_LEN], payload.ciphertext[NONCE_LEN:]
    try:
        return AESGCM(key).decrypt(nonce, body + payload.auth_tag, None)
    except InvalidTag:
        raise AuthenticationError(f"sealed payload for key {payload.key_id!r} failed authentication") from None
