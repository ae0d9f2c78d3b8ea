"""Consent policies, the authorization predicate, and gated record access.

Authorization is default-deny: a request is permitted only if some active
policy grants that user, that record (directly or through an
institution-wide scope), and that purpose at the evaluation time.  Consent
updates are latest-wins per policy id, and every evaluation, permit or
deny, lands on the ledger as an access decision transaction.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .ledger import PURPOSES, Ledger, LogicalClock, Transaction, build_transaction

__all__ = [
    "AccessPolicy",
    "ConsentRegistry",
    "IntegrityAlarmError",
    "PURPOSES",
    "UnknownRecordError",
    "evaluate_access",
    "gated_fetch",
    "institution_scope",
    "update_consent",
]

# Deny reasons, ordered by reporting precedence (nearest miss first).
_REASON_ORDER = ("purpose_mismatch", "expired", "revoked", "no_policy")

CONSENT_ACTOR = "consent-authority"


class UnknownRecordError(KeyError):
    """Requested record was never registered."""


class IntegrityAlarmError(Exception):
    """An authorized fetch found the stored sealed record failing authentication."""


def institution_scope(institution_id: str) -> str:
    """Scope string granting access to every record owned by an institution."""
    return f"{institution_id}/*"


@dataclass(frozen=True)
class AccessPolicy:
    """One consent tuple: who may read which records, why, and when."""

    policy_id: str
    user_id: str
    record_scope: str
    purpose: str
    valid_from: int
    valid_until: int
    granted: bool

    def __post_init__(self):
        if not all(
            isinstance(text, str) and text
            for text in (self.policy_id, self.user_id, self.record_scope)
        ):
            raise ValueError("policy_id, user_id and record_scope must be non-empty text")
        if self.valid_from > self.valid_until:
            raise ValueError(
                f"policy {self.policy_id!r}: valid_from {self.valid_from} "
                f"> valid_until {self.valid_until}"
            )
        if self.purpose not in PURPOSES:
            raise ValueError(f"policy {self.policy_id!r}: unknown purpose {self.purpose!r}")
        if not isinstance(self.granted, bool):
            raise ValueError(f"policy {self.policy_id!r}: granted must be true or false")

    def to_value(self) -> dict:
        return {
            "policy_id": self.policy_id,
            "user_id": self.user_id,
            "record_scope": self.record_scope,
            "purpose": self.purpose,
            "valid_from": self.valid_from,
            "valid_until": self.valid_until,
            "granted": self.granted,
        }

    @classmethod
    def from_value(cls, value: dict) -> "AccessPolicy":
        return cls(**{k: value[k] for k in (
            "policy_id", "user_id", "record_scope", "purpose",
            "valid_from", "valid_until", "granted",
        )})


def _scope_matches(scope: str, record_id: str, institution_id: str | None) -> bool:
    if scope == record_id:
        return True
    return institution_id is not None and scope == institution_scope(institution_id)


def evaluate_access(
    policies,
    user_id: str,
    record_id: str,
    purpose: str,
    logical_time: int,
    owner: str | None = None,
) -> tuple[bool, str]:
    """The authorization predicate: permit iff some policy grants the request.

    ``policies`` is any iterable of effective :class:`AccessPolicy` (latest
    per policy id already applied).  ``owner`` is the institution holding the
    record; without it, no institution-wide scope matches.  Returns
    ``(True, "granted")`` or ``(False, reason)`` where the reason is the
    nearest miss under the fixed precedence purpose_mismatch > expired >
    revoked > no_policy.
    """
    reasons = set()
    for policy in policies:
        if policy.user_id != user_id:
            continue
        if not _scope_matches(policy.record_scope, record_id, owner):
            continue
        if policy.purpose != purpose:
            reasons.add("purpose_mismatch")
            continue
        if not (policy.valid_from <= logical_time <= policy.valid_until):
            reasons.add("expired")
            continue
        if not policy.granted:
            reasons.add("revoked")
            continue
        return True, "granted"
    for reason in _REASON_ORDER:
        if reason in reasons:
            return False, reason
    return False, "no_policy"


class ConsentRegistry:
    """Effective policy set under the latest-wins rule."""

    def __init__(self):
        self._policies: dict[str, AccessPolicy] = {}

    def apply(self, policy: AccessPolicy) -> None:
        self._policies[policy.policy_id] = policy

    def effective(self) -> list[AccessPolicy]:
        return list(self._policies.values())

    def evaluate(
        self,
        user_id: str,
        record_id: str,
        purpose: str,
        logical_time: int,
        owner: str | None = None,
    ) -> tuple[bool, str]:
        return evaluate_access(self.effective(), user_id, record_id, purpose, logical_time, owner)


def update_consent(
    ledger: Ledger,
    registry: ConsentRegistry,
    policy: AccessPolicy,
    clock: LogicalClock,
    batch: list[Transaction] | None = None,
) -> Transaction:
    """Record a consent change on-chain and make it effective.

    With ``batch`` given the transaction is staged for the caller's next
    block; otherwise it is appended immediately as its own block.
    """
    tx = build_transaction("ConsentUpdate", CONSENT_ACTOR, clock.next(), policy.to_value())
    if batch is None:
        ledger.append_block([tx])
    else:
        batch.append(tx)
    registry.apply(policy)
    return tx


def gated_fetch(
    ledger: Ledger,
    keys: crypto.KeyTable,
    registry: ConsentRegistry,
    record_table: dict,
    user_id: str,
    record_id: str,
    purpose: str,
    clock: LogicalClock,
    batch: list[Transaction] | None = None,
):
    """Fetch a registered record through the consent gate.

    ``record_table`` maps record ids to sealed records; each record's
    ``institution_id`` is the owner institution-wide scopes match against.
    Returns ``(plaintext_or_None, decision_tx)``.  Every call produces
    exactly one access decision transaction; a permit additionally unseals
    and returns the record.  An authorized fetch whose stored bytes fail
    authentication raises :class:`IntegrityAlarmError` after the decision
    is recorded.
    """
    sealed_record = record_table.get(record_id)
    if sealed_record is None:
        raise UnknownRecordError(record_id)
    when = clock.next()
    allowed, reason = registry.evaluate(
        user_id, record_id, purpose, when, sealed_record.institution_id
    )
    tx = build_transaction(
        "AccessDecision",
        user_id,
        when,
        {
            "user_id": user_id,
            "record_id": record_id,
            "purpose": purpose,
            "outcome": "permit" if allowed else "deny",
            "reason": reason,
        },
    )
    if batch is None:
        ledger.append_block([tx])
    else:
        batch.append(tx)
    if not allowed:
        return None, tx
    try:
        plaintext = crypto.unseal(sealed_record.sealed, keys)
    except crypto.AuthenticationError as exc:
        raise IntegrityAlarmError(
            f"record {record_id!r} failed authentication on an authorized fetch"
        ) from exc
    return plaintext, tx
