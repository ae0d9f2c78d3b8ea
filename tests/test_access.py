"""Consent policies: the default-deny gate and its ledger side effects."""

from __future__ import annotations

import numpy as np
import pytest

from bxhf.access import (
    AccessPolicy,
    ConsentRegistry,
    IntegrityAlarmError,
    UnknownRecordError,
    evaluate_access,
    gated_fetch,
    institution_scope,
    update_consent,
)
from bxhf.canon import canonicalize
from bxhf.crypto import KeyTable, NONCE_LEN, SALT_LEN, commit, seal
from bxhf.harness import SealedRecord
from bxhf.ledger import Ledger, LogicalClock


def _policy(**overrides) -> AccessPolicy:
    fields = {
        "policy_id": "p1",
        "user_id": "dr-a",
        "record_scope": "rec-1",
        "purpose": "treatment",
        "valid_from": 10,
        "valid_until": 20,
        "granted": True,
    }
    fields.update(overrides)
    return AccessPolicy(**fields)


def test_no_policy_denies():
    assert evaluate_access([], "dr-a", "rec-1", "treatment", 15) == (False, "no_policy")


def test_matching_policy_permits():
    assert evaluate_access([_policy()], "dr-a", "rec-1", "treatment", 15) == (
        True,
        "granted",
    )


def test_window_is_inclusive():
    policies = [_policy()]
    assert evaluate_access(policies, "dr-a", "rec-1", "treatment", 10)[0] is True
    assert evaluate_access(policies, "dr-a", "rec-1", "treatment", 20)[0] is True
    assert evaluate_access(policies, "dr-a", "rec-1", "treatment", 9) == (False, "expired")
    assert evaluate_access(policies, "dr-a", "rec-1", "treatment", 21) == (False, "expired")


def test_revoked_policy_denies():
    assert evaluate_access([_policy(granted=False)], "dr-a", "rec-1", "treatment", 15) == (
        False,
        "revoked",
    )


def test_purpose_mismatch_denies():
    assert evaluate_access([_policy()], "dr-a", "rec-1", "research", 15) == (
        False,
        "purpose_mismatch",
    )


def test_other_user_is_invisible():
    assert evaluate_access([_policy()], "dr-b", "rec-1", "treatment", 15) == (
        False,
        "no_policy",
    )


def test_wildcard_scope_needs_owner_map():
    policy = _policy(record_scope=institution_scope("hospital-a"))
    assert evaluate_access([policy], "dr-a", "rec-1", "treatment", 15, "hospital-a")[0] is True
    assert evaluate_access([policy], "dr-a", "rec-2", "treatment", 15, "hospital-b") == (
        False,
        "no_policy",
    )
    # without the owner, a wildcard can never match
    assert evaluate_access([policy], "dr-a", "rec-1", "treatment", 15) == (
        False,
        "no_policy",
    )


def test_reason_precedence_order():
    # purpose_mismatch > expired > revoked > no_policy
    mismatch = _policy(policy_id="pm", purpose="research")
    expired = _policy(policy_id="pe", valid_until=12)
    revoked = _policy(policy_id="pr", granted=False)
    t = 15
    assert evaluate_access([revoked, expired, mismatch], "dr-a", "rec-1", "audit", t)[1] == (
        "purpose_mismatch"
    )
    assert evaluate_access([revoked, expired], "dr-a", "rec-1", "treatment", t)[1] == (
        "expired"
    )
    assert evaluate_access([revoked], "dr-a", "rec-1", "treatment", t)[1] == "revoked"
    # any single permit wins over all deny reasons
    assert evaluate_access(
        [revoked, expired, mismatch, _policy(policy_id="ok")], "dr-a", "rec-1", "treatment", t
    ) == (True, "granted")


def test_policy_validation():
    with pytest.raises(ValueError):
        _policy(purpose="surgery")
    with pytest.raises(ValueError):
        _policy(valid_from=30, valid_until=20)
    with pytest.raises(ValueError):
        _policy(policy_id="")
    with pytest.raises(ValueError):  # the ledger schema takes ids as text only
        _policy(policy_id=5)
    with pytest.raises(ValueError):  # nor a grant that is not a bool
        _policy(granted=1)


def test_latest_wins_per_policy_id():
    registry = ConsentRegistry()
    registry.apply(_policy())
    assert registry.evaluate("dr-a", "rec-1", "treatment", 15)[0] is True
    registry.apply(_policy(granted=False))
    assert registry.evaluate("dr-a", "rec-1", "treatment", 15) == (False, "revoked")
    assert len(registry.effective()) == 1


def test_update_consent_appends_transaction():
    chain = Ledger()
    clock = LogicalClock()
    registry = ConsentRegistry()
    tx = update_consent(chain, registry, _policy(), clock)
    assert tx.kind == "ConsentUpdate"
    assert chain.count_kind("ConsentUpdate") == 1
    assert chain.verify_chain() is None
    assert AccessPolicy.from_value(tx.body) == _policy()


def _world():
    rng = np.random.default_rng(5)
    keys = KeyTable()
    keys.register("k-h", rng.bytes(32))
    payload = canonicalize({"record_id": "rec-1", "features": {"hr": 70.0}, "outcome": 1.0})
    sealed = seal(payload, "k-h", keys, rng.bytes(NONCE_LEN))
    commitment = commit(payload, rng.bytes(SALT_LEN))
    table = {"rec-1": SealedRecord("rec-1", "hospital-a", sealed, commitment)}
    chain = Ledger()
    clock = LogicalClock()
    registry = ConsentRegistry()
    update_consent(chain, registry, _policy(valid_from=1, valid_until=1000), clock)
    return keys, payload, table, chain, clock, registry


def test_gated_fetch_permit_returns_plaintext_and_logs():
    keys, payload, table, chain, clock, registry = _world()
    plaintext, tx = gated_fetch(
        chain, keys, registry, table, "dr-a", "rec-1", "treatment", clock
    )
    assert plaintext == payload
    assert tx.kind == "AccessDecision"
    assert tx.body["outcome"] == "permit"
    assert chain.count_kind("AccessDecision") == 1


def test_gated_fetch_deny_returns_none_but_still_logs():
    keys, _, table, chain, clock, registry = _world()
    plaintext, tx = gated_fetch(
        chain, keys, registry, table, "dr-b", "rec-1", "treatment", clock
    )
    assert plaintext is None
    assert tx.body["outcome"] == "deny"
    assert tx.body["reason"] == "no_policy"
    assert chain.count_kind("AccessDecision") == 1


def test_gated_fetch_unknown_record_logs_nothing():
    keys, _, table, chain, clock, registry = _world()
    before = chain.count_kind("AccessDecision")
    with pytest.raises(UnknownRecordError):
        gated_fetch(chain, keys, registry, table, "dr-a", "nope", "treatment", clock)
    assert chain.count_kind("AccessDecision") == before


def test_gated_fetch_tampered_record_raises_alarm_after_logging():
    keys, _, table, chain, clock, registry = _world()
    sealed = table["rec-1"].sealed
    raw = bytearray(sealed.ciphertext)
    raw[-1] ^= 0x01
    table["rec-1"].sealed = type(sealed)(bytes(raw), sealed.auth_tag, sealed.key_id)
    before = chain.count_kind("AccessDecision")
    with pytest.raises(IntegrityAlarmError) as excinfo:
        gated_fetch(chain, keys, registry, table, "dr-a", "rec-1", "treatment", clock)
    assert "rec-1" in str(excinfo.value)
    assert chain.count_kind("AccessDecision") == before + 1  # decision logged first


def test_exactly_one_decision_tx_per_evaluation():
    keys, _, table, chain, clock, registry = _world()
    for user, purpose in [
        ("dr-a", "treatment"),
        ("dr-a", "research"),
        ("dr-b", "audit"),
        ("dr-a", "treatment"),
    ]:
        gated_fetch(chain, keys, registry, table, user, "rec-1", purpose, clock)
    assert chain.count_kind("AccessDecision") == 4
    assert chain.verify_chain() is None
