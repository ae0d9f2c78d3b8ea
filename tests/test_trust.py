"""Security scoring over ledger state and the coupled trust objective."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from bxhf import crypto
from bxhf.harness import SealedRecord
from bxhf.learning import Dataset, FeatureSpec, LinearModel, loss, mean_sign_violation
from bxhf.ledger import Ledger, LogicalClock, build_transaction
from bxhf.trust import (
    DEFAULT_WEIGHTS,
    SecurityReport,
    security_score,
    trust_objective,
    verify_record,
)

KEY_ID = "k-h"


def _sealed(keys: crypto.KeyTable, rng: np.random.Generator, record_id: str) -> SealedRecord:
    value = {"record_id": record_id, "features": {"hr": float(rng.uniform(50, 110))}}
    commitment = crypto.commit(value, rng.bytes(crypto.SALT_LEN))
    payload = crypto.seal(value, KEY_ID, keys, rng.bytes(crypto.NONCE_LEN))
    return SealedRecord(record_id, "hosp", payload, commitment)


def _world(n_records: int = 4, n_decisions: int = 0):
    """A single-institution ledger with registered sealed records and,
    optionally, some logged access decisions."""
    rng = np.random.default_rng(1234)
    keys = crypto.KeyTable()
    keys.register(KEY_ID, rng.bytes(crypto.KEY_LEN))
    ledger = Ledger()
    clock = LogicalClock()
    table: dict[str, SealedRecord] = {}
    txs = []
    for i in range(n_records):
        record = _sealed(keys, rng, f"r{i}")
        table[record.record_id] = record
        txs.append(
            build_transaction(
                "DataRegistration",
                "hosp",
                clock.next(),
                {
                    "record_id": record.record_id,
                    "institution_id": "hosp",
                    "commitment": record.commitment.digest,
                },
            )
        )
    ledger.append_block(txs)
    if n_decisions:
        decisions = [
            build_transaction(
                "AccessDecision",
                "consent-authority",
                clock.next(),
                {
                    "user_id": "dr-a",
                    "record_id": "r0",
                    "purpose": "treatment",
                    "outcome": "permit",
                    "reason": "granted",
                },
            )
            for _ in range(n_decisions)
        ]
        ledger.append_block(decisions)
    return ledger, table, keys


def _tamper_record(table: dict, record_id: str) -> None:
    record = table[record_id]
    raw = bytearray(record.sealed.ciphertext)
    raw[-1] ^= 0x01
    table[record_id] = dataclasses.replace(
        record, sealed=dataclasses.replace(record.sealed, ciphertext=bytes(raw))
    )


def test_verify_record_accepts_intact_and_rejects_tampered():
    _, table, keys = _world(1)
    record = table["r0"]
    plain = crypto.unseal_bytes(record.sealed, keys)
    assert verify_record(record, keys, record.commitment.digest) == plain
    assert verify_record(record, keys, "0" * 64) is None  # wrong registered digest
    _tamper_record(table, "r0")
    assert verify_record(table["r0"], keys, record.commitment.digest) is None


def test_clean_world_scores_one():
    ledger, table, keys = _world(4, n_decisions=2)
    report = security_score(ledger, table, keys, 2)
    assert report.integrity == 1.0
    assert report.provenance == 1.0
    assert report.auditability == 1.0
    assert report.score == 1.0


def test_one_tampered_record_of_four():
    ledger, table, keys = _world(4)
    _tamper_record(table, "r2")
    report = security_score(ledger, table, keys, 0)
    # 3 of 4 records verify; provenance and auditability stay full, so with
    # equal weights the score is (0.75 + 1 + 1) / 3.
    assert report.integrity == pytest.approx(0.75)
    assert report.provenance == 1.0
    assert report.auditability == 1.0
    assert report.score == pytest.approx((0.75 + 1.0 + 1.0) / 3.0)


def test_broken_chain_zeroes_integrity_entirely():
    ledger, table, keys = _world(3)
    ledger.blocks[1].payload_bytes = b"x" + ledger.blocks[1].payload_bytes[1:]
    report = security_score(ledger, table, keys, 0)
    # every record still authenticates, but a corrupt chain gates the whole term
    assert report.integrity == 0.0
    # and the registrations in its corrupt block are not read
    assert report.provenance == 0.0
    assert report.score == pytest.approx((0.0 + 0.0 + 1.0) / 3.0)


def test_unregistered_record_lowers_provenance():
    ledger, table, keys = _world(3)
    rng = np.random.default_rng(9)
    table["ghost"] = _sealed(keys, rng, "ghost")
    report = security_score(ledger, table, keys, 0)
    assert report.provenance == pytest.approx(3.0 / 4.0)
    # the ghost is not registered, so it cannot hurt integrity
    assert report.integrity == 1.0


def test_registered_but_missing_record_hurts_integrity():
    ledger, table, keys = _world(4)
    del table["r1"]
    report = security_score(ledger, table, keys, 0)
    assert report.integrity == pytest.approx(0.75)
    assert report.provenance == 1.0


def test_auditability_ratio_and_cap():
    ledger, table, keys = _world(2, n_decisions=3)
    partial = security_score(ledger, table, keys, 5)
    assert partial.auditability == pytest.approx(0.6)
    capped = security_score(ledger, table, keys, 2)
    assert capped.auditability == 1.0
    vacuous = security_score(ledger, table, keys, 0)
    assert vacuous.auditability == 1.0


def test_weight_validation():
    ledger, table, keys = _world(1)
    with pytest.raises(ValueError):
        security_score(ledger, table, keys, 0, weights=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        security_score(ledger, table, keys, 0, weights=(-0.2, 0.6, 0.6))


def test_score_stays_in_unit_interval_under_random_damage():
    rng = np.random.default_rng(55)
    for _ in range(25):
        ledger, table, keys = _world(5, n_decisions=int(rng.integers(0, 4)))
        if rng.random() < 0.4:
            idx = int(rng.integers(0, len(ledger.blocks)))
            block = ledger.blocks[idx]
            block.payload_bytes = block.payload_bytes[:-1] + bytes(
                [block.payload_bytes[-1] ^ 0x01]
            )
        for rid in list(table):
            roll = rng.random()
            if roll < 0.2:
                _tamper_record(table, rid)
            elif roll < 0.3:
                del table[rid]
        raw = rng.uniform(0.05, 1.0, 3)
        weights = tuple(raw / raw.sum())
        report = security_score(ledger, table, keys, int(rng.integers(0, 6)), weights=weights)
        for part in (report.integrity, report.provenance, report.auditability, report.score):
            assert 0.0 <= part <= 1.0


def _toy_fit():
    rng = np.random.default_rng(77)
    X = rng.standard_normal((30, 2))
    y = (X @ np.array([1.0, -1.0]) > 0).astype(float)
    spec = FeatureSpec(["a", "b"], np.zeros(2), np.array([1, -1]))
    model = LinearModel(np.array([0.8, -0.5]), 0.1, "logistic")
    return model, Dataset(X, y, "hosp"), spec


def test_objective_reduces_to_loss_without_weights():
    model, data, spec = _toy_fit()
    ledger, table, keys = _world(2)
    security = security_score(ledger, table, keys, 0)
    report = trust_objective(model, data, spec, security, penalty_weight=0.0, security_weight=0.0)
    assert report.objective == pytest.approx(loss(model, data))
    assert report.mean_penalty == pytest.approx(mean_sign_violation(model, data.X, spec))


def test_objective_tracks_security_linearly():
    model, data, spec = _toy_fit()
    lam2 = 0.7
    base = dict(penalty_weight=0.25, security_weight=lam2)
    clean = SecurityReport(1.0, 1.0, 1.0, DEFAULT_WEIGHTS, 1.0)
    weak = SecurityReport(0.4, 1.0, 1.0, DEFAULT_WEIGHTS, 0.8)
    r_clean = trust_objective(model, data, spec, clean, **base)
    r_weak = trust_objective(model, data, spec, weak, **base)
    assert r_weak.objective - r_clean.objective == pytest.approx(lam2 * (1.0 - 0.8))


def test_tampering_strictly_worsens_objective():
    model, data, spec = _toy_fit()
    ledger, table, keys = _world(4)
    args = dict(penalty_weight=0.25, security_weight=0.5)
    before = trust_objective(
        model, data, spec, security_score(ledger, table, keys, 0), **args
    )
    _tamper_record(table, "r0")
    after = trust_objective(
        model, data, spec, security_score(ledger, table, keys, 0), **args
    )
    assert after.security < before.security
    assert after.objective > before.objective
    # loss and penalty are untouched by storage damage
    assert after.empirical_loss == before.empirical_loss
    assert after.mean_penalty == before.mean_penalty


def test_objective_weight_validation_and_report_values():
    model, data, spec = _toy_fit()
    clean = SecurityReport(1.0, 1.0, 1.0, DEFAULT_WEIGHTS, 1.0)
    with pytest.raises(ValueError):
        trust_objective(model, data, spec, clean, penalty_weight=-0.1, security_weight=0.0)
    with pytest.raises(ValueError):
        trust_objective(model, data, spec, clean, penalty_weight=0.0, security_weight=-1.0)
    report = trust_objective(model, data, spec, clean, penalty_weight=0.25, security_weight=0.5)
    value = report.to_value()
    assert value["objective"] == pytest.approx(
        value["empirical_loss"] + 0.25 * value["mean_penalty"] - 0.5 * value["security"]
    )
    assert set(value) == {
        "empirical_loss",
        "mean_penalty",
        "security",
        "penalty_weight",
        "security_weight",
        "objective",
    }


def test_security_report_value_shape():
    ledger, table, keys = _world(2, n_decisions=1)
    report = security_score(ledger, table, keys, 1)
    value = report.to_value()
    assert value["score"] == 1.0
    assert value["weights"] == [w for w in DEFAULT_WEIGHTS]
