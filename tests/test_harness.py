"""End-to-end world building, the scripted workflow, decision verification,
tampering, and persistence."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from bxhf import crypto
from bxhf.access import IntegrityAlarmError
from bxhf.harness import (
    LEDGER_FILE,
    REPORT_FILE,
    TamperTargetError,
    UnknownDecisionError,
    build_scenario,
    check_decision,
    load_world,
    run_workflow,
    save_world,
    score_world,
    tamper,
    verify_decision,
    world_value,
)
from bxhf.canon import NotationParseError, canonicalize, loads
from bxhf.explain import explain_linear
from bxhf.ledger import build_transaction, dump_ledger
from bxhf.scenario import demo_profile, rare_disease_profile, validate_config
from bxhf.trust import DEFAULT_WEIGHTS, SecurityReport, trust_objective, verify_record


def _built():
    return build_scenario(validate_config(demo_profile()))


def _ran():
    world = _built()
    report = run_workflow(world)
    return world, report


def test_build_registers_every_record_on_chain():
    world = _built()
    ledger = world.ledger
    assert ledger.count_kind("DataRegistration") == 20
    assert ledger.count_kind("ConsentUpdate") == 3
    assert ledger.verify_chain() is None
    registered = {
        tx.body["record_id"] for tx in ledger.iter_txs() if tx.kind == "DataRegistration"
    }
    assert registered == set(world.records)
    for rid, record in world.records.items():
        assert record.record_id == rid


def test_build_is_deterministic():
    a = _built()
    b = _built()
    assert dump_ledger(a.ledger) == dump_ledger(b.ledger)
    assert canonicalize(world_value(a)) == canonicalize(world_value(b))

    bumped = demo_profile()
    bumped["seed"] += 1
    c = build_scenario(validate_config(bumped))
    assert dump_ledger(a.ledger) != dump_ledger(c.ledger)


def test_pooled_dataset_stacks_all_institutions():
    world = _built()
    pooled = world.pooled_dataset()
    assert len(pooled) == 20
    assert pooled.X.shape == (20, world.config.feature_spec.dim)
    assert set(np.unique(pooled.y)) <= {0.0, 1.0}


def test_workflow_report_counts():
    world, report = _ran()
    cfg = world.config
    rounds = cfg.federation["rounds"]
    assert report["steps"]["3_training"]["model_updates"] == rounds * len(cfg.institution_ids)
    assert len(report["steps"]["3_training"]["round_losses"]) == rounds
    assert report["steps"]["4_requests"]["total"] == len(cfg.requests)
    assert report["decision_count"] == report["steps"]["4_requests"]["permitted"] == 5
    assert report["steps"]["4_requests"]["denied"] == 1
    # one on-chain access decision per scripted request, no more and no fewer
    assert world.ledger.count_kind("AccessDecision") == len(cfg.requests)
    assert report["security"]["score"] == 1.0
    assert report["steps"]["5_validation"]["consensus"] is True
    assert report["steps"]["5_validation"]["mismatches"] == []
    assert world.ledger.verify_chain() is None


def test_training_actually_learns():
    _, report = _ran()
    losses = report["steps"]["3_training"]["round_losses"]
    assert losses[-1] < np.log(2.0)  # better than an uninformed classifier


def test_every_decision_verifies_when_untouched():
    world, report = _ran()
    for txid in report["decision_tx_ids"]:
        assert verify_decision(world, txid) == "valid"


def test_unknown_decision_id_raises():
    world, _ = _ran()
    with pytest.raises(UnknownDecisionError):
        verify_decision(world, "0" * 64)
    some_registration = next(
        tx for tx in world.ledger.iter_txs() if tx.kind == "DataRegistration"
    )
    with pytest.raises(UnknownDecisionError):
        verify_decision(world, some_registration.tx_id)


def _decision_for_record(world, report):
    txid = report["decision_tx_ids"][0]
    rid = world.ledger.find_tx(txid).body["record_ref"]
    return txid, rid


def test_record_tamper_reports_input_mismatch():
    world, report = _ran()
    txid, rid = _decision_for_record(world, report)
    tamper(world, ("record", rid), 3)
    assert verify_decision(world, txid) == "input"


def test_record_resealed_with_re_spaced_plaintext_fails_input_checks():
    world, report = _ran()
    txid, rid = _decision_for_record(world, report)
    record = world.records[rid]
    plain = crypto.unseal(record.sealed, world.keys)
    re_spaced = b"{ " + plain[1:]
    nonce = record.sealed.ciphertext[: crypto.NONCE_LEN]
    sealed = AESGCM(world.keys.get(record.sealed.key_id)).encrypt(nonce, re_spaced, None)
    world.records[rid] = dataclasses.replace(
        record,
        sealed=dataclasses.replace(
            record.sealed,
            ciphertext=nonce + sealed[: -crypto.TAG_LEN],
            auth_tag=sealed[-crypto.TAG_LEN :],
        ),
    )
    resealed = world.records[rid]
    # same key, authenticates, but the plaintext is not canonical notation
    assert crypto.unseal(resealed.sealed, world.keys) == re_spaced
    with pytest.raises(NotationParseError):
        loads(re_spaced)
    assert verify_record(record, world.keys, record.commitment.digest) == plain
    assert verify_record(resealed, world.keys, record.commitment.digest) is None
    assert verify_decision(world, txid) == "input"


def test_objective_penalty_is_the_mean_per_row_explanation_penalty():
    world, _ = _ran()
    spec = world.config.feature_spec
    pooled = world.pooled_dataset()
    clean = SecurityReport(1.0, 1.0, 1.0, DEFAULT_WEIGHTS, 1.0)
    report = trust_objective(
        world.model, pooled, spec, clean, penalty_weight=0.5, security_weight=0.0
    )
    # each row's hinge, over the attributions of its own explanation
    per_row = [
        float(np.sum(np.maximum(0.0, -spec.sign_constraints * attr)))
        for attr in (explain_linear(world.model, spec, x).attribution_vector(spec) for x in pooled.X)
    ]
    assert report.mean_penalty == float(np.mean(per_row))


def test_model_swap_reports_model_mismatch():
    world, report = _ran()
    txid = report["decision_tx_ids"][0]
    world.model.weights = world.model.weights + 1e-6
    assert verify_decision(world, txid) == "model"


def _with_body(tx, **fields):
    return build_transaction(tx.kind, tx.actor, tx.logical_time, {**tx.body, **fields})


def test_check_decision_returns_what_it_re_derived():
    world, report = _ran()
    tx = world.ledger.find_tx(report["decision_tx_ids"][0])
    verdict, (prediction, explanation) = check_decision(world, tx)
    assert verdict == "valid"
    assert crypto.digest_value(prediction) == tx.body["prediction_hash"]
    assert explanation.digest() == tx.body["explanation_hash"]
    assert explanation.record_ref == tx.body["record_ref"]


def test_altered_prediction_hash_reports_prediction_mismatch():
    world, report = _ran()
    tx = world.ledger.find_tx(report["decision_tx_ids"][0])
    forged = _with_body(tx, prediction_hash=crypto.digest(b"another prediction"))
    assert check_decision(world, forged) == ("prediction", None)


def test_altered_explanation_hash_reports_explanation_mismatch():
    world, report = _ran()
    tx = world.ledger.find_tx(report["decision_tx_ids"][0])
    forged = _with_body(tx, explanation_hash=crypto.digest(b"another explanation"))
    assert check_decision(world, forged) == ("explanation", None)


def test_block_tamper_breaks_the_chain():
    world, _ = _ran()
    assert world.ledger.verify_chain() is None
    tamper(world, ("block", 4), 7)
    assert world.ledger.verify_chain() == 4


def test_tamper_target_validation():
    world, report = _ran()
    with pytest.raises(TamperTargetError):
        tamper(world, ("block", 999), 0)
    with pytest.raises(TamperTargetError):
        tamper(world, ("record", "nope"), 0)
    with pytest.raises(TamperTargetError):
        tamper(world, ("explanation", "nope"), 0)
    with pytest.raises(TamperTargetError):
        tamper(world, ("satellite", "x"), 0)
    with pytest.raises(IndexError):
        tamper(world, ("record", report["decision_tx_ids"] and next(iter(world.record_table))), 10**6)


def test_tampered_fetch_alarms_after_logging_the_permit():
    world = _built()
    # dr-tanaka holds a wildcard treatment grant over lakeside records
    target = next(rid for rid in sorted(world.record_table) if rid.startswith("lakeside"))
    tamper(world, ("record", target), 0)
    config = world.config
    config.raw["requests"] = [
        {"user_id": "dr-tanaka", "record_id": target, "purpose": "treatment"}
    ]
    world.config = validate_config(config.raw)
    before = world.ledger.count_kind("AccessDecision")
    with pytest.raises(IntegrityAlarmError) as err:
        run_workflow(world)
    assert target in str(err.value)
    assert world.ledger.count_kind("AccessDecision") == before + 1


def test_run_report_scores_are_score_world():
    world, report = _ran()
    assert {key: report[key] for key in ("security", "trust")} == score_world(world)


def test_score_world_reflects_tampering():
    world, _ = _ran()
    clean = score_world(world)
    assert clean["security"]["score"] == 1.0
    assert "trust" in clean
    rid = sorted(world.record_table)[0]
    tamper(world, ("record", rid), 5)
    dirty = score_world(world)
    assert dirty["security"]["integrity"] == pytest.approx(19.0 / 20.0)
    assert dirty["trust"]["objective"] > clean["trust"]["objective"]


@pytest.mark.parametrize(
    "profile", [demo_profile, rare_disease_profile], ids=["demo", "rare-disease"]
)
def test_save_and_load_round_trip(tmp_path, profile):
    world = build_scenario(validate_config(profile()))
    report = run_workflow(world)
    save_world(world, tmp_path)
    assert (tmp_path / LEDGER_FILE).exists()
    assert (tmp_path / REPORT_FILE).exists()

    # a saved record is its sealed bytes and salt; the rest is derived on load
    saved = world_value(world)["records"]
    assert all(value.keys() == {"auth_tag", "ciphertext", "salt"} for value in saved.values())
    loaded = load_world(tmp_path)
    assert loaded.records == world.records  # owner, key id and digest included
    assert dump_ledger(loaded.ledger) == dump_ledger(world.ledger)
    assert canonicalize(world_value(loaded)) == canonicalize(world_value(world))
    assert loaded.report is None  # report.bx is the run's unverified log
    assert loaded.unreadable_records == []
    # the same rows, bit for bit, in the same institution and row order
    assert list(loaded.datasets) == list(world.datasets)
    for inst, built in world.datasets.items():
        assert loaded.datasets[inst].X.tobytes() == built.X.tobytes()
        assert loaded.datasets[inst].X.shape == built.X.shape
        assert loaded.datasets[inst].y.tobytes() == built.y.tobytes()
    assert loaded.model.param_hash() == world.model.param_hash()
    for txid in report["decision_tx_ids"]:
        assert verify_decision(loaded, txid) == "valid"
    assert score_world(loaded) == score_world(world)
    # the loaded clock continues past everything on the chain
    assert loaded.clock.next() > world.ledger.max_logical_time()


def test_load_flags_unreadable_records(tmp_path):
    world, report = _ran()
    _, rid = _decision_for_record(world, report)
    tamper(world, ("record", rid), 2)
    save_world(world, tmp_path)

    loaded = load_world(tmp_path)
    assert loaded.unreadable_records == [rid]
    owner = loaded.records[rid].institution_id
    assert len(loaded.datasets[owner]) == 9  # the damaged row is dropped
    assert rid in score_world(loaded).get("unreadable_records", [])


def test_saved_ledger_line_tamper_still_loads_leniently(tmp_path):
    world, _ = _ran()
    save_world(world, tmp_path)
    path = tmp_path / LEDGER_FILE
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:40] + ("0" if lines[3][40] != "0" else "1") + lines[3][41:]
    path.write_text("\n".join(lines) + "\n")

    loaded = load_world(tmp_path)
    assert loaded.ledger is not None
    # the produced chain is shorter or fails verification; either way scoring runs
    result = score_world(loaded)
    assert result["security"]["integrity"] < 1.0


def test_two_runs_same_seed_byte_identical(tmp_path):
    for name in ("a", "b"):
        world, _ = _ran()
        save_world(world, tmp_path / name)
    for name in (LEDGER_FILE, REPORT_FILE, "world.bx", "scenario.bx"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
