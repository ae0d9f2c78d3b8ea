"""Consistent forgeries of a saved demo world, each with the verdicts every
reading command gives it.

A bit flip is accidental damage; these are rewrites by someone who can
write the files and recompute every hash, made through the helpers in
``forgery.py``.  Also here: records that ``world.bx`` holds but that no
verified registration names, which no key opens because their owner comes
from the chain.
"""

from __future__ import annotations

import json

import pytest

from bxhf import crypto, harness
from bxhf.cli import main
from bxhf.harness import LEDGER_FILE, REPORT_FILE, WORLD_FILE, read_canonical, write_canonical
from forgery import reseal_record, rewrite_ledger

SWAPPED = "st-marys-r000"


@pytest.fixture
def world_dir(tmp_path, capsys):
    scenario = tmp_path / "scenario.bx"
    out = tmp_path / "out"
    assert main(["init", "--out", str(scenario), "--profile", "demo"]) == 0
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def _score(out, capsys) -> tuple[int, dict]:
    rc = main(["score", "--world", str(out)])
    return rc, json.loads(capsys.readouterr().out)


def test_rewriting_the_ledger_unchanged_keeps_its_bytes(world_dir):
    before = (world_dir / LEDGER_FILE).read_bytes()
    rewrite_ledger(world_dir, lambda tx: tx.body)
    assert (world_dir / LEDGER_FILE).read_bytes() == before


def test_record_swap_fails_verify_decision_and_explain_at_the_input(world_dir, capsys):
    """Reseal a record with an edited feature and a new salt, rewrite its
    decisions to bind the new commitment, prediction and explanation, and
    rehash the chain.  The chain verifies, but the record's commitment is
    its registration's, which the new plaintext does not match."""
    encoded, commitment = reseal_record(
        world_dir,
        SWAPPED,
        lambda value: value["features"].update(troponin=3.0),
        b"\x05" * crypto.SALT_LEN,
    )
    world = harness.load_world(world_dir)
    spec = world.config.feature_spec
    x, _ = harness._record_row(encoded, spec)
    prediction, explanation = harness._derive_decision(world.model, spec, x, SWAPPED, commitment.digest)

    def swap(tx):
        if tx.kind != "DecisionRecord" or tx.body["record_ref"] != SWAPPED:
            return tx.body
        return {
            **tx.body,
            "input_commitment": commitment.digest,
            "prediction_hash": crypto.digest_value(prediction),
            "explanation_hash": explanation.digest(),
        }

    ledger = rewrite_ledger(world_dir, swap)
    decisions = [
        tx.tx_id
        for tx in ledger.iter_txs()
        if tx.kind == "DecisionRecord" and tx.body["record_ref"] == SWAPPED
    ]
    assert decisions
    assert main(["verify-chain", "--ledger", str(world_dir / LEDGER_FILE)]) == 0
    capsys.readouterr()
    for decision in decisions:
        assert main(["verify-decision", "--world", str(world_dir), "--decision", decision]) == 1
        assert capsys.readouterr().out == "mismatch: input\n"
    assert main(["explain", "--world", str(world_dir), "--record", SWAPPED]) == 1
    assert capsys.readouterr().out.count("  mismatch: input\n") == len(decisions)
    rc, result = _score(world_dir, capsys)
    assert rc == 1
    assert result["security"]["integrity"] == pytest.approx(0.95)  # 19 of 20 records


def test_record_no_registration_names_is_unreadable(world_dir, capsys):
    """A record copied under a new id has no owner, so no key opens it: it
    is listed, counts against provenance, and trains nothing."""
    saved = read_canonical(world_dir / WORLD_FILE)
    saved["records"]["st-marys-r999"] = saved["records"][SWAPPED]
    write_canonical(world_dir / WORLD_FILE, saved)
    rc, result = _score(world_dir, capsys)
    assert rc == 1
    assert result["unreadable_records"] == ["st-marys-r999"]
    assert result["security"]["integrity"] == 1.0
    assert result["security"]["provenance"] == pytest.approx(20 / 21)
    clean = read_canonical(world_dir / REPORT_FILE)["trust"]
    assert result["trust"]["empirical_loss"] == clean["empirical_loss"]
    assert result["trust"]["mean_penalty"] == clean["mean_penalty"]


def test_damaged_registration_block_leaves_every_record_unreadable(world_dir, capsys):
    """Block 1 registers the first institution's records, so the verified
    prefix names no record: none has an owner, and there is no training row
    to score the model on."""
    argv = ["tamper", "--world", str(world_dir), "--target", "block:1", "--offset", "400"]
    assert main(argv) == 0
    capsys.readouterr()
    rc, result = _score(world_dir, capsys)
    assert rc == 1
    assert result["unreadable_records"] == sorted(read_canonical(world_dir / WORLD_FILE)["records"])
    assert "trust" not in result
    assert result["security"]["integrity"] == 0.0
