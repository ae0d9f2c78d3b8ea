"""Command-line behavior: exit codes, printed verdicts, and file effects."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from bxhf import canon, crypto, harness
from bxhf.cli import main
from bxhf.harness import (
    LEDGER_FILE,
    REPORT_FILE,
    SCENARIO_FILE,
    WORLD_FILE,
    read_canonical,
    write_canonical,
)
from bxhf.ledger import Ledger


def _init_and_run(tmp_path: Path, profile: str = "demo", seed: int | None = None) -> Path:
    scenario = tmp_path / "scenario.bx"
    out = tmp_path / "out"
    assert main(["init", "--out", str(scenario), "--profile", profile]) == 0
    argv = ["run", "--scenario", str(scenario), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    return out


def _report(out: Path) -> dict:
    return read_canonical(out / REPORT_FILE)


def _record_of(out: Path, decision: str) -> str:
    return next(
        tx["body"]["record_ref"]
        for line in (out / LEDGER_FILE).read_text().splitlines()
        for tx in canon.parse(line)["transactions"]
        if tx["tx_id"] == decision
    )


def test_init_writes_parseable_scenarios(tmp_path):
    for profile in ("demo", "rare-disease"):
        path = tmp_path / f"{profile}.bx"
        assert main(["init", "--out", str(path), "--profile", profile]) == 0
        value = json.loads(path.read_text())
        assert isinstance(value["seed"], int)


def test_run_produces_world_and_clean_chain(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    stdout = capsys.readouterr().out
    assert "world written to" in stdout
    assert "security=1.000000" in stdout
    for name in (SCENARIO_FILE, LEDGER_FILE, WORLD_FILE, REPORT_FILE):
        assert (out / name).exists()

    assert main(["verify-chain", "--ledger", str(out / LEDGER_FILE)]) == 0
    assert "chain valid (15 blocks)" in capsys.readouterr().out


def test_same_seed_is_byte_identical_and_override_changes_it(tmp_path):
    out_a = _init_and_run(tmp_path / "a")
    out_b = _init_and_run(tmp_path / "b")
    assert (out_a / LEDGER_FILE).read_bytes() == (out_b / LEDGER_FILE).read_bytes()
    assert (out_a / REPORT_FILE).read_bytes() == (out_b / REPORT_FILE).read_bytes()

    out_c = _init_and_run(tmp_path / "c", seed=999)
    assert (out_a / LEDGER_FILE).read_bytes() != (out_c / LEDGER_FILE).read_bytes()


def test_block_tamper_is_caught_by_verify_chain(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    assert main(["tamper", "--world", str(out), "--target", "block:4", "--offset", "7"]) == 0
    capsys.readouterr()
    assert main(["verify-chain", "--ledger", str(out / LEDGER_FILE)]) == 1
    assert "corrupt at block 4" in capsys.readouterr().out


def test_record_tamper_flags_decision_and_score(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    report = _report(out)
    decision = report["decision_tx_ids"][0]
    rid = _record_of(out, decision)
    assert main(["tamper", "--world", str(out), "--target", f"record:{rid}", "--offset", "2"]) == 0
    capsys.readouterr()

    assert main(["verify-decision", "--world", str(out), "--decision", decision]) == 1
    assert "mismatch: input" in capsys.readouterr().out

    assert main(["explain", "--world", str(out), "--record", rid]) == 1
    stdout = capsys.readouterr().out
    assert f"decision {decision}\n  mismatch: input\n" in stdout
    assert "on-chain binding" not in stdout

    assert main(["score", "--world", str(out)]) == 1
    scored = json.loads(capsys.readouterr().out)
    assert scored["security"]["integrity"] < 1.0

    # the chain itself was not touched
    assert main(["verify-chain", "--ledger", str(out / LEDGER_FILE)]) == 0


def test_explanation_is_not_a_tamper_target(tmp_path, capsys):
    """A saved world stores no explanation: ``explain`` re-derives it."""
    out = _init_and_run(tmp_path)
    decision = _report(out)["decision_tx_ids"][0]
    saved = (out / WORLD_FILE).read_bytes()
    capsys.readouterr()
    argv = ["tamper", "--world", str(out), "--target", f"explanation:{decision}", "--offset", "12"]
    assert main(argv) == 2
    assert "target must be block:<index> or record:<id>" in capsys.readouterr().err
    assert (out / WORLD_FILE).read_bytes() == saved


def test_model_edit_fails_verify_decision_and_explain_at_the_model(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    decision = _report(out)["decision_tx_ids"][0]
    world = read_canonical(out / WORLD_FILE)
    world["model"]["weights"][0] += 1e-6
    write_canonical(out / WORLD_FILE, world)
    capsys.readouterr()
    assert main(["verify-decision", "--world", str(out), "--decision", decision]) == 1
    assert capsys.readouterr().out == "mismatch: model\n"
    assert main(["explain", "--world", str(out), "--record", _record_of(out, decision)]) == 1
    assert "  mismatch: model\n" in capsys.readouterr().out


def test_feature_baseline_edit_fails_verify_decision_at_the_explanation(tmp_path, capsys):
    """The baseline moves every attribution but not the prediction."""
    out = _init_and_run(tmp_path)
    decision = _report(out)["decision_tx_ids"][0]
    scenario = json.loads((out / SCENARIO_FILE).read_text())
    scenario["features"]["baseline"][0] += 0.5
    (out / SCENARIO_FILE).write_text(json.dumps(scenario))
    capsys.readouterr()
    assert main(["verify-decision", "--world", str(out), "--decision", decision]) == 1
    assert capsys.readouterr().out == "mismatch: explanation\n"
    assert main(["explain", "--world", str(out), "--record", _record_of(out, decision)]) == 1
    assert "  mismatch: explanation\n" in capsys.readouterr().out


@pytest.mark.parametrize("weight", [1e308, 1e200, 1e160])
def test_training_that_diverges_is_a_config_error(tmp_path, capsys, weight):
    scenario = tmp_path / "scenario.bx"
    assert main(["init", "--out", str(scenario), "--profile", "demo"]) == 0
    value = json.loads(scenario.read_text())
    value["train"]["link"] = "identity"
    value["records"]["planted_weights"][0] = weight
    scenario.write_text(json.dumps(value))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        rc = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: training diverged: ")


def test_each_command_opens_only_the_records_it_reads(tmp_path, capsys, monkeypatch):
    out = _init_and_run(tmp_path)
    decision = _report(out)["decision_tx_ids"][0]
    records = len(read_canonical(out / WORLD_FILE)["records"])
    opened = []
    unseal = crypto.unseal

    def counted(payload, keys):
        opened.append(payload)
        return unseal(payload, keys)

    monkeypatch.setattr(crypto, "unseal", counted)
    for argv, rc, opens in (
        (["run", "--scenario", str(out / SCENARIO_FILE), "--out", str(tmp_path / "again")], 0, records),
        (["verify-decision", "--world", str(out), "--decision", decision], 0, 1),
        (["explain", "--world", str(out), "--record", _record_of(out, decision)], 0, 1),
        (["score", "--world", str(out)], 0, records),
    ):
        opened.clear()
        assert main(argv) == rc
        assert len(opened) == opens, argv[0]
        assert len(set(opened)) == opens  # each record once


def test_record_missing_a_feature_fails_score_not_other_decisions(tmp_path, capsys):
    """A record resealed under its own key, its plaintext short of a
    feature: it still authenticates, so ``score`` cannot build its row and
    names the parse error, while a decision on another record replays."""
    out = _init_and_run(tmp_path)
    decisions = _report(out)["decision_tx_ids"]
    damaged = _record_of(out, decisions[0])
    other = next(d for d in decisions if _record_of(out, d) != damaged)
    value = read_canonical(out / WORLD_FILE)
    keys = crypto.KeyTable.from_value(value["keys"])
    record = value["records"][damaged]["sealed"]
    sealed = crypto.SealedPayload.from_value(record)
    plaintext = canon.loads(crypto.unseal(sealed, keys))
    del plaintext["features"][sorted(plaintext["features"])[0]]
    encoded = canon.canonicalize(plaintext)
    resealed = crypto.seal(encoded, sealed.key_id, keys, b"\x01" * crypto.NONCE_LEN)
    value["records"][damaged]["sealed"] = resealed.to_value()
    write_canonical(out / WORLD_FILE, value)
    capsys.readouterr()

    assert main(["score", "--world", str(out)]) == 1
    assert "world.bx is not a saved world: KeyError" in capsys.readouterr().err
    assert main(["verify-decision", "--world", str(out), "--decision", other]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert main(["verify-decision", "--world", str(out), "--decision", decisions[0]]) == 1
    assert capsys.readouterr().out == "mismatch: input\n"

    # committed to as well, in world.bx and in the decision (no hash fixed):
    # the decision's own block no longer verifies
    commitment = crypto.commit(encoded, b"\x02" * crypto.SALT_LEN)
    value["records"][damaged]["commitment"] = commitment.to_value()
    write_canonical(out / WORLD_FILE, value)
    lines = (out / LEDGER_FILE).read_bytes().split(b"\n")
    index = next(i for i, line in enumerate(lines) if decisions[0].encode() in line)
    old_digest = canon.loads(lines[index])["transactions"][-1]["body"]["input_commitment"]
    lines[index] = lines[index].replace(old_digest.encode(), commitment.digest.encode())
    (out / LEDGER_FILE).write_bytes(b"\n".join(lines))
    assert main(["verify-decision", "--world", str(out), "--decision", decisions[0]]) == 1
    assert capsys.readouterr().out == "mismatch: chain\n"


@pytest.mark.parametrize(
    "path, value",
    [
        (("sealed", "ciphertext"), "text"),
        (("sealed", "key_id"), 7),
        (("commitment", "salt"), "text"),
        (("institution_id",), 5),
    ],
    ids=["ciphertext", "key-id", "salt", "institution"],
)
def test_record_not_shaped_like_a_sealed_record_is_a_parse_error(tmp_path, capsys, path, value):
    out = _init_and_run(tmp_path)
    decision = _report(out)["decision_tx_ids"][0]
    rid = _record_of(out, decision)
    world = read_canonical(out / WORLD_FILE)
    holder = world["records"][rid]
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    write_canonical(out / WORLD_FILE, world)
    capsys.readouterr()
    for argv in (
        ["verify-decision", "--world", str(out), "--decision", decision],
        ["explain", "--world", str(out), "--record", rid],
        ["score", "--world", str(out)],
    ):
        assert main(argv) == 1
        assert "world.bx is not a saved world" in capsys.readouterr().err


def test_verify_decision_valid_and_unknown(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    decision = _report(out)["decision_tx_ids"][0]
    assert main(["verify-decision", "--world", str(out), "--decision", decision]) == 0
    assert "valid" in capsys.readouterr().out

    assert main(["verify-decision", "--world", str(out), "--decision", "f" * 64]) == 2
    assert "unknown decision" in capsys.readouterr().err


def test_audit_prints_record_history(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    capsys.readouterr()
    ledger_path = str(out / LEDGER_FILE)
    assert main(["audit", "--ledger", ledger_path, "--record", "lakeside-r003"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
    assert len(lines) >= 2  # registration plus at least one access decision
    kinds = [canon.parse(line)["kind"] for line in lines]
    assert kinds[0] == "DataRegistration"
    assert "AccessDecision" in kinds

    assert main(["audit", "--ledger", ledger_path, "--record", "never-existed"]) == 0
    assert "no transactions reference" in capsys.readouterr().out


def test_score_clean_world(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    capsys.readouterr()
    assert main(["score", "--world", str(out)]) == 0
    value = json.loads(capsys.readouterr().out)
    assert value["security"]["score"] == 1.0
    assert "trust" in value


def test_score_that_is_not_finite_exits_one_without_printing(tmp_path, capsys, monkeypatch):
    out = _init_and_run(tmp_path)
    score_world = harness.score_world

    def overflowed(world):
        result = score_world(world)
        result["trust"]["objective"] = float("inf")
        return result

    monkeypatch.setattr(harness, "score_world", overflowed)
    capsys.readouterr()
    assert main(["score", "--world", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("score cannot be printed: Out of range float values")


def test_saved_file_is_canonical_bytes_and_one_newline(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    data = (out / WORLD_FILE).read_bytes()
    assert data == canon.canonicalize(read_canonical(out / WORLD_FILE)) + b"\n"
    for damaged in (data[:-1], data + b"\n", b" " + data, data[:-1] + b"\r\n"):
        (out / WORLD_FILE).write_bytes(damaged)
        capsys.readouterr()
        assert main(["score", "--world", str(out)]) == 1
        assert capsys.readouterr().err.startswith("file does not parse: ")


def test_explain_prints_ranked_attributions(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    assert main(["explain", "--world", str(out), "--record", "lakeside-r003"]) == 0
    stdout = capsys.readouterr().out
    assert "prediction" in stdout
    assert "baseline" in stdout
    assert "troponin" in stdout
    assert "on-chain binding: ok" in stdout

    assert main(["explain", "--world", str(out), "--record", "missing"]) == 2
    assert main(["explain", "--world", str(out), "--record", "st-marys-r009"]) == 0


def test_explain_lists_every_decision_on_a_record_in_chain_order(tmp_path, capsys):
    scenario = tmp_path / "scenario.bx"
    out = tmp_path / "out"
    assert main(["init", "--out", str(scenario), "--profile", "demo"]) == 0
    value = json.loads(scenario.read_text())
    # dr-tanaka's wildcard treatment grant covers lakeside records
    value["requests"].append(
        {"user_id": "dr-tanaka", "record_id": "lakeside-r003", "purpose": "treatment"}
    )
    scenario.write_text(json.dumps(value))
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    on_chain = [
        tx["tx_id"]
        for line in (out / LEDGER_FILE).read_text().splitlines()
        for tx in canon.parse(line)["transactions"]
        if tx["kind"] == "DecisionRecord" and tx["body"]["record_ref"] == "lakeside-r003"
    ]
    assert len(on_chain) == 2
    capsys.readouterr()
    assert main(["explain", "--world", str(out), "--record", "lakeside-r003"]) == 0
    stdout = capsys.readouterr().out
    listed = [line.split()[1] for line in stdout.splitlines() if line.startswith("decision ")]
    assert listed == on_chain
    assert stdout.count("on-chain binding: ok") == 2


def test_usage_errors_exit_two(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    cases = [
        ["tamper", "--world", str(out), "--target", "nonsense", "--offset", "0"],
        ["tamper", "--world", str(out), "--target", "block:notanumber", "--offset", "0"],
        ["tamper", "--world", str(out), "--target", "block:999", "--offset", "0"],
        ["tamper", "--world", str(out), "--target", "record:ghost", "--offset", "0"],
        ["tamper", "--world", str(out), "--target", "record:lakeside-r000", "--offset", "999999"],
        ["run", "--scenario", str(tmp_path / "missing.bx"), "--out", str(tmp_path / "x")],
        ["verify-chain", "--ledger", str(tmp_path / "missing.ledger")],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
    capsys.readouterr()


def test_argparse_errors_are_exit_codes_not_exceptions(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda v: v["trust"].update(component_weights=[0.5, 0.7, -0.2]), "component_weights"),
        (lambda v: v["trust"].update(component_weights=[0.4, 0.3, 0.2]), "component_weights"),
        (lambda v: v["trust"].update(component_weights=[0.4, "0.3", 0.3]), "component_weights"),
        (lambda v: v["trust"].update(component_weights=[10**400, 0, 0]), "out of range"),
        (lambda v: v["train"].update(learning_rate=10**400), "train.learning_rate"),
        (lambda v: v.pop("records"), "scenario.records: missing"),
    ],
    ids=[
        "negative-weight",
        "weights-not-summing-to-one",
        "text-weight",
        "huge-weight",
        "huge-learning-rate",
        "no-records",
    ],
)
def test_config_errors_exit_two_not_a_traceback(tmp_path, capsys, edit, field):
    scenario = tmp_path / "scenario.bx"
    assert main(["init", "--out", str(scenario), "--profile", "demo"]) == 0
    value = json.loads(scenario.read_text())
    edit(value)
    scenario.write_text(json.dumps(value))
    capsys.readouterr()
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


def test_line_breaks_of_the_ledger_are_checked(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    path = out / LEDGER_FILE
    clean = path.read_bytes()
    blocks = clean.count(b"\n")
    lines = clean.split(b"\n")
    cases = {
        clean + b" \t\n\n": blocks,
        b"\n".join(lines[:3] + [b"  "] + lines[3:]): 3,
        b"\n".join(lines[:3] + [b""] + lines[3:]): 3,
        clean[:-1]: blocks - 1,
        clean.replace(b"\n", b"\r\n", 1): 0,
    }
    for data, verdict in cases.items():
        path.write_bytes(data)
        capsys.readouterr()
        assert main(["verify-chain", "--ledger", str(path)]) == 1
        assert capsys.readouterr().out == f"corrupt at block {verdict}\n"

    # tamper finds the last block by its line, with or without its final newline
    last_line = len(clean) - len(lines[-2]) - 1
    for data in (clean, clean[:-1]):
        path.write_bytes(data)
        assert main(["tamper", "--world", str(out), "--target", "block:14", "--offset", "3"]) == 0
        expected = bytearray(data)
        expected[last_line + 3] ^= 0x01
        assert path.read_bytes() == expected
    assert main(["tamper", "--world", str(out), "--target", "block:15", "--offset", "3"]) == 2


def _decision_on(out: Path, record: str) -> str:
    return next(d for d in _report(out)["decision_tx_ids"] if _record_of(out, d) == record)


def test_decision_and_explain_fail_when_the_decisions_block_does_not_verify(tmp_path, capsys):
    """``"granted"`` becomes ``"grantee"`` in block 9, which holds the
    decision on st-marys-r000; no hash is fixed."""
    out = _init_and_run(tmp_path)
    decision = _decision_on(out, "st-marys-r000")
    assert main(["tamper", "--world", str(out), "--target", "block:9", "--offset", "352"]) == 0
    assert b'"reason":"grantee"' in (out / LEDGER_FILE).read_bytes().split(b"\n")[9]
    capsys.readouterr()
    assert main(["verify-chain", "--ledger", str(out / LEDGER_FILE)]) == 1
    assert capsys.readouterr().out == "corrupt at block 9\n"
    assert main(["verify-decision", "--world", str(out), "--decision", decision]) == 1
    assert capsys.readouterr().out == "mismatch: chain\n"
    assert main(["explain", "--world", str(out), "--record", "st-marys-r000"]) == 1
    stdout = capsys.readouterr().out
    assert stdout.startswith("corrupt at block 9:")
    assert "no decisions recorded for 'st-marys-r000'" in stdout


def test_damage_after_a_decisions_block_does_not_fail_it(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    decision = _decision_on(out, "st-marys-r000")
    assert main(["tamper", "--world", str(out), "--target", "block:14", "--offset", "300"]) == 0
    capsys.readouterr()
    assert main(["verify-chain", "--ledger", str(out / LEDGER_FILE)]) == 1
    assert capsys.readouterr().out == "corrupt at block 14\n"
    assert main(["verify-decision", "--world", str(out), "--decision", decision]) == 0
    assert capsys.readouterr().out == "valid\n"
    # explain shows the verified decision and still fails on the damage
    assert main(["explain", "--world", str(out), "--record", "st-marys-r000"]) == 1
    stdout = capsys.readouterr().out
    assert stdout.startswith("corrupt at block 14:")
    assert f"decision {decision}" in stdout and "on-chain binding: ok" in stdout


def test_unknown_decision_is_a_chain_mismatch_only_on_a_corrupt_chain(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    argv = ["verify-decision", "--world", str(out), "--decision", "f" * 64]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"unknown decision id {'f' * 64!r}\n"
    assert main(["tamper", "--world", str(out), "--target", "block:14", "--offset", "300"]) == 0
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().out == "mismatch: chain\n"


def test_run_verifies_the_chain_once(tmp_path, monkeypatch):
    calls = []
    verify_chain = Ledger.verify_chain

    def counted(ledger):
        calls.append(len(ledger.blocks))
        return verify_chain(ledger)

    monkeypatch.setattr(Ledger, "verify_chain", counted)
    _init_and_run(tmp_path)
    assert calls == [15]


def test_score_counts_only_verified_registrations_and_decisions(tmp_path, capsys):
    """The demo registers 10 records per institution in blocks 1 and 2 and
    logs its 6 access decisions in blocks 9 to 14, one per block."""
    for block, provenance, auditability in ((11, 1.0, 2 / 6), (2, 0.5, 0.0)):
        out = _init_and_run(tmp_path / str(block))
        argv = ["tamper", "--world", str(out), "--target", f"block:{block}", "--offset", "400"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["score", "--world", str(out)]) == 1
        security = json.loads(capsys.readouterr().out)["security"]
        assert security["integrity"] == 0.0
        assert security["provenance"] == pytest.approx(provenance)
        assert security["auditability"] == pytest.approx(auditability)


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda d, f: ["verify-chain", "--ledger", str(d)],
        lambda d, f: ["run", "--scenario", str(d), "--out", str(d / "out")],
        lambda d, f: ["score", "--world", str(f)],
    ],
    ids=["ledger-is-a-directory", "scenario-is-a-directory", "world-is-a-file"],
)
def test_path_of_the_wrong_type_exits_two(tmp_path, capsys, make_argv):
    directory = tmp_path / "dir"
    directory.mkdir()
    file = tmp_path / "file"
    file.write_bytes(b"")
    assert main(make_argv(directory, file)) == 2
    assert capsys.readouterr().err.startswith("cannot access ")
