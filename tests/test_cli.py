"""Command-line behavior: exit codes, printed verdicts, and file effects."""

from __future__ import annotations

from pathlib import Path

import pytest

from bxhf import canon, crypto
from bxhf.cli import main
from bxhf.harness import LEDGER_FILE, REPORT_FILE, SCENARIO_FILE, WORLD_FILE


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
    return canon.loads((out / REPORT_FILE).read_bytes())


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
        value = canon.parse(path.read_text())
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

    assert main(["score", "--world", str(out)]) == 1
    scored = canon.parse(capsys.readouterr().out)
    assert scored["security"]["integrity"] < 1.0

    # the chain itself was not touched
    assert main(["verify-chain", "--ledger", str(out / LEDGER_FILE)]) == 0


def test_explanation_tamper_flags_decision_and_explain(tmp_path, capsys):
    out = _init_and_run(tmp_path)
    decision = _report(out)["decision_tx_ids"][0]
    assert (
        main(["tamper", "--world", str(out), "--target", f"explanation:{decision}", "--offset", "12"])
        == 0
    )
    capsys.readouterr()

    assert main(["verify-decision", "--world", str(out), "--decision", decision]) == 1
    assert "mismatch: explanation" in capsys.readouterr().out


def test_each_command_opens_only_the_records_it_reads(tmp_path, capsys, monkeypatch):
    out = _init_and_run(tmp_path)
    decision = _report(out)["decision_tx_ids"][0]
    records = len(canon.loads((out / WORLD_FILE).read_bytes())["records"])
    opened = []
    unseal_bytes = crypto.unseal_bytes

    def counted(payload, keys):
        opened.append(payload)
        return unseal_bytes(payload, keys)

    monkeypatch.setattr(crypto, "unseal_bytes", counted)
    for argv, rc, opens in (
        (["verify-decision", "--world", str(out), "--decision", decision], 0, 1),
        (["explain", "--world", str(out), "--record", _record_of(out, decision)], 0, 0),
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
    value = canon.loads((out / WORLD_FILE).read_bytes())
    keys = crypto.KeyTable.from_value(value["keys"])
    record = value["records"][damaged]["sealed"]
    sealed = crypto.SealedPayload.from_value(record)
    plaintext = crypto.unseal(sealed, keys)
    del plaintext["features"][sorted(plaintext["features"])[0]]
    resealed = crypto.seal(plaintext, sealed.key_id, keys, b"\x01" * crypto.NONCE_LEN)
    value["records"][damaged]["sealed"] = resealed.to_value()
    (out / WORLD_FILE).write_bytes(canon.canonicalize(value) + b"\n")
    capsys.readouterr()

    assert main(["score", "--world", str(out)]) == 1
    assert "world.bx is not a saved world: KeyError" in capsys.readouterr().err
    assert main(["verify-decision", "--world", str(out), "--decision", other]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert main(["verify-decision", "--world", str(out), "--decision", decisions[0]]) == 1
    assert capsys.readouterr().out == "mismatch: input\n"

    # committed to as well, in world.bx and in the decision (no hash fixed):
    # the replay cannot read the record, which is still an input mismatch
    commitment = crypto.commit(plaintext, b"\x02" * crypto.SALT_LEN)
    value["records"][damaged]["commitment"] = commitment.to_value()
    (out / WORLD_FILE).write_bytes(canon.canonicalize(value) + b"\n")
    lines = (out / LEDGER_FILE).read_bytes().split(b"\n")
    index = next(i for i, line in enumerate(lines) if decisions[0].encode() in line)
    old_digest = canon.loads(lines[index])["transactions"][-1]["body"]["input_commitment"]
    lines[index] = lines[index].replace(old_digest.encode(), commitment.digest.encode())
    (out / LEDGER_FILE).write_bytes(b"\n".join(lines))
    assert main(["verify-decision", "--world", str(out), "--decision", decisions[0]]) == 1
    assert capsys.readouterr().out == "mismatch: input\n"


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
    world = canon.loads((out / WORLD_FILE).read_bytes())
    holder = world["records"][rid]
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    (out / WORLD_FILE).write_bytes(canon.canonicalize(world) + b"\n")
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
    value = canon.parse(capsys.readouterr().out)
    assert value["security"]["score"] == 1.0
    assert "trust" in value


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
    value = canon.parse(scenario.read_text())
    # dr-tanaka's wildcard treatment grant covers lakeside records
    value["requests"].append(
        {"user_id": "dr-tanaka", "record_id": "lakeside-r003", "purpose": "treatment"}
    )
    scenario.write_text(canon.dumps_pretty(value))
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
