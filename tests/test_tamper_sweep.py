"""Tampering with a saved ledger: every change must be caught on disk.

A seeded sample of flips spread over every byte of the demo ``ledger.bx``
(newlines included) and all 8 bits, plus the flips that once slipped through
or crashed: a newline turned into a vertical tab, which ``str.splitlines``
treats as a line break, and bit-7 flips, which leave a byte that is not UTF-8.
Each must make ``verify-chain`` exit 1 and name the block whose line
(terminating newline included) holds the flip.  Beyond single bits: lines
re-spaced without changing their value, a forged transaction whose hashes
were all recomputed, and damage in two places at once.

``score`` must agree with ``verify-chain`` on a damaged ledger, ``audit``
(which does not verify) must print no traceback for a forged one, a
transaction body that fails its schema must fail ``score``,
``verify-decision`` and ``explain`` at the chain, a body the readers cannot
use must fail that schema even with every hash recomputed, a block damaged
in memory must stay damaged in the saved file, and a seeded sample of flips
of the demo ``world.bx`` must give every reading command an exit code, never
a traceback.
"""

from __future__ import annotations

import bisect
import json
import random
import re
import shutil

import pytest

from bxhf.canon import NotationParseError, canonicalize, dumps, loads
from bxhf.cli import main
from bxhf.crypto import digest, digest_value
from bxhf.harness import (
    LEDGER_FILE,
    REPORT_FILE,
    WORLD_FILE,
    build_scenario,
    read_canonical,
    run_workflow,
    save_world,
    tamper,
)
from bxhf.ledger import _tx_digest, verify_dump
from bxhf.scenario import demo_profile, validate_config

SAMPLED_BYTES = 32  # each flipped on all 8 bits


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep")
    scenario = base / "scenario.bx"
    out = base / "out"
    assert main(["init", "--out", str(scenario), "--profile", "demo"]) == 0
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def ledger(world_dir):
    return (world_dir / LEDGER_FILE).read_bytes()


def _flips(data: bytes) -> list[tuple[int, int]]:
    rng = random.Random(20250917)
    sampled = [(offset, bit) for offset in rng.sample(range(len(data)), SAMPLED_BYTES) for bit in range(8)]
    newlines = [i for i, byte in enumerate(data) if byte == 0x0A]
    vertical_tabs = [(offset, 0) for offset in newlines]  # 0x0a ^ 0x01 == 0x0b
    high_bits = [(offset, 7) for offset in rng.sample(range(len(data)), 16)]
    return sampled + vertical_tabs + high_bits


def test_every_flip_fails_verify_chain_at_its_block(ledger, tmp_path, capsys):
    assert ledger.endswith(b"\n")
    line_ends = [i for i, byte in enumerate(ledger) if byte == 0x0A]
    path = tmp_path / LEDGER_FILE
    missed = []
    for offset, bit in _flips(ledger):
        tampered = bytearray(ledger)
        tampered[offset] ^= 1 << bit
        path.write_bytes(bytes(tampered))
        capsys.readouterr()
        rc = main(["verify-chain", "--ledger", str(path)])
        out = capsys.readouterr().out
        block = bisect.bisect_left(line_ends, offset)
        if rc != 1 or out != f"corrupt at block {block}\n":
            missed.append((offset, bit, rc, out))
    assert missed == []


def test_untampered_ledger_verifies(ledger, tmp_path, capsys):
    path = tmp_path / LEDGER_FILE
    path.write_bytes(ledger)
    blocks = ledger.count(b"\n")
    assert main(["verify-chain", "--ledger", str(path)]) == 0
    assert capsys.readouterr().out == f"chain valid ({blocks} blocks)\n"


def _verify_chain_cli(data: bytes, tmp_path, capsys) -> tuple[int, str]:
    path = tmp_path / LEDGER_FILE
    path.write_bytes(data)
    capsys.readouterr()
    rc = main(["verify-chain", "--ledger", str(path)])
    return rc, capsys.readouterr().out


@pytest.mark.parametrize(
    "respace",
    [
        lambda line: b"{ " + line[1:],
        lambda line: line + b" ",
        lambda line: line.replace(b'"transactions":[', b'"transactions": [ ', 1),
    ],
    ids=["after-open-brace", "trailing-space", "inside-transactions"],
)
def test_re_spaced_line_is_rejected_at_its_block(ledger, respace, tmp_path, capsys):
    lines = ledger.split(b"\n")
    for block in (0, 3, len(lines) - 2):
        tampered = list(lines)
        tampered[block] = respace(lines[block])
        assert json.loads(tampered[block]) == json.loads(lines[block])
        with pytest.raises(NotationParseError):
            loads(tampered[block])
        data = b"\n".join(tampered)
        assert verify_dump(data) == block
        assert _verify_chain_cli(data, tmp_path, capsys) == (1, f"corrupt at block {block}\n")


def _rehash_from(lines: list[bytes], index: int) -> None:
    """Recompute the tx ids of block ``index`` and every hash and link from
    it to the head, as a forger who knows the format would."""
    blocks = [loads(line) for line in lines[:-1]]
    for tx in blocks[index]["transactions"]:
        tx["tx_id"] = _tx_digest(tx["kind"], tx["actor"], tx["logical_time"], tx["body"])
    for i in range(index, len(blocks)):
        block = blocks[i]
        block["prev_hash"] = blocks[i - 1]["block_hash"]
        block["payload_hash"] = digest(canonicalize(block["transactions"]))
        block["block_hash"] = digest_value(
            {key: block[key] for key in ("index", "prev_hash", "payload_hash")}
        )
        lines[i] = dumps(block).encode()


def test_string_logical_time_with_recomputed_hashes_is_corrupt(world_dir, ledger, tmp_path, capsys):
    lines = ledger.split(b"\n")
    last = len(lines) - 2
    block = loads(lines[last])
    tx = block["transactions"][0]
    tx["logical_time"] = str(tx["logical_time"])
    lines[last] = dumps(block).encode()
    _rehash_from(lines, last)
    data = b"\n".join(lines)
    assert verify_dump(data) == last
    assert _verify_chain_cli(data, tmp_path, capsys) == (1, f"corrupt at block {last}\n")
    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    (world / LEDGER_FILE).write_bytes(data)
    assert main(["score", "--world", str(world)]) == 1
    assert '"integrity": 0.0' in capsys.readouterr().out


def test_earliest_of_two_damaged_blocks_is_named(ledger, tmp_path, capsys):
    lines = ledger.split(b"\n")
    hash_digit = len(b'{"block_hash":"')
    flipped = bytes([lines[1][hash_digit] ^ 1])
    lines[1] = lines[1][:hash_digit] + flipped + lines[1][hash_digit + 1 :]
    lines[3] = lines[3][:-1]
    data = b"\n".join(lines)
    assert verify_dump(data) == 1
    assert _verify_chain_cli(data, tmp_path, capsys) == (1, "corrupt at block 1\n")


def test_score_fails_integrity_on_a_ledger_verify_chain_calls_corrupt(tmp_path, capsys):
    scenario = tmp_path / "scenario.bx"
    out = tmp_path / "out"
    assert main(["init", "--out", str(scenario), "--profile", "demo"]) == 0
    value = json.loads(scenario.read_text())
    value["requests"] = []  # no access decisions, so auditability cannot show the loss
    scenario.write_text(json.dumps(value))
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    path = out / LEDGER_FILE
    data = path.read_bytes()
    last = data.count(b"\n") - 1
    path.write_bytes(data[:-2] + b"\n")  # the last line loses its closing brace
    capsys.readouterr()
    assert main(["verify-chain", "--ledger", str(path)]) == 1
    assert capsys.readouterr().out == f"corrupt at block {last}\n" == "corrupt at block 8\n"
    assert main(["score", "--world", str(out)]) == 1
    assert '"integrity": 0.0' in capsys.readouterr().out


def _forge_last_block(ledger: bytes, edit) -> tuple[bytes, str]:
    """The demo ledger with its last block's first transaction edited (no
    hash fixed), and the record that transaction referenced."""
    lines = ledger.split(b"\n")
    block = loads(lines[-2])
    tx = block["transactions"][0]
    record = tx["body"]["record_id"]
    lines[-2] = edit(lines[-2], block, tx)
    return b"\n".join(lines), record


def _body_seven(line, block, tx):
    tx["body"] = 7
    return dumps(block).encode()


def _string_logical_time(line, block, tx):
    tx["logical_time"] = "x"
    return dumps(block).encode()


def _lone_surrogate_purpose(line, block, tx):
    purpose = f'"purpose":"{tx["body"]["purpose"]}"'.encode()
    assert line.count(purpose) == 1
    return line.replace(purpose, b'"purpose":"\\ud800"')


@pytest.mark.parametrize(
    "edit",
    [_body_seven, _string_logical_time, _lone_surrogate_purpose],
    ids=["body-not-a-map", "string-logical-time", "lone-surrogate"],
)
def test_audit_of_a_forged_ledger_exits_without_a_traceback(ledger, edit, tmp_path, capsys):
    data, record = _forge_last_block(ledger, edit)
    path = tmp_path / LEDGER_FILE
    path.write_bytes(data)
    capsys.readouterr()
    assert main(["audit", "--ledger", str(path), "--record", record]) == 1
    captured = capsys.readouterr()
    # a line outside the schema, or with an escape canonical notation never writes, does not parse
    assert captured.out == "" and captured.err.startswith("ledger does not parse: block 14")


def _body_is_seven(tx):
    tx["body"] = 7


def _valid_from_is_text(tx):
    tx["body"]["valid_from"] = "x"


def _record_ref_missing(tx):
    del tx["body"]["record_ref"]


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("ConsentUpdate", _body_is_seven),
        ("ConsentUpdate", _valid_from_is_text),
        ("DataRegistration", _body_is_seven),
        ("DecisionRecord", _body_is_seven),
        ("DecisionRecord", _record_ref_missing),
    ],
    ids=["consent-body", "consent-valid-from", "registration-body", "decision-body", "decision-ref"],
)
def test_body_failing_its_schema_is_skipped_not_read(
    world_dir, ledger, kind, edit, tmp_path, capsys
):
    """The first ``kind`` transaction's body edited, no hash fixed, in a
    block at or before the first decision's: ``score`` fails integrity, the
    decision fails at the chain, and ``explain`` exits 1."""
    lines = ledger.split(b"\n")
    index, block = next(
        (i, block)
        for i, block in enumerate(loads(line) for line in lines[:-1])
        if any(tx["kind"] == kind for tx in block["transactions"])
    )
    edit(next(tx for tx in block["transactions"] if tx["kind"] == kind))
    lines[index] = dumps(block).encode()
    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    (world / LEDGER_FILE).write_bytes(b"\n".join(lines))
    decision = read_canonical(world_dir / REPORT_FILE)["decision_tx_ids"][0]
    capsys.readouterr()
    assert main(["score", "--world", str(world)]) == 1
    assert '"integrity": 0.0' in capsys.readouterr().out
    assert main(["verify-decision", "--world", str(world), "--decision", decision]) == 1
    assert capsys.readouterr().out == "mismatch: chain\n"
    assert main(["explain", "--world", str(world), "--record", "st-marys-r000"]) == 1
    assert capsys.readouterr().out.startswith(f"corrupt at block {index}:")


@pytest.mark.parametrize("rehash", [False, True], ids=["unhashed", "rehashed"])
@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("DataRegistration", "record_id", [1]),
        ("DecisionRecord", "record_ref", [1]),
        ("ConsentUpdate", "purpose", "surgery"),
        ("ConsentUpdate", "policy_id", ""),
        ("ConsentUpdate", "granted", 1),
    ],
    ids=[
        "registration-record-id",
        "decision-record-ref",
        "consent-purpose",
        "consent-policy-id",
        "consent-granted",
    ],
)
def test_body_the_readers_cannot_use_fails_its_schema(
    world_dir, ledger, kind, field, value, rehash, tmp_path, capsys
):
    """Each of these once made a reading command raise (``TypeError`` or
    ``ValueError``), and with every hash recomputed ``verify-chain`` called
    the chain valid.  Each edited block is at or before the first
    decision's, so that decision fails at the chain."""
    lines = ledger.split(b"\n")
    index, block = next(
        (i, block)
        for i, block in enumerate(loads(line) for line in lines[:-1])
        if any(tx["kind"] == kind for tx in block["transactions"])
    )
    next(tx for tx in block["transactions"] if tx["kind"] == kind)["body"][field] = value
    lines[index] = dumps(block).encode()
    if rehash:
        _rehash_from(lines, index)
    data = b"\n".join(lines)
    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    (world / LEDGER_FILE).write_bytes(data)
    decision = read_canonical(world_dir / REPORT_FILE)["decision_tx_ids"][0]

    assert verify_dump(data) == index
    assert _verify_chain_cli(data, tmp_path, capsys) == (1, f"corrupt at block {index}\n")
    assert main(["score", "--world", str(world)]) == 1
    assert '"integrity": 0.0' in capsys.readouterr().out
    assert main(["verify-decision", "--world", str(world), "--decision", decision]) == 1
    assert capsys.readouterr().out == "mismatch: chain\n"
    assert main(["explain", "--world", str(world), "--record", "st-marys-r000"]) == 1
    assert capsys.readouterr().out.startswith(f"corrupt at block {index}:")


def test_block_damaged_in_memory_stays_damaged_on_disk(tmp_path, capsys):
    world = build_scenario(validate_config(demo_profile()))
    run_workflow(world)
    tamper(world, ("block", 4), 7)
    assert world.ledger.verify_chain() == 4
    save_world(world, tmp_path / "flipped")
    assert _verify_chain_cli(
        (tmp_path / "flipped" / LEDGER_FILE).read_bytes(), tmp_path, capsys
    ) == (1, "corrupt at block 4\n")

    # stored bytes that are not UTF-8 are written as they are
    world = build_scenario(validate_config(demo_profile()))
    run_workflow(world)
    block = world.ledger.blocks[6]
    block.payload_bytes = block.payload_bytes[:9] + b"\xff" + block.payload_bytes[10:]
    save_world(world, tmp_path / "high-bit")
    data = (tmp_path / "high-bit" / LEDGER_FILE).read_bytes()
    assert data.split(b"\n")[6].endswith(block.payload_bytes + b"}")
    assert _verify_chain_cli(data, tmp_path, capsys) == (1, "corrupt at block 6\n")


WORLD_FLIPS = 96


def test_world_flips_give_exit_codes_not_tracebacks(world_dir, tmp_path, capsys):
    """Each command that reads ``world.bx`` returns 0, 1 or 2 on a flipped copy.

    Exit 0 is still possible for a flip in the model: ``score`` does not
    check the model's hash, so a flip there that still parses can leave
    ``score`` at 0.  This test asks only for an exit code.
    """
    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    data = (world_dir / WORLD_FILE).read_bytes()
    decision = read_canonical(world_dir / REPORT_FILE)["decision_tx_ids"][0]
    commands = [
        ["score", "--world", str(world)],
        ["verify-decision", "--world", str(world), "--decision", decision],
        ["explain", "--world", str(world), "--record", "lakeside-r003"],
    ]
    rng = random.Random(20251018)
    codes = set()
    for _ in range(WORLD_FLIPS):
        offset, bit = rng.randrange(len(data)), rng.randrange(8)
        tampered = bytearray(data)
        tampered[offset] ^= 1 << bit
        (world / WORLD_FILE).write_bytes(bytes(tampered))
        for argv in commands:
            codes.add(main(argv))
    capsys.readouterr()
    assert codes <= {0, 1, 2} and 1 in codes


def test_world_flips_in_keys_and_records_byte_strings_fail_score(world_dir, tmp_path, capsys):
    """A flip inside a ``b"..."`` value of ``keys``, or anywhere in
    ``records`` in ``world.bx``, makes ``score`` exit 1: another byte fails
    its seal or commitment, another record id names a record no
    registration owns, and anything else, an upper-case hex digit, a key or
    punctuation included, is not canonical or not a saved world."""
    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    data = (world_dir / WORLD_FILE).read_bytes()
    sections = (data.index(b'"keys":'), data.index(b',"model":')), (data.index(b',"records":'), len(data))
    digits = [
        offset
        for start, end in sections
        for match in re.finditer(rb'b"([0-9a-f]+)"', data[start:end])
        for offset in range(start + match.start(1), start + match.end(1))
    ]
    rng = random.Random(20251019)
    flips = [(offset, rng.randrange(8)) for offset in rng.sample(digits, 24)]
    letters = [offset for offset in digits if data[offset] >= ord("a")]
    flips += [(offset, 5) for offset in rng.sample(letters, 16)]  # upper case: 0x61 ^ 0x20 == 0x41
    records = range(data.index(b'"records":'), len(data) - 1)
    flips += [(offset, rng.randrange(8)) for offset in rng.sample(records, 48)]
    passed = []
    for offset, bit in flips:
        tampered = bytearray(data)
        tampered[offset] ^= 1 << bit
        (world / WORLD_FILE).write_bytes(bytes(tampered))
        if main(["score", "--world", str(world)]) != 1:
            passed.append((offset, bit))
    capsys.readouterr()
    assert passed == []
