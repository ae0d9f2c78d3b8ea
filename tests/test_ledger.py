"""Hash chain behavior: appends, verification, dumps, and audit trails."""

from __future__ import annotations

import random

import pytest

from bxhf.access import AccessPolicy
from bxhf.canon import NotationParseError, canonicalize, dumps, loads
from bxhf.crypto import ZERO_HASH, digest, digest_value
from bxhf.ledger import (
    Ledger,
    LedgerOrderingError,
    LogicalClock,
    Transaction,
    TransactionValidationError,
    _encode_transactions,
    _is_hash,
    _tx_digest,
    build_transaction,
    dump_ledger,
    has_valid_body,
    load_ledger,
    load_ledger_lenient,
    verify_dump,
)


def _registration(clock: LogicalClock, record_id: str = "rec-1") -> Transaction:
    return build_transaction(
        "DataRegistration",
        "hospital-a",
        clock.next(),
        {"record_id": record_id, "institution_id": "hospital-a", "commitment": "ab" * 32},
    )


def _decision(clock: LogicalClock, record_id: str = "rec-1", outcome: str = "permit"):
    reason = "granted" if outcome == "permit" else "no_policy"
    return build_transaction(
        "AccessDecision",
        "dr-x",
        clock.next(),
        {
            "user_id": "dr-x",
            "record_id": record_id,
            "purpose": "treatment",
            "outcome": outcome,
            "reason": reason,
        },
    )


def test_genesis_block_shape():
    chain = Ledger()
    genesis = chain.blocks[0]
    assert len(chain) == 1
    assert genesis.index == 0
    assert genesis.prev_hash == ZERO_HASH
    assert genesis.transactions == []
    assert genesis.payload_bytes == canonicalize([])
    assert chain.verify_chain() is None


def test_tx_id_is_digest_of_canonical_content():
    clock = LogicalClock()
    tx = _registration(clock)
    expected = digest_value(
        {
            "actor": "hospital-a",
            "body": tx.body,
            "kind": "DataRegistration",
            "logical_time": 1,
        }
    )
    assert tx.tx_id == expected


def test_append_links_blocks():
    chain = Ledger()
    clock = LogicalClock()
    b1 = chain.append_block([_registration(clock, "r1")])
    b2 = chain.append_block([_registration(clock, "r2")])
    assert b1.index == 1 and b2.index == 2
    assert b2.prev_hash == b1.block_hash
    assert chain.verify_chain() is None


def test_append_rejects_empty_batch():
    with pytest.raises(TransactionValidationError):
        Ledger().append_block([])


def test_append_rejects_stale_logical_time():
    chain = Ledger()
    clock = LogicalClock()
    tx1 = _registration(clock, "r1")
    chain.append_block([tx1])
    stale = build_transaction("DataRegistration", "hospital-a", 1, tx1.body)
    with pytest.raises(LedgerOrderingError):
        chain.append_block([stale])


def test_append_rejects_nonmonotone_batch():
    chain = Ledger()
    t2 = build_transaction(
        "DataRegistration",
        "a",
        2,
        {"record_id": "r", "institution_id": "a", "commitment": "0" * 64},
    )
    t_same = build_transaction(
        "DataRegistration",
        "a",
        2,
        {"record_id": "r2", "institution_id": "a", "commitment": "0" * 64},
    )
    with pytest.raises(LedgerOrderingError):
        chain.append_block([t2, t_same])


def test_body_schema_enforced():
    with pytest.raises(TransactionValidationError):
        build_transaction("DataRegistration", "a", 1, {"record_id": "r"})
    with pytest.raises(TransactionValidationError):
        build_transaction("NoSuchKind", "a", 1, {})
    with pytest.raises(TransactionValidationError):
        build_transaction(
            "DataRegistration",
            "a",
            1,
            {"record_id": "r", "institution_id": "a", "commitment": "zz"},  # not 64-hex
        )
    # permit must pair with reason "granted"
    with pytest.raises(TransactionValidationError):
        build_transaction(
            "AccessDecision",
            "u",
            1,
            {
                "user_id": "u",
                "record_id": "r",
                "purpose": "treatment",
                "outcome": "permit",
                "reason": "no_policy",
            },
        )


def _chain_with_blocks(n: int = 5) -> Ledger:
    chain = Ledger()
    clock = LogicalClock()
    for i in range(n):
        chain.append_block([_registration(clock, f"r{i}")])
    return chain


def test_tampered_payload_reports_first_corrupt_index():
    chain = _chain_with_blocks(5)
    target = 3
    raw = bytearray(chain.blocks[target].payload_bytes)
    raw[7] ^= 0x01
    chain.blocks[target].payload_bytes = bytes(raw)
    assert chain.verify_chain() == target


def test_every_block_tamper_position_is_detected():
    base = dump_ledger(_chain_with_blocks(4))
    for index in range(5):  # genesis + 4
        chain = load_ledger(base)
        raw = bytearray(chain.blocks[index].payload_bytes)
        if not raw:
            raw = bytearray(b" ")
            chain.blocks[index].payload_bytes = bytes(raw)
        else:
            raw[0] ^= 0x01
            chain.blocks[index].payload_bytes = bytes(raw)
        assert chain.verify_chain() == index


def test_rewritten_transaction_detected_even_with_recomputed_payload():
    # An attacker who rewrites a tx AND fixes payload_bytes still breaks
    # either the stored payload_hash or the hash links.
    chain = _chain_with_blocks(3)
    block = chain.blocks[2]
    forged_body = dict(block.transactions[0].body, record_id="forged")
    forged = Transaction(
        tx_id=block.transactions[0].tx_id,
        kind="DataRegistration",
        actor="hospital-a",
        logical_time=block.transactions[0].logical_time,
        body=forged_body,
    )
    block.transactions[0] = forged
    block.payload_bytes = canonicalize([tx.to_value() for tx in block.transactions])
    assert chain.verify_chain() == 2


def _random_text(rng: random.Random) -> str:
    alphabet = ["a", "Z", "7", " ", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f"]
    alphabet += ["é", "→", "中", "😀"]
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))


def _random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(7 if depth < 3 else 5)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.randrange(-(10**12), 10**12)
    if kind == 2:
        return rng.uniform(-1e6, 1e6)
    if kind == 3:
        return rng.choice([True, False])
    if kind == 4:
        return rng.randbytes(rng.randrange(0, 6))
    if kind == 5:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    return {_random_text(rng): _random_value(rng, depth + 1) for _ in range(rng.randrange(0, 4))}


def test_single_emission_encoder_matches_canonical_batch_and_tx_ids():
    rng = random.Random(3)
    clock = LogicalClock()
    batches = [[]]  # the genesis batch
    for _ in range(40):
        batch = []
        for _ in range(rng.randrange(1, 6)):
            kind = rng.choice(["DataRegistration", "ModelUpdate"])
            fields = {
                "DataRegistration": ("record_id", "institution_id", "commitment"),
                "ModelUpdate": ("node_id", "round", "delta_digest"),
            }[kind]
            body = {_random_text(rng): _random_value(rng) for _ in range(rng.randrange(0, 4))}
            body.update({name: _random_text(rng) for name in fields})
            body[fields[-1]] = digest(rng.randbytes(8))
            batch.append(build_transaction(kind, _random_text(rng), clock.next(), body))
        batches.append(batch)
    for batch in batches:
        tx_ids, payload = _encode_transactions(batch)
        assert payload == canonicalize([tx.to_value() for tx in batch])
        assert tx_ids == [_tx_digest(tx.kind, tx.actor, tx.logical_time, tx.body) for tx in batch]
        assert tx_ids == [tx.tx_id for tx in batch]


def _forge(chain: Ledger, index: int, edit) -> Ledger:
    """Apply ``edit`` to the value of one transaction of block ``index``, then
    recompute its tx id, the payload and every later hash link, as a forger
    who knows the format would."""
    values = [[tx.to_value() for tx in block.transactions] for block in chain.blocks]
    edit(values[index][0])
    blocks = []
    prev_hash = ZERO_HASH
    for i, txs in enumerate(values):
        for tv in txs:
            tv["tx_id"] = _tx_digest(tv["kind"], tv["actor"], tv["logical_time"], tv["body"])
        payload = canonicalize(txs)
        payload_hash = digest(payload)
        header = {"index": i, "prev_hash": prev_hash, "payload_hash": payload_hash}
        block_hash = digest_value(header)
        blocks.append(dumps(dict(header, block_hash=block_hash, transactions=txs)))
        prev_hash = block_hash
    return load_ledger("\n".join(blocks) + "\n")


def _consent(clock: LogicalClock) -> Transaction:
    body = {
        "policy_id": "p1",
        "user_id": "u",
        "record_scope": "r1",
        "purpose": "research",
        "valid_from": 1,
        "valid_until": 10,
        "granted": True,
    }
    return build_transaction("ConsentUpdate", "consent-authority", clock.next(), body)


@pytest.mark.parametrize(
    "edit",
    [
        lambda tv: tv.update(logical_time=str(tv["logical_time"])),
        lambda tv: tv.update(logical_time=True),
        lambda tv: tv.update(logical_time=float(tv["logical_time"])),
        lambda tv: tv["body"].update(valid_from="1"),
        lambda tv: tv["body"].update(valid_until=10.0),
        lambda tv: tv.update(body=7),
        lambda tv: tv.update(kind=["ConsentUpdate"]),
        lambda tv: tv["body"].update(purpose="surgery"),
        lambda tv: tv["body"].update(policy_id=""),
        lambda tv: tv["body"].update(policy_id=[1]),
        lambda tv: tv["body"].update(record_scope=""),
        lambda tv: tv["body"].update(user_id=7),
    ],
    ids=[
        "str-logical-time",
        "bool-logical-time",
        "float-logical-time",
        "str-valid-from",
        "float-valid-until",
        "int-body",
        "list-kind",
        "unknown-purpose",
        "empty-policy-id",
        "list-policy-id",
        "empty-record-scope",
        "int-user-id",
    ],
)
def test_mistyped_fields_are_schema_failures_at_their_block(edit):
    chain = Ledger()
    clock = LogicalClock()
    chain.append_block([_registration(clock, "r1")])
    chain.append_block([_consent(clock)])
    forged = _forge(chain, 2, edit)
    assert forged.verify_chain() == 2
    assert verify_dump(dump_ledger(forged)) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("policy_id", ""),
        ("policy_id", [1]),
        ("user_id", ""),
        ("user_id", None),
        ("record_scope", ""),
        ("record_scope", 3),
        ("purpose", "surgery"),
        ("purpose", ["research"]),
    ],
)
def test_consent_body_passing_its_schema_builds_a_policy(field, value):
    good = _consent(LogicalClock()).body
    assert has_valid_body(Transaction("0" * 64, "ConsentUpdate", "a", 1, good))
    AccessPolicy.from_value(good)
    bad = dict(good, **{field: value})
    assert not has_valid_body(Transaction("0" * 64, "ConsentUpdate", "a", 1, bad))


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("DataRegistration", "record_id", [1]),
        ("DataRegistration", "institution_id", 5),
        ("AccessDecision", "record_id", [1]),
        ("AccessDecision", "purpose", "surgery"),
        ("ModelUpdate", "node_id", None),
        ("DecisionRecord", "record_ref", [1]),
    ],
)
def test_identifiers_must_be_text_and_purposes_known(kind, field, value):
    bodies = {
        "DataRegistration": {"record_id": "r", "institution_id": "a", "commitment": "0" * 64},
        "AccessDecision": {
            "user_id": "u",
            "record_id": "r",
            "purpose": "audit",
            "outcome": "deny",
            "reason": "no_policy",
        },
        "ModelUpdate": {"node_id": "a", "round": 0, "delta_digest": "0" * 64},
        "DecisionRecord": {
            "record_ref": "r",
            "input_commitment": "0" * 64,
            "model_hash": "0" * 64,
            "prediction_hash": "0" * 64,
            "explanation_hash": "0" * 64,
        },
    }
    build_transaction(kind, "a", 1, bodies[kind])
    with pytest.raises(TransactionValidationError, match=field):
        build_transaction(kind, "a", 1, dict(bodies[kind], **{field: value}))


def test_hash_fields_are_64_lowercase_ascii_hex():
    assert _is_hash("0123456789abcdef" * 4)
    for value in (
        "0" * 63,
        "0" * 65,
        "0" * 63 + "A",
        "0" * 63 + "g",
        "0" * 63 + "\u0660",  # ARABIC-INDIC DIGIT ZERO
        "0" * 64 + "\n",
        b"0" * 64,
        None,
    ):
        assert not _is_hash(value), value


def test_non_integer_block_index_is_corrupt():
    chain = _chain_with_blocks(2)
    block = chain.blocks[1]
    block.index = True  # equal to 1, but not the integer 1
    block.block_hash = digest_value(
        {"index": True, "prev_hash": block.prev_hash, "payload_hash": block.payload_hash}
    )
    chain.blocks[2].prev_hash = block.block_hash
    assert chain.verify_chain() == 1


def test_non_integer_logical_time_is_rejected_on_build_and_append():
    body = {"record_id": "r", "institution_id": "a", "commitment": "0" * 64}
    with pytest.raises(TransactionValidationError):
        build_transaction("DataRegistration", "a", True, body)
    tx_id = _tx_digest("DataRegistration", "a", "1", body)
    tx = Transaction(tx_id, "DataRegistration", "a", "1", body)
    with pytest.raises(TransactionValidationError):
        Ledger().append_block([tx])


def test_dump_load_round_trip_is_byte_identical():
    chain = _chain_with_blocks(6)
    text = dump_ledger(chain)
    again = load_ledger(text)
    assert dump_ledger(again) == text
    assert again.verify_chain() is None
    assert len(again) == len(chain)


def test_dump_lines_are_one_block_each():
    chain = _chain_with_blocks(2)
    lines = dump_ledger(chain).splitlines()
    assert len(lines) == 3
    assert [loads(line)["index"] for line in lines] == [0, 1, 2]


def test_verify_dump_flags_unparseable_line():
    chain = _chain_with_blocks(3)
    lines = dump_ledger(chain).splitlines()
    lines[2] = lines[2][:10] + '"' + lines[2][11:]
    assert verify_dump("\n".join(lines)) == 2


def test_verify_dump_clean():
    assert verify_dump(dump_ledger(_chain_with_blocks(3))) is None


def test_load_ledger_lenient_skips_damage_but_reports_it():
    chain = _chain_with_blocks(3)
    lines = dump_ledger(chain).splitlines()
    lines[1] = "not a block"
    loaded = load_ledger_lenient("\n".join(lines))
    assert loaded.damaged == 1
    assert len(loaded.blocks) == 3  # damaged line dropped
    assert loaded.verify_chain() == 1


def test_non_canonical_payload_bytes_are_rejected_even_with_matching_hashes():
    # Same transactions, re-spaced bytes, every hash recomputed over them.
    chain = _chain_with_blocks(2)
    block = chain.blocks[-1]
    block.payload_bytes = b" " + block.payload_bytes
    block.payload_hash = digest(block.payload_bytes)
    block.block_hash = digest(
        canonicalize({"index": block.index, "prev_hash": block.prev_hash, "payload_hash": block.payload_hash})
    )
    assert loads(block.payload_bytes) == [tx.to_value() for tx in block.transactions]
    assert chain.verify_chain() == block.index


def test_re_spaced_line_is_damage_at_its_block():
    data = dump_ledger(_chain_with_blocks(3)).encode()
    lines = data.split(b"\n")
    # the demo-ledger cases live in test_tamper_sweep.py
    respacings = [
        lambda line: line.replace(b'"index":2,', b'"index": 2,'),
        lambda line: line[:-1] + b' }',
        lambda line: line.replace(b',"tx_id"', b', "tx_id"'),
    ]
    for respace in respacings:
        tampered = lines[:2] + [respace(lines[2])] + lines[3:]
        assert loads(tampered[2]) == loads(lines[2])
        assert verify_dump(b"\n".join(tampered)) == 2, respace(lines[2])
    # outside the payload bytes, re-spacing is damage already when loading
    with pytest.raises(NotationParseError, match="block 2"):
        load_ledger(b"\n".join(lines[:2] + [respacings[0](lines[2])] + lines[3:]))


def test_dump_writes_the_stored_payload_bytes():
    text = dump_ledger(_chain_with_blocks(3))
    lines = text.split("\n")
    lines[2] = lines[2].replace(',"tx_id"', ', "tx_id"')  # inside the payload
    re_spaced = "\n".join(lines)
    loaded = load_ledger(re_spaced)
    assert dump_ledger(loaded) == re_spaced
    assert verify_dump(dump_ledger(loaded)) == loaded.verify_chain() == 2

    # bytes that are not UTF-8 survive the text round trip exactly
    loaded.blocks[1].payload_bytes = loaded.blocks[1].payload_bytes.replace(b"[", b"[\xff", 1)
    data = dump_ledger(loaded).encode("utf-8", "surrogateescape")
    assert data.split(b"\n")[1].endswith(loaded.blocks[1].payload_bytes + b"}")
    assert verify_dump(data) == loaded.verify_chain() == 1


def test_dump_lines_split_on_newline_only():
    data = dump_ledger(_chain_with_blocks(3)).encode()
    second_newline = data.index(b"\n", data.index(b"\n") + 1)
    for other_break in (b"\x0b", b"\x0c", b"\x1c", b"\x85"):
        merged = data[:second_newline] + other_break + data[second_newline + 1 :]
        assert verify_dump(merged) == 1


def test_undecodable_line_is_damage_at_its_block():
    data = bytearray(dump_ledger(_chain_with_blocks(3)).encode())
    third_line = data.index(b"\n", data.index(b"\n") + 1) + 1
    data[third_line + 5] ^= 0x80
    assert verify_dump(bytes(data)) == 2
    loaded = load_ledger_lenient(bytes(data))
    assert loaded.damaged == 2 and len(loaded.blocks) == 3
    with pytest.raises(NotationParseError, match="block 2"):
        load_ledger(bytes(data))


def test_line_that_parses_but_is_not_a_block_is_damage():
    lines = dump_ledger(_chain_with_blocks(2)).splitlines()
    for not_a_block in ("[]", '{"index":1}', '{"transactions":7}', "1e999"):
        damaged = "\n".join([lines[0], not_a_block, lines[2]])
        assert verify_dump(damaged) == 1
        with pytest.raises(NotationParseError):
            load_ledger(damaged)


def test_lenient_load_reports_damage_but_does_not_verify():
    lines = dump_ledger(_chain_with_blocks(2)).splitlines()
    forged = loads(lines[1])
    forged["block_hash"] = "0" * 64
    lines[1] = dumps(forged)
    text = "\n".join(lines)
    loaded = load_ledger_lenient(text)
    assert loaded.damaged is None and len(loaded) == 3
    assert loaded.verify_chain() == verify_dump(text) == 1


def test_damage_index_is_the_verdict_when_the_blocks_before_it_verify():
    blocks = _chain_with_blocks(4).blocks
    for k in range(len(blocks) + 1):
        assert Ledger.from_blocks(blocks[:k], damaged=k).verify_chain() == k
    # a lenient load keeps the blocks after the damaged line; they are not reached
    assert Ledger.from_blocks(blocks[:2] + blocks[3:], damaged=2).verify_chain() == 2
    assert Ledger.from_blocks(blocks).verify_chain() is None
    assert Ledger.from_blocks([]).verify_chain() == 0
    assert Ledger().damaged is None

    forged = _chain_with_blocks(4).blocks
    forged[1].block_hash = "0" * 64
    assert Ledger.from_blocks(forged[:3], damaged=3).verify_chain() == 1


def test_audit_trail_in_time_order():
    chain = Ledger()
    clock = LogicalClock()
    reg = _registration(clock, "rec-7")
    other = _registration(clock, "rec-8")
    dec = _decision(clock, "rec-7")
    chain.append_block([reg, other, dec])
    trail = chain.audit_trail("rec-7")
    assert [tx.tx_id for tx in trail] == [reg.tx_id, dec.tx_id]
    assert [tx.logical_time for tx in trail] == sorted(tx.logical_time for tx in trail)
    assert chain.audit_trail("unknown") == []


def test_audit_trail_matches_consent_scope_field():
    chain = Ledger()
    clock = LogicalClock()
    consent = build_transaction(
        "ConsentUpdate",
        "consent-authority",
        clock.next(),
        {
            "policy_id": "p1",
            "user_id": "u",
            "record_scope": "rec-9",
            "purpose": "research",
            "valid_from": 1,
            "valid_until": 10,
            "granted": True,
        },
    )
    chain.append_block([consent])
    assert [tx.tx_id for tx in chain.audit_trail("rec-9")] == [consent.tx_id]


def test_transactions_are_immutable():
    tx = _registration(LogicalClock())
    with pytest.raises(AttributeError):
        tx.actor = "someone-else"


def test_dump_is_deterministic():
    a = dump_ledger(_chain_with_blocks(4))
    b = dump_ledger(_chain_with_blocks(4))
    assert a == b
    assert dumps(loads(a.splitlines()[1])) == a.splitlines()[1]
