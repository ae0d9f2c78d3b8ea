"""Hash chain behavior: appends, verification, dumps, and audit trails."""

from __future__ import annotations

import json
import random

import pytest

from bxhf.access import AccessPolicy
from bxhf.canon import canonicalize, dumps, loads
from bxhf.crypto import ZERO_HASH, digest, digest_value
from bxhf.ledger import (
    PURPOSES,
    TX_KINDS,
    Ledger,
    LedgerOrderingError,
    LogicalClock,
    Transaction,
    TransactionValidationError,
    _block_from_line,
    _encode_transactions,
    _is_hash,
    _is_int,
    _sliced_tx_ids,
    _tx_digest,
    _validate_transaction,
    build_transaction,
    dump_ledger,
    load_ledger,
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
            # outside the schema, so built directly: the encoder sees every value
            actor, logical_time = _random_text(rng), clock.next()
            tx_id = _tx_digest(kind, actor, logical_time, body)
            batch.append(Transaction(tx_id, kind, actor, logical_time, body))
        batches.append(batch)
    for batch in batches:
        tx_ids, payload, ends = _encode_transactions(batch)
        assert payload == canonicalize([tx.to_value() for tx in batch])
        assert _sliced_tx_ids(payload, ends) == tx_ids
        assert tx_ids == [_tx_digest(tx.kind, tx.actor, tx.logical_time, tx.body) for tx in batch]
        assert tx_ids == [tx.tx_id for tx in batch]


def _forge(chain: Ledger, index: int, edit) -> str:
    """The dump of ``chain`` with ``edit`` applied to the value of one
    transaction of block ``index``, its tx id, the payload and every later
    hash link recomputed, as a forger who knows the format would."""
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
    return "\n".join(blocks) + "\n"


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
        lambda tv: tv.update(kind="ModelUpdate", body=_model_update_body("x")),
        lambda tv: tv.update(kind="ModelUpdate", body=_model_update_body([1, 2])),
        lambda tv: tv.update(actor=7),
        lambda tv: tv["body"].update(zzz=1),
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
        "str-round",
        "list-round",
        "int-actor",
        "extra-body-key",
    ],
)
def test_mistyped_fields_are_schema_failures_at_their_block(edit):
    chain = Ledger()
    clock = LogicalClock()
    chain.append_block([_registration(clock, "r1")])
    chain.append_block([_consent(clock)])
    text = _forge(chain, 2, edit)
    forged = load_ledger(text)
    assert forged.damaged == 2  # the line fits no template
    assert forged.verify_chain() == 2
    assert verify_dump(text) == 2


@pytest.mark.parametrize(
    "index, field, value",
    [(2, "valid_from", 11), (3, "reason", "no_policy"), (3, "outcome", "deny")],
    ids=["empty-window", "permit-not-granted", "deny-granted"],
)
def test_cross_field_checks_are_made_on_load(index, field, value):
    chain = Ledger()
    clock = LogicalClock()
    chain.append_block([_registration(clock, "r1")])
    chain.append_block([_consent(clock)])  # valid from 1 until 10
    chain.append_block([_decision(clock, "r1", "permit")])
    text = _forge(chain, index, lambda tv: tv["body"].update({field: value}))
    assert load_ledger(text).damaged == index
    assert verify_dump(text) == index


def _model_update_body(round_index) -> dict:
    return {"node_id": "n", "round": round_index, "delta_digest": "0" * 64}


@pytest.mark.parametrize(
    "kind, actor, body",
    [
        ("ModelUpdate", "n", _model_update_body("x")),
        ("ModelUpdate", "n", _model_update_body([1, 2])),
        ("ModelUpdate", 7, _model_update_body(1)),
        ("ModelUpdate", "n", dict(_model_update_body(1), zzz=1)),
    ],
    ids=["str-round", "list-round", "int-actor", "extra-body-key"],
)
def test_build_and_append_reject_what_the_reader_rejects(kind, actor, body):
    with pytest.raises(TransactionValidationError):
        build_transaction(kind, actor, 1, body)
    tx = Transaction(_tx_digest(kind, actor, 1, body), kind, actor, 1, body)
    with pytest.raises(TransactionValidationError):
        Ledger().append_block([tx])


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
    build_transaction("ConsentUpdate", "a", 1, good)
    AccessPolicy.from_value(good)
    bad = dict(good, **{field: value})
    with pytest.raises(TransactionValidationError):
        build_transaction("ConsentUpdate", "a", 1, bad)
    chain = Ledger()
    clock = LogicalClock()
    chain.append_block([_registration(clock, "r1")])
    chain.append_block([_consent(clock)])
    tx = chain.blocks[2].transactions[0]
    chain.blocks[2].transactions[0] = Transaction(tx.tx_id, tx.kind, tx.actor, tx.logical_time, bad)
    assert chain.verify_chain() == 2


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


def test_load_ledger_stops_at_damage_and_reports_it():
    chain = _chain_with_blocks(3)
    lines = dump_ledger(chain).splitlines()
    lines[1] = "not a block"
    loaded = load_ledger("\n".join(lines) + "\n")
    assert loaded.damaged == 1
    assert len(loaded.blocks) == 1  # the blocks before the damaged line
    assert loaded.verify_chain() == 1
    assert loaded.verified() == (1, [])
    empty = load_ledger(b"")
    assert empty.damaged == 0 and empty.blocks == [] and empty.verify_chain() == 0


def test_non_canonical_payload_bytes_are_rejected_even_with_matching_hashes():
    # Same transactions, re-spaced bytes, every hash recomputed over them.
    chain = _chain_with_blocks(2)
    block = chain.blocks[-1]
    block.payload_bytes = b" " + block.payload_bytes
    block.payload_hash = digest(block.payload_bytes)
    block.block_hash = digest(
        canonicalize({"index": block.index, "prev_hash": block.prev_hash, "payload_hash": block.payload_hash})
    )
    assert json.loads(block.payload_bytes) == [tx.to_value() for tx in block.transactions]
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
        assert json.loads(tampered[2]) == json.loads(lines[2])
        assert verify_dump(b"\n".join(tampered)) == 2, respace(lines[2])
        # re-spacing is damage already when loading
        assert load_ledger(b"\n".join(tampered)).damaged == 2


def test_dump_writes_the_stored_payload_bytes():
    text = dump_ledger(_chain_with_blocks(3))
    loaded = load_ledger(text)
    assert dump_ledger(loaded) == text
    block = loaded.blocks[2]
    block.payload_bytes = block.payload_bytes.replace(b',"tx_id"', b', "tx_id"')  # re-spaced
    assert dump_ledger(loaded).split("\n")[2].endswith(block.payload_bytes.decode() + "}")
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
    loaded = load_ledger(bytes(data))
    assert loaded.damaged == 2 and len(loaded.blocks) == 2


def test_line_that_parses_but_is_not_a_block_is_damage():
    lines = dump_ledger(_chain_with_blocks(2)).splitlines()
    for not_a_block in ("[]", '{"index":1}', '{"transactions":7}', "1e999"):
        damaged = "\n".join([lines[0], not_a_block, lines[2]])
        assert verify_dump(damaged) == 1
        assert load_ledger(damaged).damaged == 1


def test_load_reports_damage_but_does_not_verify():
    lines = dump_ledger(_chain_with_blocks(2)).splitlines()
    forged = loads(lines[1])
    forged["block_hash"] = "0" * 64
    lines[1] = dumps(forged)
    text = "\n".join(lines) + "\n"
    loaded = load_ledger(text)
    assert loaded.damaged is None and len(loaded) == 3
    assert loaded.verify_chain() == verify_dump(text) == 1


def test_damage_index_is_the_verdict_when_the_blocks_before_it_verify():
    blocks = _chain_with_blocks(4).blocks
    for k in range(len(blocks) + 1):
        assert Ledger.from_blocks(blocks[:k], damaged=k).verify_chain() == k
    # blocks after the damaged line are not reached
    assert Ledger.from_blocks(blocks[:2] + blocks[3:], damaged=2).verify_chain() == 2
    assert Ledger.from_blocks(blocks).verify_chain() is None
    assert Ledger.from_blocks([]).verify_chain() == 0
    assert Ledger().damaged is None

    forged = _chain_with_blocks(4).blocks
    forged[1].block_hash = "0" * 64
    assert Ledger.from_blocks(forged[:3], damaged=3).verify_chain() == 1


def test_verified_is_the_transactions_before_the_first_corrupt_block():
    chain = _chain_with_blocks(4)
    every = [tx for block in chain.blocks for tx in block.transactions]
    assert chain.verified() == (None, every)
    chain.blocks[3].payload_bytes = b" " + chain.blocks[3].payload_bytes
    assert chain.verified() == (3, every[:2])
    assert Ledger.from_blocks([]).verified() == (0, [])


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


def _rehashed(lines: list[bytes], index: int, edit) -> bytes:
    """The dump with ``edit`` applied to the value of block ``index``, its
    payload hash and every later hash link recomputed over the edited bytes."""
    out = lines[:index]
    prev_hash = loads(lines[index - 1])["block_hash"]
    for i in range(index, len(lines)):
        value = loads(lines[i])
        if i == index:
            edit(value)
        value["prev_hash"] = prev_hash
        value["payload_hash"] = digest(canonicalize(value["transactions"]))
        header = {k: value[k] for k in ("index", "payload_hash", "prev_hash")}
        value["block_hash"] = prev_hash = digest_value(header)
        out.append(canonicalize(value))
    return b"".join(line + b"\n" for line in out)


def _varied_chain() -> Ledger:
    """Blocks of several transactions, with non-ASCII text and the text of a
    ``,"tx_id":"…"}`` member in their bodies."""
    chain = Ledger()
    clock = LogicalClock()
    chain.append_block([_registration(clock, "r0"), _decision(clock, "r0")])
    body = {
        "record_id": "r1-é→中😀",
        "institution_id": 'hôpital-é,"tx_id":"' + "0" * 64 + '"}',
        "commitment": "cd" * 32,
    }
    unusual = build_transaction("DataRegistration", "hôpital-é→中😀", clock.next(), body)
    chain.append_block([unusual, _registration(clock, "r2"), _decision(clock, "r1", "deny")])
    chain.append_block([_registration(clock, "r3")])
    return chain


def test_verify_dump_emits_nothing(monkeypatch):
    import bxhf.canon
    import bxhf.ledger

    data = dump_ledger(_varied_chain()).encode()
    lines = data.split(b"\n")[:-1]
    flipped = bytearray(data)
    flipped[len(lines[0]) + 1 + 200] ^= 0x01
    edit = lambda v: v["transactions"][0]["body"].update(record_id="x")  # noqa: E731
    dumps = {
        "clean": data,
        "flipped": bytes(flipped),
        "rehashed-edit": _rehashed(lines, 1, edit),
        "bad-tx-id": data.replace(lines[2][-80:], lines[2][-80:].replace(b"a", b"b", 1)),
    }
    before = {name: verify_dump(dump) for name, dump in dumps.items()}
    assert before == {"clean": None, "flipped": 1, "rehashed-edit": 1, "bad-tx-id": 2}

    def no_emission(*args, **kwargs):
        raise AssertionError("verify_dump emitted canonical notation")

    for module in (bxhf.canon, bxhf.ledger):
        monkeypatch.setattr(module, "canonicalize", no_emission)
    monkeypatch.setattr(bxhf.canon, "dumps", no_emission)
    assert {name: verify_dump(dump) for name, dump in dumps.items()} == before
    assert load_ledger(data).verify_chain() is None


def test_replaced_transaction_or_bytes_in_memory_are_encoded_again():
    for chain in (_varied_chain(), load_ledger(dump_ledger(_varied_chain()))):
        block = chain.blocks[2]
        original = block.transactions[0]
        block.transactions[0] = Transaction(
            original.tx_id, original.kind, original.actor, original.logical_time,
            dict(original.body, record_id="forged"),
        )
        assert chain.verify_chain() == 2
        block.transactions[0] = original
        assert chain.verify_chain() is None
        # equal bytes in a new object verify through the full encoding
        block.payload_bytes = bytes(bytearray(block.payload_bytes))
        assert chain.verify_chain() is None
        block.transactions.append(block.transactions[-1])
        assert chain.verify_chain() == 2


def test_extra_keys_in_a_transaction_or_after_the_payload_are_corrupt_at_their_block():
    lines = dump_ledger(_varied_chain()).encode().split(b"\n")[:-1]
    for edit in (
        lambda v: v["transactions"][1].update(zzz=1),
        lambda v: v["transactions"][1].update(tx_ie=1),
        lambda v: v.update(zzz=1),
    ):
        forged = _rehashed(lines, 2, edit)
        assert verify_dump(forged) == 2
        assert load_ledger(forged).damaged == 2


def test_non_ascii_text_and_nested_tx_id_keys_verify_and_flips_name_their_block():
    chain = _varied_chain()
    assert chain.verify_chain() is None
    data = dump_ledger(chain).encode()
    assert verify_dump(data) is None
    assert load_ledger(data).verify_chain() is None
    start = data.index(b"\n", data.index(b"\n") + 1) + 1
    end = data.index(b"\n", start)
    line = data[start:end]
    assert "é→中😀".encode() in line and not line.isascii()
    at = line.index("é→中😀".encode())
    # every bit of the non-ASCII text, and of the tx ids after it
    offsets = list(range(at, at + len("é→中😀".encode())))
    for i in range(len(line)):
        if line.startswith(b'"tx_id":"', i):
            offsets += [i + 9, i + 9 + 63]
    for offset in offsets:
        for bit in range(8):
            flipped = bytearray(data)
            flipped[start + offset] ^= 1 << bit
            assert verify_dump(bytes(flipped)) == 2, (offset, bit)


def _reference_read(line: bytes) -> tuple[dict, list[Transaction]]:
    """A dump line read the generic way: ``canon.loads`` of the whole line,
    the block map's five keys, each transaction a map of exactly its five
    fields, then the schema.  Raises ValueError for a line outside it."""
    value = loads(line)
    if not isinstance(value, dict) or list(value) != [
        "block_hash", "index", "payload_hash", "prev_hash", "transactions"
    ]:
        raise ValueError("not a block map")
    hashes = [value["block_hash"], value["payload_hash"], value["prev_hash"]]
    if not (all(map(_is_hash, hashes)) and _is_int(value["index"])):
        raise ValueError("header field of the wrong type")
    if not isinstance(value["transactions"], list):
        raise ValueError("transactions not a list")
    txs = []
    for tv in value["transactions"]:
        if not isinstance(tv, dict) or list(tv) != ["actor", "body", "kind", "logical_time", "tx_id"]:
            raise ValueError("a transaction is not its five fields")
        _validate_transaction(tv["kind"], tv["actor"], tv["logical_time"], tv["body"])
        if not _is_hash(tv["tx_id"]):
            raise ValueError("tx_id not a hash")
        txs.append(Transaction(tv["tx_id"], tv["kind"], tv["actor"], tv["logical_time"], tv["body"]))
    return value, txs


def _assert_readers_agree(line: bytes) -> bool:
    """The template reader accepts ``line`` exactly when the reference does,
    with equal values and the encoder's end offsets; returns whether it did."""
    try:
        value, txs = _reference_read(line)
    except ValueError:
        value = None
    try:
        block = _block_from_line(line)
    except ValueError:
        block = None
    assert (block is None) == (value is None), line
    if block is None:
        return False
    header = (block.block_hash, block.index, block.payload_hash, block.prev_hash)
    assert header == (value["block_hash"], value["index"], value["payload_hash"], value["prev_hash"])
    assert block.transactions == txs
    # types too: the canonical text tells true from 1
    assert dumps([tx.to_value() for tx in block.transactions]) == dumps(value["transactions"])
    assert block.payload_bytes == canonicalize(value["transactions"])
    assert block.layout[2] == _encode_transactions(block.transactions)[2]
    return True


def _random_schema_tx(rng: random.Random, logical_time: int) -> Transaction:
    text = lambda: _random_text(rng)  # noqa: E731
    hash_ = lambda: digest(rng.randbytes(8))  # noqa: E731
    integer = lambda: rng.choice([0, 1, -1, rng.randrange(-(10**12), 10**12)])  # noqa: E731
    kind = rng.choice(TX_KINDS)
    if kind == "DataRegistration":
        body = {"record_id": text(), "institution_id": text(), "commitment": hash_()}
    elif kind == "ConsentUpdate":
        valid_from, valid_until = sorted((integer(), integer()))
        body = {
            "policy_id": text() or "p",
            "user_id": text() or "u",
            "record_scope": text() or "r",
            "purpose": rng.choice(PURPOSES),
            "valid_from": valid_from,
            "valid_until": valid_until,
            "granted": rng.random() < 0.5,
        }
    elif kind == "AccessDecision":
        outcome = rng.choice(["permit", "deny"])
        body = {
            "user_id": text(),
            "record_id": text(),
            "purpose": rng.choice(PURPOSES),
            "outcome": outcome,
            "reason": "granted" if outcome == "permit" else text(),  # never "granted"
        }
    elif kind == "ModelUpdate":
        body = {"node_id": text(), "round": integer(), "delta_digest": hash_()}
    else:
        body = {
            "record_ref": text(),
            "input_commitment": hash_(),
            "model_hash": hash_(),
            "prediction_hash": hash_(),
            "explanation_hash": hash_(),
        }
    return build_transaction(kind, text(), logical_time, body)


@pytest.mark.parametrize("seed", range(3))
def test_template_reader_matches_the_generic_reader_on_chains_and_their_flips(seed):
    rng = random.Random(seed)
    chain = Ledger()
    clock = LogicalClock()
    for _ in range(12):
        chain.append_block([_random_schema_tx(rng, clock.next()) for _ in range(rng.randrange(1, 3))])
    lines = dump_ledger(chain).encode().split(b"\n")[:-1]
    assert all(_assert_readers_agree(line) for line in lines)
    line = rng.choice(lines[1:])
    for outside in (
        line.replace(b'"body":{', b'"body":{"a":1,', 1),  # an extra key
        line.replace(b'"actor":"', b'"actor":"\\ud800', 1),  # a lone surrogate
        line.replace(b'"actor":"', b'"actor":"\\u000a', 1),  # the long form of "\n"
    ):
        assert not _assert_readers_agree(outside)
    accepted = 0
    for offset in range(len(line)):
        for bit in range(8):
            flipped = bytearray(line)
            flipped[offset] ^= 1 << bit
            accepted += _assert_readers_agree(bytes(flipped))
    assert accepted  # some flips stay inside the schema: both readers accept them
