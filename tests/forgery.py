"""Consistent rewrites of a saved world, made as someone who can write its
files and knows their format would make them: every hash the rewrite
touches is recomputed, so nothing fails on a stale hash alone."""

from __future__ import annotations

from pathlib import Path

from bxhf import canon, crypto
from bxhf.harness import (
    LEDGER_FILE,
    WORLD_FILE,
    SealedRecord,
    load_world,
    read_canonical,
    write_canonical,
)
from bxhf.ledger import Ledger, build_transaction, dump_ledger, load_ledger


def rewrite_ledger(world_dir: Path, edit) -> Ledger:
    """Rebuild ``ledger.bx`` with each transaction's body replaced by
    ``edit(tx)``, through ``build_transaction`` and ``append_block``, and
    save it.  Tx ids, payload hashes and links are all recomputed, so the
    rewritten chain verifies.  Returns the rewritten ledger."""
    path = Path(world_dir) / LEDGER_FILE
    ledger = Ledger()
    for block in load_ledger(path.read_bytes()).blocks[1:]:
        ledger.append_block(
            [build_transaction(tx.kind, tx.actor, tx.logical_time, edit(tx)) for tx in block.transactions]
        )
    path.write_bytes(dump_ledger(ledger).encode())
    return ledger


def reseal_record(world_dir: Path, record_id: str, edit, salt: bytes) -> tuple[bytes, crypto.Commitment]:
    """Replace a record of ``world.bx`` with its plaintext value after
    ``edit(value)``, sealed under its owner's key and committed to with
    ``salt``.  Returns the new plaintext bytes and commitment; the chain is
    left as it is."""
    world = load_world(world_dir)
    record = world.records[record_id]
    value = canon.loads(record.open(world.keys))
    edit(value)
    encoded = canon.canonicalize(value)
    commitment = crypto.commit(encoded, salt)
    sealed = crypto.seal(encoded, record.sealed.key_id, world.keys, b"\x07" * crypto.NONCE_LEN)
    path = Path(world_dir) / WORLD_FILE
    saved = read_canonical(path)
    saved["records"][record_id] = SealedRecord(
        record_id, record.institution_id, sealed, commitment
    ).to_value()
    write_canonical(path, saved)
    return encoded, commitment
