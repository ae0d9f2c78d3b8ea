"""
Sealing records and anchoring them on an append-only chain
==========================================================

A hospital seals two patient records, registers salted commitments on the
ledger, and then we watch both verifiers catch a single flipped bit: chain
verification for block payloads, commitment verification for stored records.
"""

import numpy as np

from bxhf import crypto
from bxhf.ledger import Ledger, LogicalClock, build_transaction, dump_ledger
from bxhf.trust import verify_record
from bxhf.harness import SealedRecord

rng = np.random.default_rng(7)

# --- the hospital's sealing key ---
keys = crypto.KeyTable()
keys.register("k-mercy", rng.bytes(crypto.KEY_LEN))

# --- seal two records and commit to their content ---
records = {}
for rid, hr in (("mercy-r001", 64.0), ("mercy-r002", 97.0)):
    value = {"record_id": rid, "features": {"heart_rate": hr}, "outcome": 0.0}
    commitment = crypto.commit(value, rng.bytes(crypto.SALT_LEN))
    sealed = crypto.seal(value, "k-mercy", keys, rng.bytes(crypto.NONCE_LEN))
    records[rid] = SealedRecord(rid, "mercy", sealed, commitment)
    print(f"sealed {rid}: ciphertext {len(sealed.ciphertext)} bytes,"
          f" commitment {commitment.digest[:16]}…")

# --- register the commitments on-chain (content never leaves the hospital) ---
ledger = Ledger()
clock = LogicalClock()
ledger.append_block([
    build_transaction(
        "DataRegistration",
        "mercy",
        clock.next(),
        {
            "record_id": rid,
            "institution_id": "mercy",
            "commitment": rec.commitment.digest,
        },
    )
    for rid, rec in sorted(records.items())
])
print(f"\nledger has {len(ledger)} blocks (genesis + registrations)")
print("chain verdict:", ledger.verify_chain())   # None means intact

# --- a verifier can confirm a record without special trust ---
registered = {
    tx.body["record_id"]: tx.body["commitment"] for tx in ledger.iter_txs()
    if tx.kind == "DataRegistration"
}
print("\nrecord checks against on-chain commitments:")
for rid, rec in sorted(records.items()):
    print(f"  {rid}: {verify_record(rec, keys, registered[rid]) is not None}")

# --- flip one bit in a block payload: the chain breaks exactly there ---
block = ledger.blocks[1]
block.payload_bytes = block.payload_bytes[:10] + bytes(
    [block.payload_bytes[10] ^ 1]
) + block.payload_bytes[11:]
print("\nafter flipping one bit in block 1:")
print("  chain verdict:", ledger.verify_chain())   # first corrupt index

# restore, then damage a stored record instead
block.payload_bytes = block.payload_bytes[:10] + bytes(
    [block.payload_bytes[10] ^ 1]
) + block.payload_bytes[11:]
assert ledger.verify_chain() is None

rec = records["mercy-r002"]
raw = bytearray(rec.sealed.ciphertext)
raw[20] ^= 1
import dataclasses
records["mercy-r002"] = dataclasses.replace(
    rec, sealed=dataclasses.replace(rec.sealed, ciphertext=bytes(raw))
)
print("\nafter flipping one bit in mercy-r002's stored ciphertext:")
print("  chain verdict:", ledger.verify_chain(), "(the chain is fine)")
checked = verify_record(records["mercy-r002"], keys, registered["mercy-r002"])
print("  record check:", checked is not None)

# --- the dump is one canonical line per block; reload is byte-identical ---
text = dump_ledger(ledger)
print(f"\nledger dump: {len(text.splitlines())} lines, {len(text)} bytes")
