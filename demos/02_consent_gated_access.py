"""
Consent policies as the gate in front of every record fetch
===========================================================

Access is deny-by-default.  Grants name a user, a scope (one record or a
whole institution), a purpose, and a validity window; revocations are just
later policy versions.  Every evaluation — permit or deny — lands on the
ledger as one AccessDecision transaction, so the audit trail is complete
by construction.
"""

import numpy as np

from bxhf import canon, crypto
from bxhf.access import AccessPolicy, ConsentRegistry, gated_fetch, update_consent
from bxhf.harness import SealedRecord
from bxhf.ledger import Ledger, LogicalClock

rng = np.random.default_rng(21)

# --- one institution, two sealed records ---
keys = crypto.KeyTable()
keys.register("k-stjude", rng.bytes(crypto.KEY_LEN))
table = {}
for rid in ("stjude-r001", "stjude-r002"):
    encoded = canon.canonicalize(
        {"record_id": rid, "features": {"glucose": float(rng.uniform(70, 180))}, "outcome": 0.0}
    )
    table[rid] = SealedRecord(
        rid, "stjude",
        crypto.seal(encoded, "k-stjude", keys, rng.bytes(crypto.NONCE_LEN)),
        crypto.commit(encoded, rng.bytes(crypto.SALT_LEN)),
    )

ledger = Ledger()
clock = LogicalClock()
registry = ConsentRegistry()

# --- the patient grants dr-kim treatment access to the whole institution ---
grant = AccessPolicy(
    policy_id="p-kim",
    user_id="dr-kim",
    record_scope="stjude/*",
    purpose="treatment",
    valid_from=1,
    valid_until=500,
    granted=True,
)
update_consent(ledger, registry, grant, clock)
print("granted:", grant.policy_id, grant.record_scope, grant.purpose)


def attempt(user, rid, purpose):
    plaintext, tx = gated_fetch(ledger, keys, registry, table, user, rid, purpose, clock)
    verdict = "PERMIT" if plaintext is not None else "DENY"
    print(f"  {user:>9} -> {rid} purpose={purpose:<10} {verdict:<7} reason={tx.body['reason']}")
    return plaintext


print("\nfetch attempts:")
glucose = attempt("dr-kim", "stjude-r001", "treatment")
attempt("dr-kim", "stjude-r001", "research")      # wrong purpose
attempt("dr-patel", "stjude-r002", "treatment")   # no policy at all
print(f"\ndr-kim read glucose = {canon.loads(glucose)['features']['glucose']:.1f}")

# --- the patient changes their mind: a later version revokes the grant ---
update_consent(
    ledger, registry,
    AccessPolicy(**{**grant.to_value(), "granted": False}),
    clock,
)
print("\nafter revocation:")
attempt("dr-kim", "stjude-r001", "treatment")

# --- everything above is on-chain, in order ---
print("\naudit trail for stjude-r001:")
for tx in ledger.audit_trail("stjude-r001"):
    body = tx.body
    print(f"  t={tx.logical_time:<3} {tx.kind:<14} "
          + (f"{body['outcome']}/{body['reason']}" if tx.kind == "AccessDecision" else ""))
print("\nchain verdict:", ledger.verify_chain())
print("access decisions on chain:", ledger.count_kind("AccessDecision"))
