"""Seeded workload inputs, the consent oracle, and the reference sheet.

Every workload is generated here from ``--seed`` alone; the program only ever
sees the scenario file written from it.  Scenario files are written as JSON, which
the scenario parser accepts as-is, so generating inputs runs no bxhf code.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from bxhf.scenario import demo_profile, rare_disease_profile

PURPOSES = ("treatment", "research", "audit")
HORIZON = 1_000_000

# The reference sheet: why each workload exists, its input sizes and its loop.
# Every workload is one client in a closed loop (the next op starts when the
# previous one returned), run in-process through ``bxhf.cli.main``.
LOOP = (
    "closed, 1 client, whole cycles for --seconds; a cycle is one `bxhf run` to a "
    "fresh directory, then verify-chain, score, verify-decision on a seeded decision, "
    "3 audits of seeded records on its output and 4 verify-chain calls on "
    "single-bit-flipped copies of its ledger"
)
WORKLOADS = {
    "consortium-run": {
        "why": "write path: canon emit, seal, commit, tx digests and the in-run "
        "validation and scoring, then the read and verify commands on its output; "
        "access sees only 3 policies",
        "sizes": "demo profile, 2 institutions x 250 records, 3 users, 3 policies, "
        "125 requests balanced over users and institutions (1/3 permitted), 5 rounds",
        "loop": LOOP,
    },
    "consent-churn": {
        "why": "deny-heavy, policy-heavy run: evaluate_access scans 400 effective "
        "policies per request and every request is its own small block",
        "sizes": "rare-disease profile, 3 institutions x 100 records, 200 users, 400 "
        "policies plus 80 revoking versions, short and not-yet-valid windows, "
        "250 Zipf-skewed requests (under 1 in 10 permitted), 4 rounds",
        "loop": LOOP,
    },
}


@dataclass
class Scenario:
    """A generated scenario plus what the benchmark expects a run of it to report."""

    config: dict
    blocks: int
    records: int
    permitted: int
    denied: int

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.config, indent=1, sort_keys=True) + "\n")


def _record_ids(config: dict) -> dict[str, list[str]]:
    per = config["records"]["per_institution"]
    return {
        inst["id"]: [f"{inst['id']}-r{k:03d}" for k in range(per)]
        for inst in config["institutions"]
    }


def _start_time(config: dict) -> int:
    """Logical time of the first request: one tick per record, per policy
    version and per model update precede it."""
    records = sum(len(ids) for ids in _record_ids(config).values())
    updates = config["federation"]["rounds"] * len(config["institutions"])
    return records + len(config["policies"]) + updates + 1


def consent_oracle(config: dict) -> list[bool]:
    """Permit or deny for each request, computed independently of bxhf.

    Latest version per policy id wins; a request is permitted iff some
    effective policy of that user covers the record (directly or through its
    institution), has the request's purpose, is granted, and its validity
    window holds the request's logical time.  Each request takes one tick and
    a permit takes one more for its decision record.
    """
    effective: dict[str, dict] = {}
    for policy in config["policies"]:
        effective[policy["policy_id"]] = policy
    by_user: dict[str, list[dict]] = {}
    for policy in effective.values():
        by_user.setdefault(policy["user_id"], []).append(policy)
    owner = {rid: inst for inst, ids in _record_ids(config).items() for rid in ids}

    outcomes = []
    now = _start_time(config)
    for request in config["requests"]:
        rid = request["record_id"]
        scopes = (rid, f"{owner[rid]}/*")
        allowed = any(
            p["record_scope"] in scopes
            and p["purpose"] == request["purpose"]
            and p["granted"]
            and p["valid_from"] <= now <= p["valid_until"]
            for p in by_user.get(request["user_id"], ())
        )
        outcomes.append(allowed)
        now += 2 if allowed else 1
    return outcomes


def _finish(config: dict) -> Scenario:
    outcomes = consent_oracle(config)
    permitted = sum(outcomes)
    blocks = (
        1
        + len(config["institutions"])
        + (1 if config["policies"] else 0)
        + config["federation"]["rounds"]
        + len(config["requests"])
    )
    records = sum(len(ids) for ids in _record_ids(config).values())
    return Scenario(config, blocks, records, permitted, len(outcomes) - permitted)


def _balanced_requests(rng: random.Random, n: int, users: list[str], ids: dict[str, list[str]]):
    """``n`` treatment requests: users take equal shares in shuffled order, each
    user's requests alternate over the institutions, and the record is uniform
    within the institution."""
    order = [users[i % len(users)] for i in range(n)]
    rng.shuffle(order)
    insts = sorted(ids)
    turns = {user: itertools.cycle(rng.sample(insts, len(insts))) for user in users}
    out = []
    for user in order:
        inst = next(turns[user])
        out.append({"user_id": user, "record_id": rng.choice(ids[inst]), "purpose": "treatment"})
    return out


def consortium_run(seed: int, records: int = 250, requests: int = 125) -> Scenario:
    rng = random.Random(f"consortium-run:{seed}")
    config = demo_profile()
    config["seed"] = seed
    config["records"]["per_institution"] = records
    users = [u["id"] for u in config["users"]]
    config["requests"] = _balanced_requests(rng, requests, users, _record_ids(config))
    return _finish(config)


def _zipf_sampler(rng: random.Random, items: list[str], exponent: float):
    """Sample ``items`` with Zipf popularity over a seeded random ranking."""
    ranked = rng.sample(items, len(items))
    cum = list(itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(len(ranked))))
    return lambda: ranked[bisect.bisect_left(cum, rng.random() * cum[-1])]


def consent_churn(
    seed: int,
    records: int = 100,
    users: int = 200,
    policies: int = 400,
    revocations: int = 80,
    requests: int = 250,
) -> Scenario:
    rng = random.Random(f"consent-churn:{seed}")
    config = rare_disease_profile()
    config["seed"] = seed
    config["records"]["per_institution"] = records
    ids = _record_ids(config)
    insts = sorted(ids)
    record_ids = [rid for inst in insts for rid in ids[inst]]
    user_ids = [f"analyst-{k:03d}" for k in range(users)]
    config["users"] = [{"id": u, "role": "researcher"} for u in user_ids]

    pick_record = _zipf_sampler(rng, record_ids, 0.8)
    pick_user = _zipf_sampler(rng, user_ids, 1.0)
    start = _start_time({**config, "policies": [None] * (policies + revocations)})
    end = start + requests
    granted = []
    for k in range(policies):
        window = rng.random()
        if window < 0.7:
            valid_from, valid_until = 1, HORIZON
        elif window < 0.9:  # expires while requests are running
            valid_from, valid_until = 1, rng.randrange(start, end)
        else:  # becomes valid while requests are running
            valid_from, valid_until = rng.randrange(start, end), HORIZON
        scope = rng.choice(insts) + "/*" if rng.random() < 0.03 else pick_record()
        granted.append(
            {
                "policy_id": f"p{k:05d}",
                "user_id": rng.choice(user_ids),
                "record_scope": scope,
                "purpose": rng.choice(PURPOSES),
                "valid_from": valid_from,
                "valid_until": valid_until,
                "granted": True,
            }
        )
    revoked = [dict(p, granted=False) for p in rng.sample(granted, revocations)]
    config["policies"] = granted + revoked
    config["requests"] = [
        {"user_id": pick_user(), "record_id": pick_record(), "purpose": rng.choice(PURPOSES)}
        for _ in range(requests)
    ]
    return _finish(config)


GENERATORS = {
    "consortium-run": consortium_run,
    "consent-churn": consent_churn,
}
