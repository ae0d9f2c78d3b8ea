"""Top-level acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` and in
failure output) and asserts the same condition, so ``pytest -v`` shows one
verdict per criterion either way.
"""

from __future__ import annotations

import hashlib

import numpy as np

from bxhf import canon, crypto
from bxhf.access import AccessPolicy, ConsentRegistry, gated_fetch
from bxhf.explain import explain_linear, shapley_bruteforce
from bxhf.harness import (
    SealedRecord,
    build_scenario,
    run_workflow,
    save_world,
    tamper,
    verify_decision,
)
from bxhf.learning import (
    Dataset,
    FeatureSpec,
    LinearModel,
    TrainConfig,
    apply_delta,
    fed_avg,
    local_update,
    mean_sign_violation,
    objective_gradient,
    objective_value,
    predict_margins,
    train_constrained,
)
from bxhf.ledger import Ledger, LogicalClock, dump_ledger, load_ledger
from bxhf.scenario import demo_profile, rare_disease_profile, validate_config
from bxhf.trust import (
    SecurityReport,
    security_score,
    trust_objective,
    verify_record,
)


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:>2} {label:<26} {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {label}: {detail}"


def _demo_world():
    world = build_scenario(validate_config(demo_profile()))
    report = run_workflow(world)
    return world, report


def test_criterion_01_tamper_detection():
    world, report = _demo_world()
    blocks = len(world.ledger)
    records = sorted(world.record_table)
    decisions = report["decision_tx_ids"]
    assert blocks >= 10 and len(records) >= 20 and len(decisions) >= 5

    registered = {
        tx.body["record_id"]: tx.body["commitment"]
        for tx in world.ledger.iter_txs()
        if tx.kind == "DataRegistration"
    }

    cases = 0
    detected = 0

    # flip one bit inside each block's stored payload; flip back afterwards
    for index in range(blocks):
        offset = len(world.ledger.blocks[index].payload_bytes) // 2
        tamper(world, ("block", index), offset)
        cases += 1
        detected += world.ledger.verify_chain() == index
        tamper(world, ("block", index), offset)
    assert world.ledger.verify_chain() is None

    # flip one bit inside each sealed record's ciphertext
    for rid in records:
        tamper(world, ("record", rid), 7)
        cases += 1
        detected += verify_record(world.record_table[rid], world.keys, registered[rid]) is None
        tamper(world, ("record", rid), 7)

    # flip one bit inside each stored explanation artifact
    for txid in decisions:
        tamper(world, ("explanation", txid), 9)
        cases += 1
        detected += verify_decision(world, txid) == "explanation"
        tamper(world, ("explanation", txid), 9)

    # restoration check: the world must be pristine again
    assert world.ledger.verify_chain() is None
    assert all(verify_decision(world, txid) == "valid" for txid in decisions)

    _verdict(
        1,
        "tamper detection",
        cases >= 35 and detected == cases,
        f"{detected}/{cases} detected",
    )


def test_criterion_02_completeness():
    rng = np.random.default_rng(20240201)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        spec = FeatureSpec(
            [f"f{j}" for j in range(m)], rng.standard_normal(m), rng.integers(-1, 2, m)
        )
        model = LinearModel(rng.standard_normal(m), float(rng.standard_normal()), "logistic")
        x = rng.standard_normal(m)
        exp = explain_linear(model, spec, x)
        margin = float(predict_margins(model, x.reshape(1, -1))[0])
        worst = max(worst, abs(exp.total() - margin))
    _verdict(2, "explanation completeness", worst <= 1e-9, f"worst gap {worst:.3e}")


def test_criterion_03_shapley_oracle():
    rng = np.random.default_rng(20240301)
    worst = 0.0
    for m in range(1, 11):
        for _ in range(50):
            spec = FeatureSpec(
                [f"f{j}" for j in range(m)], rng.standard_normal(m), rng.integers(-1, 2, m)
            )
            model = LinearModel(
                rng.standard_normal(m), float(rng.standard_normal()), "logistic"
            )
            x = rng.standard_normal(m)
            closed = explain_linear(model, spec, x).attribution_vector(spec)
            brute = shapley_bruteforce(
                lambda z: predict_margins(model, np.atleast_2d(z)), spec, x
            )
            worst = max(worst, float(np.max(np.abs(closed - brute))))
    _verdict(3, "shapley oracle match", worst <= 1e-9, f"worst gap {worst:.3e}")


def _grid_oracle(user, record, purpose, t, state, policy) -> bool:
    """Declarative permit semantics, written independently of the engine."""
    if state == "absent":
        return False
    return (
        state == "granted"
        and user == policy["user_id"]
        and record == policy["record_scope"]
        and purpose == policy["purpose"]
        and policy["valid_from"] <= t <= policy["valid_until"]
    )


def test_criterion_04_access_truth_table():
    rng = np.random.default_rng(20240401)
    keys = crypto.KeyTable()
    keys.register("k-h", rng.bytes(crypto.KEY_LEN))
    table = {}
    for rid in ("r1", "r2"):
        value = {"record_id": rid, "features": {"hr": 72.0}, "outcome": 0.0}
        table[rid] = SealedRecord(
            rid,
            "hosp",
            crypto.seal(value, "k-h", keys, rng.bytes(crypto.NONCE_LEN)),
            crypto.commit(value, rng.bytes(crypto.SALT_LEN)),
        )

    base = {
        "policy_id": "p1",
        "user_id": "dr-a",
        "record_scope": "r1",
        "purpose": "treatment",
        "valid_from": 100,
        "valid_until": 200,
    }
    times = {"before": 50, "inside": 150, "after": 250}

    cases = 0
    agreements = 0
    for state in ("granted", "revoked", "absent"):
        for when, t in times.items():
            ledger = Ledger()
            registry = ConsentRegistry()
            if state != "absent":
                registry.apply(
                    AccessPolicy.from_value({**base, "granted": state == "granted"})
                )
            # the clock ticks once per evaluation; 12 ticks stay inside the
            # same before/inside/after band (the window is 100..200)
            clock = LogicalClock(t)
            for user in ("dr-a", "dr-b"):
                for rid in ("r1", "r2"):
                    for purpose in ("treatment", "research", "audit"):
                        tx_before = ledger.count_kind("AccessDecision")
                        plaintext, tx = gated_fetch(
                            ledger, keys, registry, table,
                            user, rid, purpose, clock,
                        )
                        expected = _grid_oracle(
                            user, rid, purpose, tx.logical_time, state, base
                        )
                        got = plaintext is not None
                        cases += 1
                        agreements += (
                            got == expected
                            and tx.body["outcome"] == ("permit" if expected else "deny")
                            and (tx.body["reason"] == "granted") == expected
                            and ledger.count_kind("AccessDecision") == tx_before + 1
                        )
    _verdict(
        4,
        "access truth table",
        cases == 108 and agreements == cases,
        f"{agreements}/{cases} cells agree",
    )


def test_criterion_05_federated_one_step_identity():
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for k in (2, 4):
        n_per, m = 10, 3
        X = rng.standard_normal((k * n_per, m))
        y = rng.integers(0, 2, k * n_per).astype(float)
        spec = FeatureSpec([f"f{j}" for j in range(m)], np.zeros(m), np.array([1, -1, 0]))
        cfg = TrainConfig(0.25, 1, penalty_weight=0.4)
        start = LinearModel(rng.standard_normal(m), 0.2, "logistic")
        central = train_constrained(Dataset(X, y, "all"), spec, cfg, init=start.copy())
        deltas = [
            local_update(
                start,
                Dataset(X[i * n_per : (i + 1) * n_per], y[i * n_per : (i + 1) * n_per], f"n{i}"),
                spec,
                cfg,
            )
            for i in range(k)
        ]
        merged = apply_delta(start, fed_avg(deltas))
        worst = max(
            worst,
            float(np.max(np.abs(merged.weights - central.weights))),
            abs(merged.bias - central.bias),
        )
    _verdict(5, "federated one-step identity", worst <= 1e-12, f"worst gap {worst:.3e}")


def test_criterion_06_constraint_sweep():
    rng = np.random.default_rng(314)
    n = 40
    u = rng.uniform(0.5, 1.5, n)
    z = rng.standard_normal(n)
    X = np.column_stack([u, z])
    y = -2.0 * u + 1.0 * z + 0.05 * rng.standard_normal(n)
    data = Dataset(X, y, "lab")
    spec = FeatureSpec(["pushed", "free"], np.zeros(2), np.array([1, 0]))

    violations = []
    for lam in (0.0, 0.1, 1.0, 10.0, 1000.0):
        model = train_constrained(
            data, spec, TrainConfig(0.02, 500, penalty_weight=lam), link="identity"
        )
        violations.append(mean_sign_violation(model, X, spec))
    monotone = all(b <= a + 1e-12 for a, b in zip(violations, violations[1:]))
    ok = violations[0] > 0.1 and monotone and violations[-1] < 1e-3
    _verdict(
        6,
        "constraint sweep",
        ok,
        f"violations {' -> '.join(f'{v:.2e}' for v in violations)}",
    )


def test_criterion_07_gradient_check():
    rng = np.random.default_rng(20240701)
    worst = 0.0
    checked = 0
    while checked < 100:
        m = int(rng.integers(1, 6))
        n = int(rng.integers(3, 30))
        link = "logistic" if rng.integers(0, 2) else "identity"
        X = rng.standard_normal((n, m))
        y = rng.integers(0, 2, n).astype(float) if link == "logistic" else rng.standard_normal(n)
        spec = FeatureSpec(
            [f"f{j}" for j in range(m)],
            rng.standard_normal(m) * 0.3,
            rng.integers(-1, 2, m),
        )
        w = rng.standard_normal(m)
        b = float(rng.standard_normal())
        lam = float(rng.uniform(0, 2))
        contrib = w * (X - spec.baseline)
        mask = spec.sign_constraints != 0
        if mask.any() and np.abs(contrib[:, mask]).min() <= 1e-4:
            continue  # reject draws near a hinge kink
        data = Dataset(X, y, "t")
        model = LinearModel(w, b, link)
        gw, gb = objective_gradient(model, data, spec, lam)
        h = 1e-6
        numeric = np.zeros(m + 1)
        for j in range(m):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            numeric[j] = (
                objective_value(LinearModel(wp, b, link), data, spec, lam)
                - objective_value(LinearModel(wm, b, link), data, spec, lam)
            ) / (2 * h)
        numeric[m] = (
            objective_value(LinearModel(w, b + h, link), data, spec, lam)
            - objective_value(LinearModel(w, b - h, link), data, spec, lam)
        ) / (2 * h)
        analytic = np.append(gw, gb)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
        checked += 1
    _verdict(7, "gradient check", worst <= 1e-5, f"worst rel err {worst:.3e} over {checked}")


def test_criterion_08_trust_identities():
    world, _ = _demo_world()
    model = world.model
    pooled = world.pooled_dataset()
    spec = world.config.feature_spec

    security = security_score(world.ledger, world.record_table, world.keys, 6)
    plain = trust_objective(model, pooled, spec, security, 0.0, 0.0)
    from bxhf.learning import loss as loss_fn

    identity_a = plain.objective == loss_fn(model, pooled)

    lam2 = 0.8
    high = SecurityReport(1.0, 1.0, 1.0, (1 / 3, 1 / 3, 1 / 3), 1.0)
    low = SecurityReport(0.5, 1.0, 1.0, (1 / 3, 1 / 3, 1 / 3), 0.75)
    j_high = trust_objective(model, pooled, spec, high, 0.3, lam2).objective
    j_low = trust_objective(model, pooled, spec, low, 0.3, lam2).objective
    identity_b = abs((j_low - j_high) - lam2 * (1.0 - 0.75)) <= 1e-12

    # every record tamper must strictly lower S and raise J
    drops = 0
    for rid in sorted(world.record_table):
        tamper(world, ("record", rid), 4)
        damaged = trust_objective(
            model,
            pooled,
            spec,
            security_score(world.ledger, world.record_table, world.keys, 6),
            0.3,
            lam2,
        )
        drops += damaged.security < 1.0 and damaged.objective > j_high
        tamper(world, ("record", rid), 4)
    identity_c = drops == len(world.record_table)

    _verdict(
        8,
        "trust objective identities",
        identity_a and identity_b and identity_c,
        f"J=loss {identity_a}, dJ=-l2*dS {identity_b}, tamper monotone {drops}/20",
    )


def test_criterion_09_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        world = build_scenario(validate_config(demo_profile()))
        run_workflow(world)
        out = save_world(world, tmp_path / name)
        outputs.append(out)
    ledger_a = (outputs[0] / "ledger.bx").read_bytes()
    identical = all(
        (outputs[0] / fname).read_bytes() == (outputs[1] / fname).read_bytes()
        for fname in ("ledger.bx", "world.bx", "report.bx", "scenario.bx")
    )

    round_trips = True
    for profile in (demo_profile(), rare_disease_profile()):
        world = build_scenario(validate_config(profile))
        run_workflow(world)
        text = dump_ledger(world.ledger)
        round_trips &= dump_ledger(load_ledger(text)) == text
    round_trips &= dump_ledger(load_ledger(ledger_a.decode())) == ledger_a.decode()

    _verdict(
        9,
        "determinism",
        identical and round_trips,
        f"runs identical {identical}, load-dump stable {round_trips}",
    )


def test_criterion_10_sha256_vectors():
    empty_ok = (
        crypto.digest(b"")
        == hashlib.sha256(b"").hexdigest()
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    abc_ok = (
        crypto.digest(b"abc")
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    _verdict(10, "sha-256 vectors", empty_ok and abc_ok, "empty + abc match")
