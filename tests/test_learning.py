"""Model, training, penalty, and federated-averaging behavior.

Expected numbers come from closed forms (sigmoid values, ln 2), from
np.linalg.lstsq as an independent solver, or from hand-computed averages.
"""

from __future__ import annotations

import numpy as np
import pytest

from bxhf.explain import explain_linear, plausibility_penalty
from bxhf.ledger import Ledger, LogicalClock
from bxhf.learning import (
    Dataset,
    DivergenceError,
    FeatureSpec,
    LinearModel,
    TrainConfig,
    WeightDelta,
    apply_delta,
    fed_avg,
    local_update,
    log_model_update,
    loss,
    mean_sign_violation,
    objective_gradient,
    objective_value,
    predict,
    predict_margins,
    train_constrained,
    train_erm,
)

SIGMOID_NEG_ONE = 0.2689414213699951  # 1 / (1 + e)
LN_TWO = 0.6931471805599453


def _spec(m: int, signs=None) -> FeatureSpec:
    return FeatureSpec(
        [f"f{j}" for j in range(m)],
        np.zeros(m),
        np.zeros(m, dtype=int) if signs is None else np.asarray(signs),
    )


def test_logistic_predict_known_point():
    model = LinearModel(np.array([1.0, -2.0]), 0.0, "logistic")
    margin, prob = predict(model, [1.0, 1.0])
    assert margin == -1.0
    assert prob == pytest.approx(SIGMOID_NEG_ONE, abs=1e-15)


def test_identity_predict_returns_margin():
    model = LinearModel(np.array([0.5, 0.25]), -1.0, "identity")
    margin, pred = predict(model, [2.0, 4.0])
    assert margin == pred == pytest.approx(1.0)


def test_predict_rejects_bad_input():
    model = LinearModel(np.array([1.0]), 0.0, "logistic")
    with pytest.raises(ValueError):
        predict(model, [1.0, 2.0])
    with pytest.raises(ValueError):
        predict(model, [np.nan])


def test_zero_model_balanced_labels_gives_ln2():
    X = np.random.default_rng(0).standard_normal((40, 3))
    y = np.array([0.0, 1.0] * 20)
    model = LinearModel(np.zeros(3), 0.0, "logistic")
    assert loss(model, Dataset(X, y, "a")) == pytest.approx(LN_TWO, abs=1e-15)


def test_mse_loss_hand_value():
    model = LinearModel(np.array([1.0]), 0.0, "identity")
    data = Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 4.0]), "a")
    # residuals 1 and -2 -> mean(1, 4) / 2? no: mean squared error = (1 + 4) / 2
    assert loss(model, data) == pytest.approx(2.5)


def test_label_validation():
    X = np.zeros((3, 1))
    Dataset(X, np.array([0.0, 1.0, 1.0]), "a").validate_labels("logistic")
    with pytest.raises(ValueError):
        Dataset(X, np.array([0.0, 2.0, 1.0]), "a").validate_labels("logistic")
    with pytest.raises(ValueError):
        Dataset(X, np.array([0.0, np.inf, 1.0]), "a").validate_labels("identity")


def test_model_and_config_validation():
    with pytest.raises(ValueError):
        LinearModel(np.array([np.inf]), 0.0, "logistic")
    with pytest.raises(ValueError):
        LinearModel(np.array([1.0]), 0.0, "probit")
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0, epochs=5)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.1, epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.1, epochs=5, penalty_weight=-0.5)


def test_model_value_round_trip_and_hash():
    model = LinearModel(np.array([0.25, -1.5]), 0.75, "identity")
    clone = LinearModel.from_value(model.to_value())
    assert np.array_equal(clone.weights, model.weights)
    assert clone.bias == model.bias and clone.link == model.link
    assert clone.param_hash() == model.param_hash()
    bumped = LinearModel(np.array([0.25, -1.5 + 1e-9]), 0.75, "identity")
    assert bumped.param_hash() != model.param_hash()


def test_param_hash_follows_in_place_weight_edits():
    model = LinearModel(np.array([0.25, -1.5]), 0.75, "identity")
    before = model.param_hash()
    model.weights[0] += 1
    assert model.param_hash() == LinearModel(np.array([1.25, -1.5]), 0.75, "identity").param_hash()
    assert model.param_hash() != before
    model.bias = -0.0
    assert model.param_hash() == LinearModel(np.array([1.25, -1.5]), -0.0, "identity").param_hash()
    assert model.param_hash() != LinearModel(np.array([1.25, -1.5]), 0.0, "identity").param_hash()


def test_identity_regression_matches_lstsq():
    rng = np.random.default_rng(42)
    x = rng.uniform(-1, 1, 60)
    y = 2.0 * x + 1.0
    X = x.reshape(-1, 1)
    design = np.column_stack([X, np.ones_like(x)])
    expected, *_ = np.linalg.lstsq(design, y, rcond=None)

    model = train_erm(
        Dataset(X, y, "o"), _spec(1), TrainConfig(0.2, 1500), link="identity"
    )
    assert abs(model.weights[0] - expected[0]) < 1e-6
    assert abs(model.bias - expected[1]) < 1e-6


def test_zero_epochs_returns_init_unchanged():
    rng = np.random.default_rng(3)
    data = Dataset(rng.standard_normal((10, 2)), rng.integers(0, 2, 10).astype(float), "a")
    init = LinearModel(np.array([0.3, -0.7]), 0.1, "logistic")
    out = train_erm(data, _spec(2), TrainConfig(0.5, 0), init=init)
    assert np.array_equal(out.weights, init.weights) and out.bias == init.bias
    assert out is not init  # callers keep their copy


def test_zero_penalty_constrained_equals_erm_trajectory():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 3))
    y = rng.integers(0, 2, 30).astype(float)
    data = Dataset(X, y, "a")
    spec = _spec(3, signs=(1, -1, 0))
    cfg = TrainConfig(0.4, 50, penalty_weight=0.0)
    trace_a: list[float] = []
    trace_b: list[float] = []
    erm = train_erm(data, spec, cfg, loss_trace=trace_a)
    con = train_constrained(data, spec, cfg, loss_trace=trace_b)
    assert np.array_equal(erm.weights, con.weights)
    assert erm.bias == con.bias
    assert trace_a == trace_b


def test_loss_trace_non_increasing_on_smooth_problem():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((25, 2))
    y = X @ np.array([1.0, -0.5]) + 0.3
    trace: list[float] = []
    train_erm(Dataset(X, y, "a"), _spec(2), TrainConfig(0.05, 200), link="identity", loss_trace=trace)
    assert len(trace) == 201
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_absurd_learning_rate_diverges():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 2)) * 10
    y = X @ np.array([3.0, -4.0])
    with pytest.raises(DivergenceError):
        train_erm(Dataset(X, y, "a"), _spec(2), TrainConfig(1e6, 400), link="identity")


def test_sign_violation_hand_oracle():
    # w = (1, -1, 2); constraints (+1, -1, 0); baseline 0.
    model = LinearModel(np.array([1.0, -1.0, 2.0]), 0.0, "logistic")
    spec = _spec(3, signs=(1, -1, 0))
    X = np.array([[-2.0, 3.0, 9.0], [1.0, -1.0, -9.0]])
    # row 1: feature0 contributes 1*(-2) = -2 against +1 -> hinge 2
    #        feature1 contributes -1*3 = -3, sign -1 wants negative -> ok
    # row 2: feature0 contributes +1 -> ok
    #        feature1 contributes (-1)*(-1) = +1 against -1 -> hinge 1
    # feature2 is unconstrained either way.  Mean = (2 + 1) / 2
    assert mean_sign_violation(model, X, spec) == pytest.approx(1.5)


def test_violation_matches_per_row_explanation_penalty():
    rng = np.random.default_rng(21)
    for _ in range(25):
        m = int(rng.integers(1, 6))
        spec = FeatureSpec(
            [f"f{j}" for j in range(m)],
            rng.standard_normal(m),
            rng.integers(-1, 2, m),
        )
        model = LinearModel(rng.standard_normal(m), float(rng.standard_normal()), "logistic")
        X = rng.standard_normal((12, m))
        per_row = [
            plausibility_penalty(explain_linear(model, spec, x), spec) for x in X
        ]
        assert mean_sign_violation(model, X, spec) == pytest.approx(
            float(np.mean(per_row)), abs=1e-12
        )


def test_objective_gradient_matches_central_differences():
    rng = np.random.default_rng(777)
    checked = 0
    while checked < 25:
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
            continue  # too close to a hinge kink for finite differences
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
        assert rel <= 1e-5
        checked += 1


def _one_sided_conflict_data() -> tuple[Dataset, FeatureSpec]:
    """Feature 0 only ever moves above its baseline, yet the labels reward a
    negative weight on it, so the sign constraint genuinely binds."""
    rng = np.random.default_rng(314)
    n = 40
    u = rng.uniform(0.5, 1.5, n)
    z = rng.standard_normal(n)
    X = np.column_stack([u, z])
    y = -2.0 * u + 1.0 * z + 0.05 * rng.standard_normal(n)
    spec = FeatureSpec(["pushed", "free"], np.zeros(2), np.array([1, 0]))
    return Dataset(X, y, "lab"), spec


def test_penalty_weight_sweep_drives_violation_down():
    data, spec = _one_sided_conflict_data()
    violations = []
    for lam in (0.0, 0.1, 1.0, 10.0, 1000.0):
        model = train_constrained(
            data, spec, TrainConfig(0.02, 500, penalty_weight=lam), link="identity"
        )
        violations.append(mean_sign_violation(model, data.X, spec))
    assert violations[0] > 1.0  # unconstrained fit violates hard
    assert all(b <= a + 1e-12 for a, b in zip(violations, violations[1:]))
    assert violations[-1] < 1e-3


def test_local_update_zero_steps_gives_zero_delta():
    rng = np.random.default_rng(30)
    shard = Dataset(rng.standard_normal((6, 2)), rng.integers(0, 2, 6).astype(float), "n1")
    start = LinearModel(np.array([0.2, -0.4]), 0.1, "logistic")
    delta = local_update(start, shard, _spec(2), TrainConfig(0.5, 0))
    assert np.array_equal(delta.d_weights, np.zeros(2))
    assert delta.d_bias == 0.0
    assert delta.node_id == "n1" and delta.shard_size == 6


def test_identical_shards_produce_identical_deltas():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((8, 3))
    y = rng.integers(0, 2, 8).astype(float)
    start = LinearModel(rng.standard_normal(3), 0.0, "logistic")
    cfg = TrainConfig(0.3, 7, penalty_weight=0.2)
    spec = _spec(3, signs=(1, 0, -1))
    d1 = local_update(start, Dataset(X, y, "n1"), spec, cfg)
    d2 = local_update(start, Dataset(X.copy(), y.copy(), "n2"), spec, cfg)
    assert np.array_equal(d1.d_weights, d2.d_weights)
    assert d1.d_bias == d2.d_bias
    assert d1.digest() == d2.digest()  # node id is not part of the digest


def test_delta_applied_reproduces_local_training():
    rng = np.random.default_rng(32)
    shard = Dataset(rng.standard_normal((10, 2)), rng.integers(0, 2, 10).astype(float), "n1")
    start = LinearModel(rng.standard_normal(2), -0.3, "logistic")
    cfg = TrainConfig(0.2, 15)
    spec = _spec(2)
    local = train_constrained(shard, spec, cfg, init=start)
    rebuilt = apply_delta(start, local_update(start, shard, spec, cfg))
    assert np.array_equal(rebuilt.weights, local.weights)
    assert rebuilt.bias == local.bias


def test_fed_avg_identical_deltas_is_identity():
    d = WeightDelta(np.array([0.5, -1.0]), 0.25, "n1", 4)
    merged = fed_avg([d, WeightDelta(d.d_weights.copy(), d.d_bias, "n2", 4)])
    assert np.allclose(merged.d_weights, d.d_weights)
    assert merged.d_bias == pytest.approx(d.d_bias)


def test_fed_avg_shard_size_weighting():
    d = np.array([2.0, -4.0])
    merged = fed_avg(
        [
            WeightDelta(d, 8.0, "big", 1),
            WeightDelta(np.zeros(2), 0.0, "small", 3),
        ]
    )
    # weights (1, 3) over (d, 0) -> d / 4
    assert np.allclose(merged.d_weights, d / 4.0)
    assert merged.d_bias == pytest.approx(2.0)


def test_fed_avg_input_validation():
    with pytest.raises(ValueError):
        fed_avg([])
    with pytest.raises(ValueError):
        fed_avg([WeightDelta(np.zeros(2), 0.0, "a", 1), WeightDelta(np.zeros(3), 0.0, "b", 1)])
    with pytest.raises(ValueError):
        fed_avg([WeightDelta(np.zeros(2), 0.0, "a", 0)])


def test_one_step_equal_shards_matches_centralized():
    rng = np.random.default_rng(99)
    for k in (2, 4):
        n_per, m = 8, 3
        X = rng.standard_normal((k * n_per, m))
        y = rng.integers(0, 2, k * n_per).astype(float)
        spec = _spec(m, signs=(1, -1, 0))
        cfg = TrainConfig(0.3, 1, penalty_weight=0.7)
        start = LinearModel(rng.standard_normal(m), 0.4, "logistic")

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
        fed = apply_delta(start, fed_avg(deltas))
        assert np.max(np.abs(fed.weights - central.weights)) <= 1e-12
        assert abs(fed.bias - central.bias) <= 1e-12


def test_log_model_update_records_digest():
    ledger = Ledger()
    clock = LogicalClock()
    delta = WeightDelta(np.array([0.1]), -0.2, "n1", 5)
    tx = log_model_update(ledger, "n1", 0, delta, clock)
    assert tx.kind == "ModelUpdate"
    assert tx.body["delta_digest"] == delta.digest()
    assert tx.body["round"] == 0
    assert ledger.verify_chain() is None
    with pytest.raises(ValueError):
        log_model_update(ledger, "n1", 1, WeightDelta(np.array([np.nan]), 0.0, "n1", 5), clock)


def test_predict_margins_vectorizes():
    model = LinearModel(np.array([1.0, 2.0]), 3.0, "identity")
    X = np.array([[1.0, 1.0], [0.0, 0.0], [-1.0, 2.0]])
    assert np.allclose(predict_margins(model, X), [6.0, 3.0, 6.0])
