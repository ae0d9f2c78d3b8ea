"""Attribution correctness: closed form vs subset enumeration, completeness,
and the explanation digest."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from bxhf.crypto import ZERO_HASH, digest_value
from bxhf.explain import Explanation, SubsetCapacityError, explain_linear, shapley_bruteforce
from bxhf.learning import FeatureSpec, LinearModel, mean_sign_violation, predict_margins

COMPLETENESS_TOL = 1e-9


def _complete(exp: Explanation, model: LinearModel, x) -> bool:
    """The completeness identity: baseline value plus attributions is the margin."""
    margin = float(np.asarray(x, dtype=float) @ model.weights + model.bias)
    return abs(exp.total() - margin) <= COMPLETENESS_TOL


def _random_case(rng, m: int):
    spec = FeatureSpec(
        [f"f{j}" for j in range(m)], rng.standard_normal(m), rng.integers(-1, 2, m)
    )
    model = LinearModel(rng.standard_normal(m), float(rng.standard_normal()), "logistic")
    x = rng.standard_normal(m)
    return spec, model, x


def test_attributions_are_weight_times_deviation():
    spec = FeatureSpec(["hr", "age"], np.array([60.0, 50.0]), np.array([1, 0]))
    model = LinearModel(np.array([0.1, -0.02]), 0.5, "logistic")
    exp = explain_linear(model, spec, np.array([80.0, 40.0]))
    assert exp.attributions["hr"] == pytest.approx(0.1 * 20.0)
    assert exp.attributions["age"] == pytest.approx(-0.02 * -10.0)
    assert exp.baseline_value == pytest.approx(0.1 * 60.0 - 0.02 * 50.0 + 0.5)
    assert exp.scale == "margin"


def test_completeness_identity_over_random_models():
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = int(rng.integers(1, 9))
        spec, model, x = _random_case(rng, m)
        exp = explain_linear(model, spec, x)
        margin = float(predict_margins(model, x.reshape(1, -1))[0])
        # total() is baseline plus attributions, i.e. the reconstructed margin
        assert abs(exp.total() - margin) <= COMPLETENESS_TOL
        assert _complete(exp, model, x)


def test_completeness_check_rejects_doctored_attribution():
    rng = np.random.default_rng(18)
    spec, model, x = _random_case(rng, 3)
    exp = explain_linear(model, spec, x)
    exp.attributions["f1"] += 1e-6
    assert not _complete(exp, model, x)


def test_closed_form_matches_subset_enumeration():
    rng = np.random.default_rng(2024)
    for m in range(1, 9):
        for _ in range(10):
            spec, model, x = _random_case(rng, m)
            closed = explain_linear(model, spec, x).attribution_vector(spec)
            brute = shapley_bruteforce(
                lambda X: predict_margins(model, np.atleast_2d(X)), spec, x
            )
            assert np.max(np.abs(closed - brute)) <= 1e-9


def test_bruteforce_on_interacting_function():
    # f(a, b) = a*b + a with baseline (0, 0) at x = (2, 3):
    #   order (a, b): marginals 2 then 6; order (b, a): 0 then 8
    #   phi_a = (2 + 8) / 2 = 5, phi_b = (6 + 0) / 2 = 3
    spec = FeatureSpec(["a", "b"], np.zeros(2), np.zeros(2, dtype=int))

    def fn(X):
        X = np.atleast_2d(X)
        return X[:, 0] * X[:, 1] + X[:, 0]

    phi = shapley_bruteforce(fn, spec, np.array([2.0, 3.0]))
    assert np.allclose(phi, [5.0, 3.0])
    assert phi.sum() == pytest.approx(fn(np.array([2.0, 3.0]))[0] - fn(np.zeros(2))[0])


def test_bruteforce_feature_cap():
    m = 13
    spec = FeatureSpec([f"f{j}" for j in range(m)], np.zeros(m), np.zeros(m, dtype=int))
    with pytest.raises(SubsetCapacityError):
        shapley_bruteforce(lambda X: np.atleast_2d(X).sum(axis=1), spec, np.zeros(m))


def test_dimension_mismatch_rejected():
    spec = FeatureSpec(["a", "b"], np.zeros(2), np.zeros(2, dtype=int))
    model = LinearModel(np.array([1.0, 2.0, 3.0]), 0.0, "logistic")
    with pytest.raises(ValueError):
        explain_linear(model, spec, np.zeros(3))


def test_plausibility_penalty_hand_values():
    # one row at unit weights and a zero baseline: attributions are the row
    spec = FeatureSpec(["up", "down", "free"], np.zeros(3), np.array([1, -1, 0]))
    model = LinearModel(np.ones(3), 0.0, "logistic")
    row = np.array([-0.4, 0.3, -9.0])
    assert explain_linear(model, spec, row).attribution_vector(spec).tolist() == row.tolist()
    # "up" violates by 0.4, "down" by 0.3, "free" is never penalized
    assert mean_sign_violation(model, row[None, :], spec) == pytest.approx(0.7)

    satisfied = np.array([0.4, -0.3, 2.0])
    assert mean_sign_violation(model, satisfied[None, :], spec) == 0.0


def test_explanation_value_round_trip_and_digest():
    exp = Explanation(
        record_ref="inst-r001",
        baseline_value=0.125,
        attributions={"hr": 1.5, "age": -0.25},
        model_hash="ab" * 32,
        input_commitment="cd" * 32,
    )
    assert exp.digest() == digest_value(exp.to_value())

    shifted = dataclasses.replace(exp, baseline_value=0.25)
    assert shifted.digest() != exp.digest()


def test_attribution_vector_follows_spec_order():
    spec = FeatureSpec(["b", "a"], np.zeros(2), np.zeros(2, dtype=int))
    exp = Explanation(
        record_ref="r",
        baseline_value=0.0,
        attributions={"a": 1.0, "b": 2.0},
        model_hash=ZERO_HASH,
        input_commitment=ZERO_HASH,
    )
    assert np.array_equal(exp.attribution_vector(spec), np.array([2.0, 1.0]))
