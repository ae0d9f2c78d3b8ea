"""Additive predictive models, penalized training, and federated averaging.

The model class is deliberately small: linear regression and logistic
classification share one parameter vector, which keeps attributions exact
and the constrained objective convex.  Training is deterministic full-batch
(sub)gradient descent from a zero initialization, so a scenario seed fixes
every trajectory bit for bit.

The plausibility penalty is an instance-averaged hinge on sign-constrained
attributions: a feature a clinician marks as risk-increasing contributes a
penalty whenever its attribution comes out negative, and vice versa.  The
penalized objective is

    mean loss + weight * mean_i sum_j max(0, -s_j * w_j * (x_ij - mu_j))

which is minimized during training rather than checked afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import crypto
from .ledger import Ledger, LogicalClock, Transaction, build_transaction

__all__ = [
    "Dataset",
    "DivergenceError",
    "FeatureSpec",
    "LinearModel",
    "TrainConfig",
    "WeightDelta",
    "apply_delta",
    "fed_avg",
    "local_update",
    "log_model_update",
    "loss",
    "mean_sign_violation",
    "objective_gradient",
    "objective_value",
    "predict",
    "predict_margins",
    "train_constrained",
    "train_erm",
]

PROB_EPS = 1e-12

LINKS = ("identity", "logistic")


class DivergenceError(RuntimeError):
    """Training produced a non-finite parameter."""


@dataclass
class FeatureSpec:
    """Feature names, the per-feature reference point, and clinician-declared
    directions of effect (+1 risk-increasing, -1 risk-decreasing, 0 free)."""

    names: list[str]
    baseline: np.ndarray
    sign_constraints: np.ndarray

    def __post_init__(self):
        self.baseline = np.asarray(self.baseline, dtype=float)
        self.sign_constraints = np.asarray(self.sign_constraints, dtype=int)
        m = len(self.names)
        if m < 1:
            raise ValueError("need at least one feature")
        if len(set(self.names)) != m:
            raise ValueError("feature names must be unique")
        if self.baseline.shape != (m,) or self.sign_constraints.shape != (m,):
            raise ValueError("baseline and sign_constraints must match feature count")
        if np.any(np.abs(self.sign_constraints) > 1):
            raise ValueError("sign constraints must be -1, 0, or +1")

    @property
    def dim(self) -> int:
        return len(self.names)

    def to_value(self) -> dict:
        return {
            "names": list(self.names),
            "baseline": [float(v) for v in self.baseline],
            "sign_constraints": [int(v) for v in self.sign_constraints],
        }

    @classmethod
    def from_value(cls, value: dict) -> "FeatureSpec":
        return cls(
            names=list(value["names"]),
            baseline=np.asarray(value["baseline"], dtype=float),
            sign_constraints=np.asarray(value["sign_constraints"], dtype=int),
        )


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    link: str = "logistic"
    # ((parameter bytes, link), hash) of the last param_hash call
    _hash_cache: tuple[tuple[bytes, str], str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = float(self.bias)
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        if not (np.all(np.isfinite(self.weights)) and np.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def copy(self) -> "LinearModel":
        return LinearModel(self.weights.copy(), self.bias, self.link)

    def to_value(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "link": self.link,
        }

    @classmethod
    def from_value(cls, value: dict) -> "LinearModel":
        return cls(
            weights=np.asarray(value["weights"], dtype=float),
            bias=float(value["bias"]),
            link=value["link"],
        )

    def param_hash(self) -> str:
        """Digest of the canonical parameters, cached on their exact bytes so
        that an in-place edit of ``weights`` never returns a stale hash."""
        params = np.append(np.asarray(self.weights, dtype=float), float(self.bias))
        key = (params.tobytes(), self.link)
        if self._hash_cache is None or self._hash_cache[0] != key:
            self._hash_cache = (key, crypto.digest_value(self.to_value()))
        return self._hash_cache[1]


@dataclass
class TrainConfig:
    learning_rate: float
    epochs: int
    penalty_weight: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.penalty_weight < 0:
            raise ValueError("penalty_weight must be non-negative")


@dataclass
class Dataset:
    """Feature matrix and labels owned by a single institution."""

    X: np.ndarray
    y: np.ndarray
    institution_id: str = ""

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y length must match X rows")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("features must be finite")

    def __len__(self) -> int:
        return self.X.shape[0]

    def validate_labels(self, link: str) -> None:
        if link == "logistic" and not np.all(np.isin(self.y, (0.0, 1.0))):
            raise ValueError("logistic link requires labels in {0, 1}")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("labels must be finite")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def predict_margins(model: LinearModel, X: np.ndarray) -> np.ndarray:
    return X @ model.weights + model.bias


def predict(model: LinearModel, x) -> tuple[float, float]:
    """Return ``(margin, prediction)`` for one input row."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"expected {model.dim} features, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input features must be finite")
    margin = float(x @ model.weights + model.bias)
    if model.link == "logistic":
        return margin, float(_sigmoid(np.asarray([margin]))[0])
    return margin, margin


def loss(model: LinearModel, dataset: Dataset) -> float:
    """Mean cross-entropy (logistic) or mean squared error (identity)."""
    if len(dataset) == 0:
        raise ValueError("loss undefined on an empty dataset")
    dataset.validate_labels(model.link)
    margins = predict_margins(model, dataset.X)
    if model.link == "logistic":
        p = np.clip(_sigmoid(margins), PROB_EPS, 1.0 - PROB_EPS)
        return float(-np.mean(dataset.y * np.log(p) + (1.0 - dataset.y) * np.log(1.0 - p)))
    residual = margins - dataset.y
    return float(np.mean(residual * residual))


def _loss_gradient(model: LinearModel, dataset: Dataset) -> tuple[np.ndarray, float]:
    margins = predict_margins(model, dataset.X)
    n = len(dataset)
    if model.link == "logistic":
        residual = _sigmoid(margins) - dataset.y
        return dataset.X.T @ residual / n, float(np.mean(residual))
    residual = margins - dataset.y
    return 2.0 * (dataset.X.T @ residual) / n, float(2.0 * np.mean(residual))


def mean_sign_violation(model: LinearModel, X: np.ndarray, spec: FeatureSpec) -> float:
    """Instance-averaged hinge on sign-constrained attributions."""
    attr = model.weights * (np.asarray(X, dtype=float) - spec.baseline)
    hinge = np.maximum(0.0, -spec.sign_constraints * attr)
    return float(np.mean(np.sum(hinge, axis=1)))


def _violation_subgradient(model: LinearModel, X: np.ndarray, spec: FeatureSpec) -> np.ndarray:
    # d/dw_j of mean_i max(0, -s_j w_j d_ij); zero subgradient taken at kinks.
    d = np.asarray(X, dtype=float) - spec.baseline
    violating = (-spec.sign_constraints * model.weights * d) > 0.0
    return np.mean(np.where(violating, -spec.sign_constraints * d, 0.0), axis=0)


def objective_value(
    model: LinearModel, dataset: Dataset, spec: FeatureSpec, penalty_weight: float
) -> float:
    value = loss(model, dataset)
    if penalty_weight:
        value += penalty_weight * mean_sign_violation(model, dataset.X, spec)
    return value


def objective_gradient(
    model: LinearModel, dataset: Dataset, spec: FeatureSpec, penalty_weight: float
) -> tuple[np.ndarray, float]:
    """(Sub)gradient of the penalized objective w.r.t. weights and bias."""
    grad_w, grad_b = _loss_gradient(model, dataset)
    if penalty_weight:
        grad_w = grad_w + penalty_weight * _violation_subgradient(model, dataset.X, spec)
    return grad_w, grad_b


def _descend(
    model: LinearModel,
    dataset: Dataset,
    spec: FeatureSpec,
    config: TrainConfig,
    penalty_weight: float,
    loss_trace: list[float] | None = None,
) -> LinearModel:
    dataset.validate_labels(model.link)
    w = model.weights.copy()
    b = model.bias
    current = LinearModel(w, b, model.link)
    for _ in range(config.epochs):
        if loss_trace is not None:
            loss_trace.append(objective_value(current, dataset, spec, penalty_weight))
        grad_w, grad_b = objective_gradient(current, dataset, spec, penalty_weight)
        w = current.weights - config.learning_rate * grad_w
        b = current.bias - config.learning_rate * grad_b
        if not (np.all(np.isfinite(w)) and np.isfinite(b)):
            raise DivergenceError("non-finite parameter during training")
        current = LinearModel(w, b, model.link)
    if loss_trace is not None:
        loss_trace.append(objective_value(current, dataset, spec, penalty_weight))
    return current


def _initial_model(spec: FeatureSpec, link: str) -> LinearModel:
    return LinearModel(np.zeros(spec.dim), 0.0, link)


def train_erm(
    dataset: Dataset,
    spec: FeatureSpec,
    config: TrainConfig,
    link: str = "logistic",
    init: LinearModel | None = None,
    loss_trace: list[float] | None = None,
) -> LinearModel:
    """Plain empirical risk minimization; the penalty weight is ignored."""
    start = init.copy() if init is not None else _initial_model(spec, link)
    return _descend(start, dataset, spec, config, 0.0, loss_trace)


def train_constrained(
    dataset: Dataset,
    spec: FeatureSpec,
    config: TrainConfig,
    link: str = "logistic",
    init: LinearModel | None = None,
    loss_trace: list[float] | None = None,
) -> LinearModel:
    """Minimize mean loss plus the weighted sign-violation hinge."""
    start = init.copy() if init is not None else _initial_model(spec, link)
    return _descend(start, dataset, spec, config, config.penalty_weight, loss_trace)


@dataclass
class WeightDelta:
    """Parameter difference produced by one node's local training.

    Carries parameters only; no row data ever leaves the owning node.
    """

    d_weights: np.ndarray
    d_bias: float
    node_id: str = ""
    shard_size: int = 0

    def __post_init__(self):
        self.d_weights = np.asarray(self.d_weights, dtype=float)
        self.d_bias = float(self.d_bias)

    def to_value(self) -> dict:
        return {"d_weights": [float(v) for v in self.d_weights], "d_bias": float(self.d_bias)}

    def digest(self) -> str:
        return crypto.digest_value(self.to_value())


def local_update(
    global_model: LinearModel, shard: Dataset, spec: FeatureSpec, config: TrainConfig
) -> WeightDelta:
    """Run local epochs from the global parameters and return the delta only."""
    trained = train_constrained(shard, spec, config, link=global_model.link, init=global_model)
    return WeightDelta(
        d_weights=trained.weights - global_model.weights,
        d_bias=trained.bias - global_model.bias,
        node_id=shard.institution_id,
        shard_size=len(shard),
    )


def fed_avg(deltas: list[WeightDelta]) -> WeightDelta:
    """Shard-size-weighted average of deltas, accumulated in list order.

    Callers pass deltas sorted by ascending node id so the float reduction
    order is fixed.
    """
    if not deltas:
        raise ValueError("fed_avg needs at least one delta")
    dim = deltas[0].d_weights.shape
    total = 0
    acc_w = np.zeros(dim)
    acc_b = 0.0
    for delta in deltas:
        if delta.d_weights.shape != dim:
            raise ValueError("inconsistent delta dimensions")
        weight = delta.shard_size
        acc_w = acc_w + weight * delta.d_weights
        acc_b = acc_b + weight * delta.d_bias
        total += weight
    if total <= 0:
        raise ValueError("total shard size must be positive")
    return WeightDelta(d_weights=acc_w / total, d_bias=acc_b / total)


def apply_delta(model: LinearModel, delta: WeightDelta) -> LinearModel:
    return LinearModel(model.weights + delta.d_weights, model.bias + delta.d_bias, model.link)


def log_model_update(
    ledger: Ledger,
    node_id: str,
    round_index: int,
    delta: WeightDelta,
    clock: LogicalClock,
    batch: list[Transaction] | None = None,
) -> Transaction:
    """Record where a model update came from: node, round, and delta digest."""
    if not (np.all(np.isfinite(delta.d_weights)) and np.isfinite(delta.d_bias)):
        raise ValueError("delta must be finite")
    tx = build_transaction(
        "ModelUpdate",
        node_id,
        clock.next(),
        {"node_id": node_id, "round": round_index, "delta_digest": delta.digest()},
    )
    if batch is None:
        ledger.append_block([tx])
    else:
        batch.append(tx)
    return tx
