"""Exact Shapley attributions for additive models, and their integrity binding.

For a linear margin the Shapley value of feature j relative to the baseline
point has the closed form ``w_j * (x_j - mu_j)``, so explanations here are
exact rather than sampled, and the completeness identity

    baseline_value + sum_j attribution_j == margin(x)

holds to float precision.  A brute-force subset-enumeration implementation
is provided as an independent check against any black-box margin function.

Attributions are computed on the margin scale (the pre-link output); the
scale is recorded inside the explanation so a verifier knows what the
numbers mean.  Every explanation carries the hashes binding it to the model
parameters and the input commitment it was produced from.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import crypto
from .learning import FeatureSpec, LinearModel

__all__ = [
    "Explanation",
    "SubsetCapacityError",
    "explain_linear",
    "shapley_bruteforce",
]

# Subset enumeration is 2^m; anything past this is a config mistake.
MAX_BRUTEFORCE_FEATURES = 12


class SubsetCapacityError(ValueError):
    """Too many features for exact subset enumeration."""


@dataclass
class Explanation:
    """Per-feature attributions plus the hashes that anchor them on-chain."""

    record_ref: str
    baseline_value: float
    attributions: dict[str, float]
    model_hash: str
    input_commitment: str
    scale: str = "margin"

    def attribution_vector(self, spec: FeatureSpec) -> np.ndarray:
        return np.asarray([self.attributions[name] for name in spec.names], dtype=float)

    def total(self) -> float:
        return self.baseline_value + sum(self.attributions.values())

    def to_value(self) -> dict:
        return {
            "record_ref": self.record_ref,
            "baseline_value": float(self.baseline_value),
            "attributions": {k: float(v) for k, v in self.attributions.items()},
            "model_hash": self.model_hash,
            "input_commitment": self.input_commitment,
            "scale": self.scale,
        }

    def digest(self) -> str:
        return crypto.digest_value(self.to_value())


def explain_linear(
    model: LinearModel,
    spec: FeatureSpec,
    x,
    record_ref: str = "",
    input_commitment: str = crypto.ZERO_HASH,
) -> Explanation:
    """Exact attributions ``w_j * (x_j - mu_j)`` with baseline ``w . mu + b``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,) or model.dim != spec.dim:
        raise ValueError("input dimension does not match model and feature spec")
    attr = model.weights * (x - spec.baseline)
    baseline_value = float(model.weights @ spec.baseline + model.bias)
    return Explanation(
        record_ref=record_ref,
        baseline_value=baseline_value,
        attributions={name: float(a) for name, a in zip(spec.names, attr)},
        model_hash=model.param_hash(),
        input_commitment=input_commitment,
        scale="margin",
    )


def shapley_bruteforce(margin_fn, spec: FeatureSpec, x) -> np.ndarray:
    """Exact Shapley values of a black-box margin function by enumerating all
    feature subsets.

    The value of a subset is the margin of the input whose member features
    take their values from ``x`` and whose others sit at the baseline.
    """
    m = spec.dim
    if m > MAX_BRUTEFORCE_FEATURES:
        raise SubsetCapacityError(f"{m} features exceeds 2^{MAX_BRUTEFORCE_FEATURES} enumeration cap")
    x = np.asarray(x, dtype=float)
    n_masks = 1 << m
    # v[mask] = margin with features in mask at x, others at baseline.
    values = np.empty(n_masks)
    for mask in range(n_masks):
        z = spec.baseline.copy()
        for j in range(m):
            if mask >> j & 1:
                z[j] = x[j]
        # accept scalar returns as well as vectorized length-1 arrays
        values[mask] = np.asarray(margin_fn(z), dtype=float).reshape(-1)[0]
    # weight[k] = k! (m-k-1)! / m!  for a subset of size k not containing j
    fact_m = factorial(m)
    weights = [factorial(k) * factorial(m - k - 1) / fact_m for k in range(m)]
    popcount = [bin(mask).count("1") for mask in range(n_masks)]
    attr = np.zeros(m)
    for j in range(m):
        bit = 1 << j
        total = 0.0
        for mask in range(n_masks):
            if mask & bit:
                continue
            total += weights[popcount[mask]] * (values[mask | bit] - values[mask])
        attr[j] = total
    return attr
