"""
Exact attributions, checked two independent ways
================================================

For an additive model the per-feature contribution has a closed form, and
the numbers must satisfy an accounting identity: baseline value plus all
attributions equals the model's margin, to float precision.  A brute-force
subset-enumeration implementation — which knows nothing about the model's
internals — must land on the same numbers.
"""

import numpy as np

from bxhf.explain import explain_linear, shapley_bruteforce
from bxhf.learning import FeatureSpec, LinearModel, mean_sign_violation, predict, predict_margins

spec = FeatureSpec(
    names=["troponin", "creatinine", "age_z", "bmi_z"],
    baseline=np.array([0.0, 1.0, 0.0, 0.0]),
    sign_constraints=np.array([1, 1, 0, 0]),
)
model = LinearModel(np.array([1.8, 0.9, 0.35, -0.15]), -0.6, "logistic")

patient = np.array([1.4, 1.8, 0.9, -0.4])
margin, probability = predict(model, patient)
print(f"patient margin {margin:+.6f} -> risk {probability:.3f}\n")

# --- closed form ---
exp = explain_linear(model, spec, patient, record_ref="ward-7-0412")
print(f"{'feature':<12} {'value':>7} {'baseline':>9} {'attribution':>12}")
for name, mu in zip(spec.names, spec.baseline):
    j = list(spec.names).index(name)
    print(f"{name:<12} {patient[j]:>7.2f} {mu:>9.2f} {exp.attributions[name]:>+12.6f}")
print(f"{'(baseline value)':<31} {exp.baseline_value:>+12.6f}")

# --- the accounting identity ---
gap = exp.total() - margin
print(f"\nbaseline + sum(attributions) - margin = {gap:+.2e}")

# --- independent check: enumerate all 2^4 feature subsets ---
brute = shapley_bruteforce(
    lambda z: predict_margins(model, np.atleast_2d(z)), spec, patient
)
print("\nsubset enumeration agrees per coordinate:")
for name, a, b in zip(spec.names, exp.attribution_vector(spec), brute):
    print(f"  {name:<12} closed {a:+.9f}   brute {b:+.9f}   diff {abs(a-b):.1e}")

# --- the same attributions feed the training penalty: the hinge on those
# whose sign contradicts the declared direction, here over one row ---
row = patient[None, :]
print(f"\nplausibility penalty for this patient: {mean_sign_violation(model, row, spec):.6f}")
flipped = LinearModel(np.array([-1.8, 0.9, 0.35, -0.15]), -0.6, "logistic")
print(f"with troponin's sign flipped it becomes: {mean_sign_violation(flipped, row, spec):.6f}")

# --- explanations are content-addressed for on-chain binding ---
print(f"\nexplanation digest: {exp.digest()[:32]}…")
