"""Ledger-derived security scoring and the joint trust objective.

The security score is a weighted sum of three measurable fractions of
ledger state:

* integrity: chain validity gating the fraction of registered records whose
  stored sealed bytes still authenticate and whose decrypted bytes, salted,
  reproduce their on-chain commitment digest,
* provenance: the fraction of held records with a registration transaction,
* auditability: on-chain access decisions per scripted access request,
  capped at one.

Registrations and access decisions count only on the chain's verified
prefix.

The trust objective couples model quality to that score:

    objective = empirical_loss + penalty_weight * mean_penalty
                                - security_weight * security

where mean_penalty is the training penalty
:func:`~bxhf.learning.mean_sign_violation`: over each row's exact
explanation (:func:`~bxhf.explain.explain_linear`), the sum of the hinges
on attributions whose sign contradicts the declared direction, averaged
over rows in one vectorized pass.  Tampering with any stored record
strictly increases the objective when the security weight is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .learning import Dataset, FeatureSpec, LinearModel, loss, mean_sign_violation
from .ledger import Ledger

__all__ = [
    "SecurityReport",
    "TrustReport",
    "security_score",
    "trust_objective",
    "verify_record",
]

DEFAULT_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def verify_record(sealed_record, keys: crypto.KeyTable, registered_digest: str) -> bytes | None:
    """The stored record's plaintext bytes if it still authenticates and
    matches its on-chain commitment digest, else None.  One hash over the
    bytes of ``sealed_record.open(keys)`` (see ``harness.SealedRecord``),
    which decrypts at most once however many checks read the record: the
    commitment is checked over the decrypted bytes themselves, so plaintext
    that is not the canonical encoding it was committed as fails."""
    if sealed_record.commitment.digest != registered_digest:
        return None
    plain = sealed_record.open(keys)
    return plain if plain is not None and sealed_record.commitment.matches(plain) else None


@dataclass(frozen=True)
class SecurityReport:
    integrity: float
    provenance: float
    auditability: float
    weights: tuple[float, float, float]
    score: float

    def to_value(self) -> dict:
        return {
            "integrity": float(self.integrity),
            "provenance": float(self.provenance),
            "auditability": float(self.auditability),
            "weights": [float(w) for w in self.weights],
            "score": float(self.score),
        }


def security_score(
    ledger: Ledger,
    record_table: dict,
    keys: crypto.KeyTable,
    requests: int,
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
) -> SecurityReport:
    """Score the chain and the stored sealed records held in
    ``record_table``, checked with ``keys``, against ``requests``, the number
    of access requests the scenario scripts.

    One :meth:`~bxhf.ledger.Ledger.verified` walk gives the chain verdict,
    which gates integrity, and the registrations and access decisions read.
    """
    w_i, w_p, w_a = weights
    if min(w_i, w_p, w_a) < 0 or abs(w_i + w_p + w_a - 1.0) > 1e-9:
        raise ValueError("weights must be non-negative and sum to 1")

    verdict, txs = ledger.verified()
    registered = {}
    decisions = 0
    for tx in txs:
        if tx.kind == "DataRegistration":
            registered[tx.body["record_id"]] = tx.body["commitment"]
        elif tx.kind == "AccessDecision":
            decisions += 1

    if registered:
        ok = sum(
            1
            for record_id, commitment_digest in registered.items()
            if record_id in record_table
            and verify_record(record_table[record_id], keys, commitment_digest) is not None
        )
        record_fraction = ok / len(registered)
    else:
        record_fraction = 1.0
    integrity = (1.0 if verdict is None else 0.0) * record_fraction

    if record_table:
        provenance = sum(1 for rid in record_table if rid in registered) / len(record_table)
    else:
        provenance = 1.0

    if requests == 0:
        auditability = 1.0
    else:
        auditability = min(1.0, decisions / requests)

    score = w_i * integrity + w_p * provenance + w_a * auditability
    return SecurityReport(
        integrity=integrity,
        provenance=provenance,
        auditability=auditability,
        weights=(w_i, w_p, w_a),
        score=score,
    )


@dataclass(frozen=True)
class TrustReport:
    empirical_loss: float
    mean_penalty: float
    security: float
    penalty_weight: float
    security_weight: float
    objective: float

    def to_value(self) -> dict:
        return {
            "empirical_loss": float(self.empirical_loss),
            "mean_penalty": float(self.mean_penalty),
            "security": float(self.security),
            "penalty_weight": float(self.penalty_weight),
            "security_weight": float(self.security_weight),
            "objective": float(self.objective),
        }


def trust_objective(
    model: LinearModel,
    dataset: Dataset,
    spec: FeatureSpec,
    security: SecurityReport,
    penalty_weight: float,
    security_weight: float,
) -> TrustReport:
    """Loss plus weighted interpretability penalty minus weighted security."""
    if penalty_weight < 0 or security_weight < 0:
        raise ValueError("trade-off weights must be non-negative")
    empirical = loss(model, dataset)
    # The same hinge the per-row explanations give (an auditor can recompute
    # it from them), without building one explanation per training row.
    mean_penalty = mean_sign_violation(model, dataset.X, spec)
    objective = empirical + penalty_weight * mean_penalty - security_weight * security.score
    return TrustReport(
        empirical_loss=empirical,
        mean_penalty=mean_penalty,
        security=security.score,
        penalty_weight=penalty_weight,
        security_weight=security_weight,
        objective=objective,
    )
