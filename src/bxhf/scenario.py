"""Scenario configuration: schema, validation, and synthetic cohorts.

A scenario file describes a small consortium — institutions with signing
keys, clinicians, a feature panel with directional expectations, consent
policies, and a script of access requests.  Records are either generated
from a planted linear truth (seeded, reproducible) or written inline.
Scenario files are JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .access import PURPOSES, AccessPolicy
from .learning import LINKS, FeatureSpec

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "GeneratedRecord",
    "demo_profile",
    "dump_scenario",
    "rare_disease_profile",
    "generate_records",
    "load_config",
    "parse_scenario",
    "validate_config",
]


class ConfigError(ValueError):
    """Scenario file is malformed; the message carries the offending field path."""


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _number(value, path: str) -> float:
    """``value`` as a float: it must be an int or a float, not a bool, and
    within the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        _fail(path, "number out of range")


def _require(mapping, key: str, kind, path: str):
    if not isinstance(mapping, dict):
        _fail(path, "expected a mapping")
    if key not in mapping:
        _fail(f"{path}.{key}", "missing")
    value = mapping[key]
    if kind is float:
        return _number(value, f"{path}.{key}")
    if kind is not None and not isinstance(value, kind):
        _fail(f"{path}.{key}", f"expected {kind.__name__}")
    if kind is int and isinstance(value, bool):
        _fail(f"{path}.{key}", "expected int")
    return value


def _id_list(items, path: str) -> list[str]:
    seen: set[str] = set()
    for i, item in enumerate(items):
        ident = _require(item, "id", str, f"{path}[{i}]")
        if not ident:
            _fail(f"{path}[{i}].id", "must be non-empty")
        if ident in seen:
            _fail(f"{path}[{i}].id", f"duplicate id {ident!r}")
        seen.add(ident)
    return sorted(seen)


@dataclass
class ScenarioConfig:
    """Validated scenario, ready for :func:`bxhf.harness.build_scenario`."""

    raw: dict
    seed: int
    institution_ids: list[str]
    user_ids: list[str]
    feature_spec: FeatureSpec
    record_ids: list[str]
    policies: list[AccessPolicy]
    requests: list[dict]

    @property
    def train(self) -> dict:
        return self.raw["train"]

    @property
    def federation(self) -> dict:
        return self.raw["federation"]

    @property
    def trust(self) -> dict:
        return self.raw["trust"]


def _validate_features(value, path: str) -> FeatureSpec:
    names = _require(value, "names", list, path)
    baseline = _require(value, "baseline", list, path)
    signs = _require(value, "sign_constraints", list, path)
    if not names or not all(isinstance(n, str) and n for n in names):
        _fail(f"{path}.names", "expected non-empty feature names")
    if len(set(names)) != len(names):
        _fail(f"{path}.names", "feature names must be unique")
    if len(baseline) != len(names) or len(signs) != len(names):
        _fail(path, "names, baseline and sign_constraints must have equal length")
    if not all(s in (-1, 0, 1) for s in signs):
        _fail(f"{path}.sign_constraints", "entries must be -1, 0 or +1")
    mu = [_number(b, f"{path}.baseline[{j}]") for j, b in enumerate(baseline)]
    return FeatureSpec(tuple(names), tuple(mu), tuple(int(s) for s in signs))


def _validate_records(
    config: dict, institution_ids: list[str], spec: FeatureSpec, link: str
) -> list[str]:
    """Check the records section, so :func:`generate_records` only converts,
    and resolve the full record-id set before any data exists."""
    records = _require(config, "records", dict, "scenario")
    mode = _require(records, "mode", str, "records")
    owners: dict[str, str] = {}
    if mode == "generated":
        per = _require(records, "per_institution", int, "records")
        if per < 1:
            _fail("records.per_institution", "must be >= 1")
        weights = _require(records, "planted_weights", list, "records")
        if len(weights) != spec.dim:
            _fail("records.planted_weights", f"expected {spec.dim} entries")
        for j, weight in enumerate(weights):
            _number(weight, f"records.planted_weights[{j}]")
        _require(records, "planted_bias", float, "records")
        if "noise" in records:
            _require(records, "noise", float, "records")
        for inst in institution_ids:
            for k in range(per):
                owners[f"{inst}-r{k:03d}"] = inst
    elif mode == "inline":
        rows = _require(records, "rows", list, "records")
        if not rows:
            _fail("records.rows", "must be non-empty")
        for i, row in enumerate(rows):
            path = f"records.rows[{i}]"
            rid = _require(row, "record_id", str, path)
            inst = _require(row, "institution_id", str, path)
            if inst not in institution_ids:
                _fail(f"{path}.institution_id", f"unknown institution {inst!r}")
            if rid in owners:
                _fail(f"{path}.record_id", f"duplicate record {rid!r}")
            features = _require(row, "features", dict, path)
            if features.keys() != set(spec.names):
                _fail(f"{path}.features", "expected exactly the panel's features")
            for name in spec.names:
                _number(features[name], f"{path}.features.{name}")
            outcome = _require(row, "outcome", float, path)
            if link == "logistic" and outcome not in (0.0, 1.0):
                _fail(f"{path}.outcome", "expected 0 or 1 under the logistic link")
            owners[rid] = inst
    else:
        _fail("records.mode", "expected 'generated' or 'inline'")
    covered = {inst for inst in owners.values()}
    for inst in institution_ids:
        if inst not in covered:
            _fail("records", f"institution {inst!r} has no records")
    return sorted(owners)


def validate_config(value) -> ScenarioConfig:
    """Check a parsed scenario against the schema; raise ConfigError on the
    first violation, naming the field path."""
    if not isinstance(value, dict):
        raise ConfigError("scenario: expected a mapping at top level")
    seed = _require(value, "seed", int, "scenario")
    institutions = _require(value, "institutions", list, "scenario")
    if not institutions:
        _fail("institutions", "at least one institution required")
    institution_ids = _id_list(institutions, "institutions")
    users = _require(value, "users", list, "scenario")
    user_ids = _id_list(users, "users")
    spec = _validate_features(_require(value, "features", dict, "scenario"), "features")

    train = _require(value, "train", dict, "scenario")
    link = _require(train, "link", str, "train")
    if link not in LINKS:
        _fail("train.link", f"expected one of {sorted(LINKS)}")
    if _require(train, "learning_rate", float, "train") <= 0:
        _fail("train.learning_rate", "must be positive")
    if _require(train, "local_steps", int, "train") < 1:
        _fail("train.local_steps", "must be >= 1")
    if _require(train, "penalty_weight", float, "train") < 0:
        _fail("train.penalty_weight", "must be non-negative")

    record_ids = _validate_records(value, institution_ids, spec, link)
    known_records = set(record_ids)
    known_users = set(user_ids)

    policies: list[AccessPolicy] = []
    for i, entry in enumerate(value.get("policies", [])):
        path = f"policies[{i}]"
        try:
            policy = AccessPolicy.from_value(entry)
        except (KeyError, TypeError, ValueError) as exc:
            _fail(path, str(exc))
        if policy.user_id not in known_users:
            _fail(f"{path}.user_id", f"unknown user {policy.user_id!r}")
        scope = policy.record_scope
        if scope.endswith("/*"):
            if scope[:-2] not in institution_ids:
                _fail(f"{path}.record_scope", f"unknown institution in {scope!r}")
        elif scope not in known_records:
            _fail(f"{path}.record_scope", f"unknown record {scope!r}")
        policies.append(policy)

    requests = _require(value, "requests", list, "scenario")
    for i, req in enumerate(requests):
        path = f"requests[{i}]"
        user = _require(req, "user_id", str, path)
        rid = _require(req, "record_id", str, path)
        purpose = _require(req, "purpose", str, path)
        if user not in known_users:
            _fail(f"{path}.user_id", f"unknown user {user!r}")
        if rid not in known_records:
            _fail(f"{path}.record_id", f"unknown record {rid!r}")
        if purpose not in PURPOSES:
            _fail(f"{path}.purpose", f"unknown purpose {purpose!r}")

    federation = _require(value, "federation", dict, "scenario")
    if _require(federation, "rounds", int, "federation") < 0:
        _fail("federation.rounds", "must be >= 0")

    trust = _require(value, "trust", dict, "scenario")
    if _require(trust, "security_weight", float, "trust") < 0:
        _fail("trust.security_weight", "must be non-negative")
    component = _require(trust, "component_weights", list, "trust")
    if len(component) != 3:
        _fail("trust.component_weights", "expected three numbers")
    w_i, w_p, w_a = (_number(w, f"trust.component_weights[{k}]") for k, w in enumerate(component))
    # the rule trust.security_score applies to them
    if min(w_i, w_p, w_a) < 0 or abs(w_i + w_p + w_a - 1.0) > 1e-9:
        _fail("trust.component_weights", "must be non-negative and sum to 1")

    return ScenarioConfig(
        raw=value,
        seed=seed,
        institution_ids=institution_ids,
        user_ids=user_ids,
        feature_spec=spec,
        record_ids=record_ids,
        policies=policies,
        requests=list(requests),
    )


def _reject_constant(name: str):
    raise ConfigError(f"scenario: {name} is not a number")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    value = dict(pairs)
    if len(value) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for key in keys if keys.count(key) > 1)
        raise ConfigError(f"scenario: duplicate key {key!r}")
    return value


def parse_scenario(text: bytes | str):
    """The value of a scenario file's JSON text or bytes.  ``NaN``,
    ``Infinity``, ``-Infinity``, a key given twice in one object, and input
    that is not JSON raise :class:`ConfigError`."""
    try:
        return json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"scenario: {exc}") from None


def dump_scenario(value) -> str:
    """A scenario file's text: indented JSON with sorted keys."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def load_config(text: bytes | str) -> ScenarioConfig:
    return validate_config(parse_scenario(text))


@dataclass
class GeneratedRecord:
    record_id: str
    institution_id: str
    features: dict[str, float]
    outcome: float

    def payload(self) -> dict:
        return {
            "record_id": self.record_id,
            "features": dict(self.features),
            "outcome": self.outcome,
        }


def _planted_margin(x: np.ndarray, weights: np.ndarray, bias: float, mu: np.ndarray) -> float:
    return float(weights @ (x - mu) + bias)


def generate_records(config: ScenarioConfig, rng: np.random.Generator) -> list[GeneratedRecord]:
    """Materialise the scenario's records, drawing from `rng` in a fixed order
    (per institution, per record: features, then the outcome draw).  The
    values were checked by :func:`validate_config`; this only converts."""
    spec = config.feature_spec
    records_cfg = config.raw["records"]
    link = config.train["link"]
    out: list[GeneratedRecord] = []
    if records_cfg["mode"] == "inline":
        for row in records_cfg["rows"]:
            features = {name: float(row["features"][name]) for name in spec.names}
            out.append(
                GeneratedRecord(
                    record_id=row["record_id"],
                    institution_id=row["institution_id"],
                    features=features,
                    outcome=float(row["outcome"]),
                )
            )
        return out

    per = records_cfg["per_institution"]
    weights = np.asarray([float(w) for w in records_cfg["planted_weights"]], dtype=float)
    bias = float(records_cfg["planted_bias"])
    noise = float(records_cfg.get("noise", 0.0))
    mu = np.asarray(spec.baseline, dtype=float)
    for inst in config.institution_ids:
        for k in range(per):
            x = mu + rng.standard_normal(len(spec.names))
            margin = _planted_margin(x, weights, bias, mu)
            if link == "logistic":
                # a margin far below zero overflows exp; the probability is 0 either way
                with np.errstate(over="ignore"):
                    prob = 1.0 / (1.0 + np.exp(-margin))
                outcome = 1.0 if rng.random() < prob else 0.0
            else:
                outcome = margin + noise * rng.standard_normal()
            out.append(
                GeneratedRecord(
                    record_id=f"{inst}-r{k:03d}",
                    institution_id=inst,
                    features={name: float(v) for name, v in zip(spec.names, x)},
                    outcome=float(outcome),
                )
            )
    return out


def demo_profile() -> dict:
    """Two-hospital heart-failure triage consortium (the default walkthrough)."""
    horizon = 1_000_000
    return {
        "seed": 11,
        "institutions": [{"id": "lakeside"}, {"id": "st-marys"}],
        "users": [
            {"id": "dr-osei", "role": "clinician"},
            {"id": "dr-tanaka", "role": "clinician"},
            {"id": "visitor-jones", "role": "unaffiliated"},
        ],
        "features": {
            "names": ["troponin", "ecg_abnormality", "age_z", "bmi_z"],
            "baseline": [0.0, 0.0, 0.0, 0.0],
            "sign_constraints": [1, 1, 0, 0],
        },
        "records": {
            "mode": "generated",
            "per_institution": 10,
            "planted_weights": [2.2, 1.6, 0.0, 0.0],
            "planted_bias": -0.2,
        },
        "policies": [
            {
                "policy_id": "p-osei-stmarys",
                "user_id": "dr-osei",
                "record_scope": "st-marys/*",
                "purpose": "treatment",
                "valid_from": 1,
                "valid_until": horizon,
                "granted": True,
            },
            {
                "policy_id": "p-osei-lakeside-r003",
                "user_id": "dr-osei",
                "record_scope": "lakeside-r003",
                "purpose": "treatment",
                "valid_from": 1,
                "valid_until": horizon,
                "granted": True,
            },
            {
                "policy_id": "p-tanaka-lakeside",
                "user_id": "dr-tanaka",
                "record_scope": "lakeside/*",
                "purpose": "treatment",
                "valid_from": 1,
                "valid_until": horizon,
                "granted": True,
            },
        ],
        "requests": [
            {"user_id": "dr-osei", "record_id": "st-marys-r000", "purpose": "treatment"},
            {"user_id": "dr-osei", "record_id": "st-marys-r004", "purpose": "treatment"},
            {"user_id": "dr-osei", "record_id": "lakeside-r003", "purpose": "treatment"},
            {"user_id": "dr-tanaka", "record_id": "lakeside-r001", "purpose": "treatment"},
            {"user_id": "dr-tanaka", "record_id": "lakeside-r007", "purpose": "treatment"},
            {"user_id": "visitor-jones", "record_id": "st-marys-r000", "purpose": "treatment"},
        ],
        "train": {
            "link": "logistic",
            "learning_rate": 0.5,
            "local_steps": 10,
            "penalty_weight": 0.5,
        },
        "federation": {"rounds": 5},
        "trust": {
            "security_weight": 0.2,
            "component_weights": [
                0.3333333333333333,
                0.3333333333333333,
                0.3333333333333334,
            ],
        },
    }


def rare_disease_profile() -> dict:
    """Three-site rare-disease registry scripted around research access."""
    horizon = 1_000_000
    return {
        "seed": 7,
        "institutions": [{"id": "alpine-clinic"}, {"id": "harbor-med"}, {"id": "north-registry"}],
        "users": [
            {"id": "analyst-ruiz", "role": "researcher"},
            {"id": "auditor-chen", "role": "auditor"},
            {"id": "analyst-weiss", "role": "researcher"},
        ],
        "features": {
            "names": ["biomarker_a", "biomarker_b", "onset_age_z"],
            "baseline": [0.0, 0.0, 0.0],
            "sign_constraints": [1, -1, 0],
        },
        "records": {
            "mode": "generated",
            "per_institution": 8,
            "planted_weights": [1.2, -0.9, 0.3],
            "planted_bias": 0.1,
        },
        "policies": [
            {
                "policy_id": "p-ruiz-alpine",
                "user_id": "analyst-ruiz",
                "record_scope": "alpine-clinic/*",
                "purpose": "research",
                "valid_from": 1,
                "valid_until": horizon,
                "granted": True,
            },
            {
                "policy_id": "p-ruiz-harbor",
                "user_id": "analyst-ruiz",
                "record_scope": "harbor-med/*",
                "purpose": "research",
                "valid_from": 1,
                "valid_until": 10,
                "granted": True,
            },
            {
                "policy_id": "p-chen-north",
                "user_id": "auditor-chen",
                "record_scope": "north-registry/*",
                "purpose": "audit",
                "valid_from": 1,
                "valid_until": horizon,
                "granted": True,
            },
            {
                "policy_id": "p-weiss-north",
                "user_id": "analyst-weiss",
                "record_scope": "north-registry/*",
                "purpose": "research",
                "valid_from": 1,
                "valid_until": horizon,
                "granted": False,
            },
        ],
        "requests": [
            {"user_id": "analyst-ruiz", "record_id": "alpine-clinic-r002", "purpose": "research"},
            {"user_id": "analyst-ruiz", "record_id": "alpine-clinic-r005", "purpose": "research"},
            {"user_id": "analyst-ruiz", "record_id": "harbor-med-r001", "purpose": "research"},
            {"user_id": "auditor-chen", "record_id": "north-registry-r000", "purpose": "audit"},
            {"user_id": "auditor-chen", "record_id": "north-registry-r003", "purpose": "audit"},
            {"user_id": "analyst-weiss", "record_id": "north-registry-r004", "purpose": "research"},
            {"user_id": "analyst-ruiz", "record_id": "north-registry-r004", "purpose": "research"},
        ],
        "train": {
            "link": "logistic",
            "learning_rate": 0.5,
            "local_steps": 10,
            "penalty_weight": 0.5,
        },
        "federation": {"rounds": 4},
        "trust": {
            "security_weight": 0.2,
            "component_weights": [
                0.3333333333333333,
                0.3333333333333333,
                0.3333333333333334,
            ],
        },
    }
