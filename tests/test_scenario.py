"""Scenario schema validation, record generation, and the shipped profiles."""

from __future__ import annotations

import numpy as np
import pytest

from bxhf.cli import main
from bxhf.scenario import (
    ConfigError,
    demo_profile,
    dump_scenario,
    generate_records,
    load_config,
    rare_disease_profile,
    validate_config,
)


def _minimal() -> dict:
    return {
        "seed": 5,
        "institutions": [{"id": "h1"}],
        "users": [{"id": "u1"}],
        "features": {
            "names": ["a", "b"],
            "baseline": [0.0, 0.0],
            "sign_constraints": [1, 0],
        },
        "records": {
            "mode": "generated",
            "per_institution": 3,
            "planted_weights": [1.0, -0.5],
            "planted_bias": 0.0,
        },
        "policies": [
            {
                "policy_id": "p1",
                "user_id": "u1",
                "record_scope": "h1/*",
                "purpose": "treatment",
                "valid_from": 1,
                "valid_until": 1000,
                "granted": True,
            }
        ],
        "requests": [
            {"user_id": "u1", "record_id": "h1-r000", "purpose": "treatment"}
        ],
        "train": {
            "link": "logistic",
            "learning_rate": 0.5,
            "local_steps": 2,
            "penalty_weight": 0.1,
        },
        "federation": {"rounds": 1},
        "trust": {
            "security_weight": 0.2,
            "component_weights": [0.4, 0.3, 0.3],
        },
    }


def _expect_error(value: dict, fragment: str):
    with pytest.raises(ConfigError) as err:
        validate_config(value)
    assert fragment in str(err.value), str(err.value)


def test_minimal_config_validates():
    config = validate_config(_minimal())
    assert config.seed == 5
    assert config.institution_ids == ["h1"]
    assert config.record_ids == ["h1-r000", "h1-r001", "h1-r002"]
    assert list(config.feature_spec.names) == ["a", "b"]
    assert len(config.policies) == 1
    assert len(config.requests) == 1


def test_missing_seed_names_the_field():
    value = _minimal()
    del value["seed"]
    _expect_error(value, "scenario.seed: missing")


def test_duplicate_institution_id():
    value = _minimal()
    value["institutions"] = [{"id": "h1"}, {"id": "h1"}]
    _expect_error(value, "institutions[1].id")


def test_bad_sign_constraint_entry():
    value = _minimal()
    value["features"]["sign_constraints"] = [1, 2]
    _expect_error(value, "features.sign_constraints")


def test_feature_length_mismatch():
    value = _minimal()
    value["features"]["baseline"] = [0.0]
    _expect_error(value, "features")


def test_planted_weights_length_checked():
    value = _minimal()
    value["records"]["planted_weights"] = [1.0]
    _expect_error(value, "records.planted_weights")


def test_policy_scope_must_resolve():
    value = _minimal()
    value["policies"][0]["record_scope"] = "h9/*"
    _expect_error(value, "policies[0].record_scope")
    value = _minimal()
    value["policies"][0]["record_scope"] = "h1-r999"
    _expect_error(value, "policies[0].record_scope")


def test_policy_user_must_exist():
    value = _minimal()
    value["policies"][0]["user_id"] = "nobody"
    _expect_error(value, "policies[0].user_id")


def test_policy_field_errors_carry_path():
    value = _minimal()
    value["policies"][0]["purpose"] = "marketing"
    _expect_error(value, "policies[0]")
    value = _minimal()
    value["policies"][0]["policy_id"] = 5  # the ledger takes ids as text only
    _expect_error(value, "policies[0]")
    value = _minimal()
    value["policies"][0]["granted"] = 1
    _expect_error(value, "policies[0]")


def test_request_record_and_purpose_checked():
    value = _minimal()
    value["requests"][0]["record_id"] = "h1-r777"
    _expect_error(value, "requests[0].record_id")
    value = _minimal()
    value["requests"][0]["purpose"] = "resale"
    _expect_error(value, "requests[0].purpose")
    value = _minimal()
    value["requests"][0]["user_id"] = "stranger"
    _expect_error(value, "requests[0].user_id")


def test_train_and_federation_bounds():
    value = _minimal()
    value["train"]["learning_rate"] = 0.0
    _expect_error(value, "train.learning_rate")
    value = _minimal()
    value["train"]["link"] = "cubic"
    _expect_error(value, "train.link")
    value = _minimal()
    value["train"]["local_steps"] = 0
    _expect_error(value, "train.local_steps")
    value = _minimal()
    value["federation"]["rounds"] = -1
    _expect_error(value, "federation.rounds")


def test_trust_weights_shape():
    value = _minimal()
    value["trust"]["component_weights"] = [0.5, 0.5]
    _expect_error(value, "trust.component_weights")
    value = _minimal()
    value["trust"]["security_weight"] = -0.1
    _expect_error(value, "trust.security_weight")


def test_inline_records_validated():
    value = _minimal()
    value["records"] = {
        "mode": "inline",
        "rows": [
            {
                "record_id": "h1-a",
                "institution_id": "h1",
                "features": {"a": 1.0, "b": 2.0},
                "outcome": 1.0,
            }
        ],
    }
    value["requests"] = [{"user_id": "u1", "record_id": "h1-a", "purpose": "treatment"}]
    config = validate_config(value)
    assert config.record_ids == ["h1-a"]

    value["records"]["rows"].append(dict(value["records"]["rows"][0]))
    _expect_error(value, "records.rows[1].record_id")

    value["records"]["rows"][1] = {
        "record_id": "h1-b",
        "institution_id": "h404",
        "features": {"a": 0.0, "b": 0.0},
        "outcome": 0.0,
    }
    _expect_error(value, "records.rows[1].institution_id")


def test_every_institution_needs_records():
    value = _minimal()
    value["institutions"] = [{"id": "h1"}, {"id": "h2"}]
    value["records"] = {
        "mode": "inline",
        "rows": [
            {
                "record_id": "h1-a",
                "institution_id": "h1",
                "features": {"a": 1.0, "b": 2.0},
                "outcome": 1.0,
            }
        ],
    }
    value["requests"] = [{"user_id": "u1", "record_id": "h1-a", "purpose": "treatment"}]
    _expect_error(value, "h2")


def test_inline_feature_names_must_match_panel():
    value = _minimal()
    value["records"] = {
        "mode": "inline",
        "rows": [
            {
                "record_id": "h1-a",
                "institution_id": "h1",
                "features": {"a": 1.0, "wrong": 2.0},
                "outcome": 1.0,
            }
        ],
    }
    value["requests"] = [{"user_id": "u1", "record_id": "h1-a", "purpose": "treatment"}]
    config = validate_config(value)
    with pytest.raises(ConfigError):
        generate_records(config, np.random.default_rng(0))


def test_generation_is_deterministic_for_a_seed():
    config = validate_config(_minimal())
    a = generate_records(config, np.random.default_rng(config.seed))
    b = generate_records(config, np.random.default_rng(config.seed))
    assert [r.payload() for r in a] == [r.payload() for r in b]
    c = generate_records(config, np.random.default_rng(config.seed + 1))
    assert [r.payload() for r in a] != [r.payload() for r in c]


def test_generated_outcomes_match_link():
    value = _minimal()
    config = validate_config(value)
    rows = generate_records(config, np.random.default_rng(0))
    assert all(r.outcome in (0.0, 1.0) for r in rows)

    value["train"]["link"] = "identity"
    value["records"]["noise"] = 0.0
    config = validate_config(value)
    rows = generate_records(config, np.random.default_rng(0))
    w = np.array(value["records"]["planted_weights"])
    for row in rows:
        x = np.array([row.features["a"], row.features["b"]])
        assert row.outcome == pytest.approx(float(w @ x))


def test_record_ids_follow_institution_order():
    value = _minimal()
    value["institutions"] = [{"id": "zeta"}, {"id": "alpha"}]
    value["requests"] = []
    value["policies"][0]["record_scope"] = "alpha/*"
    config = validate_config(value)
    rows = generate_records(config, np.random.default_rng(0))
    assert [r.institution_id for r in rows[:3]] == ["alpha"] * 3
    assert rows[0].record_id == "alpha-r000"


def test_load_config_round_trips_through_text():
    text = dump_scenario(_minimal())
    config = load_config(text)
    assert config.seed == 5
    with pytest.raises(ConfigError):
        load_config("seed = broken {{{")


# A scenario file as earlier versions wrote it: inline scalar lists, repr floats.
OLD_LAYOUT = """\
{
  "features": {
    "baseline": [0.1, -2.5e-07],
    "names": ["a", "b"],
    "sign_constraints": [1, 0]
  },
  "federation": {
    "rounds": 1
  },
  "institutions": [
    {
      "id": "h1"
    }
  ],
  "policies": [
    {
      "granted": true,
      "policy_id": "p1",
      "purpose": "treatment",
      "record_scope": "h1/*",
      "user_id": "u1",
      "valid_from": 1,
      "valid_until": 1000
    }
  ],
  "records": {
    "mode": "generated",
    "per_institution": 3,
    "planted_bias": 0.0,
    "planted_weights": [1.0, -0.5]
  },
  "requests": [
    {
      "purpose": "treatment",
      "record_id": "h1-r000",
      "user_id": "u1"
    }
  ],
  "seed": 5,
  "train": {
    "learning_rate": 0.5,
    "link": "logistic",
    "local_steps": 2,
    "penalty_weight": 0.1
  },
  "trust": {
    "component_weights": [0.4, 0.3, 0.3],
    "security_weight": 0.2
  },
  "users": [
    {
      "id": "u1"
    }
  ]
}
"""


def test_scenario_in_the_old_layout_loads():
    expected = _minimal()
    expected["features"]["baseline"] = [0.1, -2.5e-07]
    assert load_config(OLD_LAYOUT).raw == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"seed": NaN}', "NaN is not a number"),
        ('{"seed": Infinity}', "Infinity is not a number"),
        ('{"seed": -Infinity}', "-Infinity is not a number"),
        ('{"users": [{"id": "u1", "id": "u2"}]}', "duplicate key 'id'"),
        ('{"seed": 5,}', "Expecting property name"),
        ("[" * 100_000, "recursion"),
        (b'{"seed": "\xff"}', "can't decode byte 0xff"),
    ],
    ids=["nan", "infinity", "minus-infinity", "duplicate-key", "trailing-comma", "deep", "not-utf8"],
)
def test_scenario_that_is_not_strict_json_is_a_config_error(tmp_path, capsys, text, message):
    with pytest.raises(ConfigError, match=message):
        load_config(text)
    path = tmp_path / "scenario.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: scenario: ") and message in err


def test_shipped_profiles_validate():
    for profile in (demo_profile(), rare_disease_profile()):
        config = validate_config(profile)
        rows = generate_records(config, np.random.default_rng(config.seed))
        assert len(rows) == len(config.record_ids)
        assert len(config.requests) >= 5
        assert config.federation["rounds"] >= 1


def test_demo_profile_counts():
    config = validate_config(demo_profile())
    assert len(config.record_ids) == 20
    assert len(config.institution_ids) == 2
    denies = [r for r in config.requests if r["user_id"] == "visitor-jones"]
    assert denies  # at least one request that no policy covers
