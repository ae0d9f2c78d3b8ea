"""Deterministic end-to-end simulation of the consortium workflow.

Builds a world from a scenario config (sealed records, consent policies,
one shared ledger), then drives the five steps in order: registration,
consent, federated training, gated prediction requests, and a validation
pass that re-derives every decision from on-chain data.  Everything is
reproducible from the seed; tamper injection flips stored bytes so the
verifiers have something real to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import canon, crypto
from .access import (
    ConsentRegistry,
    IntegrityAlarmError,
    gated_fetch,
    update_consent,
)
from .explain import Explanation, explain_linear
from .learning import (
    Dataset,
    DivergenceError,
    FeatureSpec,
    LinearModel,
    TrainConfig,
    apply_delta,
    fed_avg,
    local_update,
    log_model_update,
    loss,
    predict,
)
from .ledger import (
    Ledger,
    LogicalClock,
    Transaction,
    build_transaction,
    dump_ledger,
    load_ledger,
)
from .scenario import (
    ConfigError,
    ScenarioConfig,
    dump_scenario,
    generate_records,
    load_config,
    validate_config,
)
from .trust import security_score, trust_objective, verify_record

__all__ = [
    "SealedRecord",
    "TamperTargetError",
    "UnknownDecisionError",
    "WorldState",
    "build_scenario",
    "check_decision",
    "flip_bit",
    "load_world",
    "read_canonical",
    "run_workflow",
    "save_world",
    "score_world",
    "tamper",
    "verify_decision",
    "write_canonical",
]

SCENARIO_FILE = "scenario.bx"
LEDGER_FILE = "ledger.bx"
WORLD_FILE = "world.bx"
REPORT_FILE = "report.bx"


class UnknownDecisionError(KeyError):
    """No DecisionRecord transaction with that id."""


class TamperTargetError(KeyError):
    """Tamper target does not exist in this world."""


@dataclass
class SealedRecord:
    """A registered record at rest: sealed bytes plus its public commitment.
    Only the sealed bytes and the salt are saved; the owner, its key and the
    commitment digest are the record's registration's (see :func:`load_world`)."""

    record_id: str
    institution_id: str | None
    sealed: crypto.SealedPayload
    commitment: crypto.Commitment
    # (sealed payload, key, plaintext or None) of the last open
    _opened: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def open(self, keys: crypto.KeyTable) -> bytes | None:
        """The sealed plaintext bytes, or None when the seal does not
        authenticate under ``keys``.

        The result is kept with the sealed payload and key it came from, so
        every check of one command that reads this record shares a single
        AES-GCM open; a new payload (tampering) or key opens again.
        """
        try:
            key = keys.get(self.sealed.key_id)
        except crypto.UnknownKeyError:
            return None
        opened = self._opened
        if opened is None or opened[0] is not self.sealed or opened[1] != key:
            try:
                plain = crypto.unseal(self.sealed, keys)
            except crypto.AuthenticationError:
                plain = None
            opened = self._opened = (self.sealed, key, plain)
        return opened[2]

    def to_value(self) -> dict:
        return {
            "auth_tag": self.sealed.auth_tag,
            "ciphertext": self.sealed.ciphertext,
            "salt": self.commitment.salt,
        }

    @classmethod
    def from_value(cls, record_id: str, value: dict, registration: dict | None) -> "SealedRecord":
        """The saved ``value`` owned as its ``DataRegistration`` body
        ``registration`` says, or by no one for None.  Raises ``TypeError``
        for a value not shaped like a saved record."""
        if not (
            isinstance(value, dict)
            and value.keys() == {"auth_tag", "ciphertext", "salt"}
            and all(isinstance(v, bytes) for v in value.values())
        ):
            raise TypeError(f"record {record_id!r} is not shaped like a sealed record")
        owner = digest = key_id = None
        if registration is not None:
            owner, digest = registration["institution_id"], registration["commitment"]
            key_id = _key_id(owner)
        sealed = crypto.SealedPayload(value["ciphertext"], value["auth_tag"], key_id)
        return cls(record_id, owner, sealed, crypto.Commitment(digest, value["salt"]))


@dataclass
class WorldState:
    """Everything a consortium run touches, on-chain and off.

    A world from :func:`build_scenario` is the one :func:`run_workflow`
    drives: ``registry`` holds the effective consent and ``clock`` continues
    the chain.  A world from :func:`load_world` is only read, and its
    ``registry`` is None: no command runs the workflow on a loaded world,
    and a registry replayed from an unverified chain would be one nothing
    checks, so none is built rather than an empty one.  Its ``clock`` still
    starts past the last logical time on the chain.  Its ``datasets`` and
    ``unreadable_records`` are built from the sealed records the first time
    either is read.
    """

    config: ScenarioConfig
    ledger: Ledger
    clock: LogicalClock
    keys: crypto.KeyTable
    records: dict[str, SealedRecord]
    registry: ConsentRegistry | None
    model: LinearModel | None = None
    report: dict | None = None
    # None until first read on a loaded world; see ``datasets``
    _datasets: dict[str, Dataset] | None = field(default=None, repr=False)
    _unreadable: list[str] = field(default_factory=list, repr=False)

    @property
    def datasets(self) -> dict[str, Dataset]:
        """Each institution's training rows.  On a loaded world they are
        built on first read by :func:`_open_datasets`."""
        if self._datasets is None:
            self._datasets, self._unreadable = _open_datasets(
                self.config, self.records, self.keys
            )
        return self._datasets

    @property
    def unreadable_records(self) -> list[str]:
        """Records left out of ``datasets`` because no key opens them, in
        sorted id order: their seals do not authenticate, or on a loaded
        world no verified registration names them."""
        self.datasets  # noqa: B018 - builds them on a loaded world
        return self._unreadable

    @property
    def record_table(self) -> dict[str, SealedRecord]:
        """``records``, under the name ``perfbench/tracing.py`` binds."""
        return self.records

    def pooled_dataset(self) -> Dataset:
        xs = [self.datasets[inst].X for inst in self.config.institution_ids]
        ys = [self.datasets[inst].y for inst in self.config.institution_ids]
        return Dataset(np.vstack(xs), np.concatenate(ys), "consortium")


def _key_id(institution_id: str) -> str:
    return f"k-{institution_id}"


def build_scenario(config: ScenarioConfig | dict) -> WorldState:
    """Seal, commit, and register every record; install consent policies.

    All randomness (keys, row data, salts, nonces) comes from one generator
    seeded by the config, in a fixed draw order, so rebuilding with the same
    seed reproduces the ledger byte for byte.
    """
    if isinstance(config, dict):
        config = validate_config(config)
    rng = np.random.default_rng(config.seed)

    keys = crypto.KeyTable()
    for inst in config.institution_ids:
        keys.register(_key_id(inst), rng.bytes(crypto.KEY_LEN))

    generated = generate_records(config, rng)

    ledger = Ledger()
    clock = LogicalClock()
    records: dict[str, SealedRecord] = {}
    rows: dict[str, list[tuple[np.ndarray, float]]] = {inst: [] for inst in config.institution_ids}

    spec = config.feature_spec
    for inst in config.institution_ids:
        batch: list[Transaction] = []
        for rec in (r for r in generated if r.institution_id == inst):
            # one encoding, committed to and sealed
            encoded = canon.canonicalize(rec.payload())
            salt = rng.bytes(crypto.SALT_LEN)
            commitment = crypto.commit(encoded, salt)
            nonce = rng.bytes(crypto.NONCE_LEN)
            sealed = crypto.seal(encoded, _key_id(inst), keys, nonce)
            records[rec.record_id] = SealedRecord(
                record_id=rec.record_id,
                institution_id=inst,
                sealed=sealed,
                commitment=commitment,
            )
            rows[inst].append(
                (np.asarray([rec.features[n] for n in spec.names], dtype=float), rec.outcome)
            )
            batch.append(
                build_transaction(
                    "DataRegistration",
                    inst,
                    clock.next(),
                    {
                        "record_id": rec.record_id,
                        "institution_id": inst,
                        "commitment": commitment.digest,
                    },
                )
            )
        ledger.append_block(batch)

    registry = ConsentRegistry()
    if config.policies:
        batch = []
        for policy in config.policies:
            update_consent(ledger, registry, policy, clock, batch)
        ledger.append_block(batch)

    datasets = {
        inst: Dataset(
            np.vstack([x for x, _ in rows[inst]]),
            np.asarray([y for _, y in rows[inst]], dtype=float),
            inst,
        )
        for inst in config.institution_ids
    }

    return WorldState(
        config=config,
        ledger=ledger,
        clock=clock,
        keys=keys,
        records=records,
        registry=registry,
        _datasets=datasets,
    )


def _train_config(config: ScenarioConfig) -> TrainConfig:
    train = config.train
    return TrainConfig(
        learning_rate=float(train["learning_rate"]),
        epochs=int(train["local_steps"]),
        penalty_weight=float(train["penalty_weight"]),
    )


def _record_row(plain: bytes, spec: FeatureSpec) -> tuple[list[float], object]:
    """A record's feature row, in the panel's order, and its outcome, from
    its opened plaintext bytes.  Bytes that are not a canonical record of
    the panel's features raise ``KeyError``, ``TypeError`` or
    ``ValueError``."""
    value = canon.loads(plain)
    features = value["features"]
    return [float(features[n]) for n in spec.names], value["outcome"]


def _derive_decision(
    model: LinearModel, spec: FeatureSpec, x: list[float], record_ref: str, input_commitment: str
) -> tuple[dict, Explanation]:
    """The prediction value and the explanation a decision on the feature
    row ``x`` binds: run to make a decision, and again to replay one."""
    margin, prediction = predict(model, x)
    explanation = explain_linear(
        model, spec, x, record_ref=record_ref, input_commitment=input_commitment
    )
    return {"margin": margin, "prediction": prediction}, explanation


def run_workflow(world: WorldState) -> dict:
    """Drive the full scripted run of ``world.config`` and return the report.

    Order: federated rounds (ModelUpdate txs, one block per round), scripted
    requests (one block each; permits additionally bind a DecisionRecord),
    one validation pass on behalf of every institution, then
    :func:`score_world`.
    """
    cfg = world.config
    spec = cfg.feature_spec
    tcfg = _train_config(cfg)
    link = cfg.train["link"]
    rounds = int(cfg.federation["rounds"])

    model = LinearModel(np.zeros(spec.dim), 0.0, link)
    pooled = world.pooled_dataset()
    round_losses: list[float] = []
    try:
        # an overflow is the config's doing, e.g. planted weights so large
        # that the loss or a parameter is not finite
        with np.errstate(over="raise", invalid="raise"):
            for round_index in range(rounds):
                deltas = []
                batch: list[Transaction] = []
                for inst in cfg.institution_ids:
                    delta = local_update(model, world.datasets[inst], spec, tcfg)
                    log_model_update(world.ledger, inst, round_index, delta, world.clock, batch)
                    deltas.append(delta)
                world.ledger.append_block(batch)
                model = apply_delta(model, fed_avg(deltas))
                round_losses.append(loss(model, pooled))
    except (DivergenceError, FloatingPointError) as exc:
        raise ConfigError(f"training diverged: {exc}") from None
    world.model = model

    permitted = 0
    denied = 0
    decision_txs: list[Transaction] = []
    table = world.records
    for request in cfg.requests:
        batch = []
        try:
            plain, _ = gated_fetch(
                world.ledger,
                world.keys,
                world.registry,
                table,
                request["user_id"],
                request["record_id"],
                request["purpose"],
                world.clock,
                batch,
            )
        except IntegrityAlarmError:
            # the permit was issued before the seal failed; it must still
            # reach the chain so the audit trail shows what was attempted
            world.ledger.append_block(batch)
            raise
        if plain is None:
            world.ledger.append_block(batch)
            denied += 1
            continue
        rid = request["record_id"]
        input_commitment = table[rid].commitment.digest
        x, _ = _record_row(plain, spec)
        prediction_value, explanation = _derive_decision(model, spec, x, rid, input_commitment)
        decision_tx = build_transaction(
            "DecisionRecord",
            request["user_id"],
            world.clock.next(),
            {
                "record_ref": rid,
                "input_commitment": input_commitment,
                "model_hash": model.param_hash(),
                "prediction_hash": crypto.digest_value(prediction_value),
                "explanation_hash": explanation.digest(),
            },
        )
        batch.append(decision_tx)
        world.ledger.append_block(batch)
        decision_txs.append(decision_tx)
        permitted += 1

    # One replay stands for every institution: they all read the same shared
    # world, so their verdicts agree by construction.  Independent validators
    # would need per-institution state, which the simulation does not keep.
    # The chain these decisions were just appended to is verified once, by
    # score_world.
    verdicts = {tx.tx_id: check_decision(world, tx)[0] for tx in decision_txs}
    mismatches = sorted(txid for txid, v in verdicts.items() if v != "valid")

    report = {
        "steps": {
            "1_registration": {
                "records": world.ledger.count_kind("DataRegistration"),
                "institutions": len(cfg.institution_ids),
            },
            "2_consent": {"policies": world.ledger.count_kind("ConsentUpdate")},
            "3_training": {
                "rounds": rounds,
                "nodes": len(cfg.institution_ids),
                "model_updates": world.ledger.count_kind("ModelUpdate"),
                "round_losses": round_losses,
            },
            "4_requests": {
                "total": len(cfg.requests),
                "permitted": permitted,
                "denied": denied,
            },
            "5_validation": {
                "validators": list(cfg.institution_ids),
                "checked": len(decision_txs),
                "valid": sum(1 for v in verdicts.values() if v == "valid"),
                "consensus": True,
                "mismatches": mismatches,
            },
        },
        "blocks": len(world.ledger),
        "decision_count": permitted,
        "decision_tx_ids": [tx.tx_id for tx in decision_txs],
        "model_hash": model.param_hash(),
        **score_world(world),
    }
    world.report = report
    return report


def verify_decision(world: WorldState, decision_tx_id: str) -> str:
    """Re-derive one decision from on-chain data and the world's records
    and model.

    Returns ``"valid"`` or the first mismatch found, checked in dependency
    order: ``"chain"``, ``"input"``, ``"model"``, ``"prediction"``,
    ``"explanation"``.  A decision is proven by its own chain prefix: the
    blocks up to and including the one that holds it must verify, and
    damage after it does not fail it.  An id not on the chain is a
    ``"chain"`` mismatch when the chain does not verify (the decision may
    have been in what was damaged), else :class:`UnknownDecisionError`.
    """
    blocks = world.ledger.blocks
    for k, block in enumerate(blocks):
        for tx in block.transactions:
            if tx.tx_id == decision_tx_id and tx.kind == "DecisionRecord":
                if Ledger.from_blocks(blocks[: k + 1]).verify_chain() is not None:
                    return "chain"
                return check_decision(world, tx)[0]
    if world.ledger.verify_chain() is not None:
        return "chain"
    raise UnknownDecisionError(decision_tx_id)


def check_decision(
    world: WorldState, tx: Transaction
) -> tuple[str, tuple[dict, Explanation] | None]:
    """The one decision check: :func:`verify_decision`'s layers after
    ``"chain"``, for a ``DecisionRecord`` on a verified chain.

    Returns the verdict and, when it is ``"valid"``, the prediction value
    and the explanation it re-derived, whose digests are the chain's; for a
    mismatch, None.  A record whose plaintext is not a row of the config's
    features is an ``"input"`` mismatch.  Only the decision's own record is
    opened.
    """
    body = tx.body
    rid = body["record_ref"]
    record = world.records.get(rid)
    plain = None if record is None else verify_record(record, world.keys, body["input_commitment"])
    if plain is None:
        return "input", None
    spec = world.config.feature_spec
    try:
        x, _ = _record_row(plain, spec)
    except (KeyError, TypeError, ValueError):  # ValueError covers parse errors
        return "input", None

    if world.model is None or world.model.param_hash() != body["model_hash"]:
        return "model", None

    prediction_value, explanation = _derive_decision(
        world.model, spec, x, rid, body["input_commitment"]
    )
    if crypto.digest_value(prediction_value) != body["prediction_hash"]:
        return "prediction", None
    if explanation.digest() != body["explanation_hash"]:
        return "explanation", None
    return "valid", (prediction_value, explanation)


def flip_bit(data: bytes, offset: int, what: str) -> bytes:
    """``data`` with bit 0 of byte ``offset`` flipped; ``what`` names the
    artifact in the IndexError an out-of-range offset raises."""
    if not 0 <= offset < len(data):
        raise IndexError(f"offset {offset} out of range for {what} of {len(data)} bytes")
    out = bytearray(data)
    out[offset] ^= 0x01
    return bytes(out)


def tamper(world: WorldState, target: tuple, offset: int) -> WorldState:
    """Flip one bit in a stored artifact (never in an on-chain hash).

    Targets: ``("block", index)`` — the block's stored payload bytes;
    ``("record", record_id)`` — the sealed ciphertext.
    """
    kind, key = target
    if kind == "block":
        try:
            block = world.ledger.blocks[int(key)]
        except (IndexError, ValueError):
            raise TamperTargetError(f"no block {key!r}") from None
        block.payload_bytes = flip_bit(block.payload_bytes, offset, f"block {key}")
    elif kind == "record":
        record = world.records.get(key)
        if record is None:
            raise TamperTargetError(f"no record {key!r}")
        record.sealed = replace(
            record.sealed,
            ciphertext=flip_bit(record.sealed.ciphertext, offset, f"record {key}"),
        )
    else:
        raise TamperTargetError(f"unknown tamper kind {kind!r}")
    return world


def score_world(world: WorldState) -> dict:
    """Security components (and, model permitting, the trust objective)."""
    weights = tuple(float(w) for w in world.config.trust["component_weights"])
    sec = security_score(
        world.ledger, world.records, world.keys, len(world.config.requests), weights
    )
    result = {"security": sec.to_value()}
    if world.model is not None and any(len(d) for d in world.datasets.values()):
        trust = trust_objective(
            world.model,
            world.pooled_dataset(),
            world.config.feature_spec,
            sec,
            penalty_weight=float(world.config.train["penalty_weight"]),
            security_weight=float(world.config.trust["security_weight"]),
        )
        result["trust"] = trust.to_value()
    if world.unreadable_records:
        result["unreadable_records"] = sorted(world.unreadable_records)
    return result


def world_value(world: WorldState) -> dict:
    value = {
        "keys": world.keys.to_value(),
        "records": {rid: rec.to_value() for rid, rec in world.records.items()},
    }
    if world.model is not None:
        value["model"] = world.model.to_value()
    return value


def write_canonical(path: Path, value) -> None:
    """Save a value as its canonical bytes plus one ``"\\n"``."""
    path.write_bytes(canon.canonicalize(value) + b"\n")


def read_canonical(path: Path):
    """The value of a file :func:`write_canonical` saved: the file must be
    canonical bytes followed by exactly one ``"\\n"``, which is stripped."""
    data = path.read_bytes()
    if not data.endswith(b"\n"):
        raise canon.NotationParseError(f"{path.name} does not end in a newline")
    return canon.loads(data[:-1])


def save_world(world: WorldState, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / SCENARIO_FILE).write_text(dump_scenario(world.config.raw))
    # the stored payload bytes exactly, damaged or not UTF-8 included
    (out / LEDGER_FILE).write_bytes(dump_ledger(world.ledger).encode("utf-8", "surrogateescape"))
    write_canonical(out / WORLD_FILE, world_value(world))
    if world.report is not None:
        write_canonical(out / REPORT_FILE, world.report)
    return out


def _open_datasets(
    config: ScenarioConfig, records: dict[str, SealedRecord], keys: crypto.KeyTable
) -> tuple[dict[str, Dataset], list[str]]:
    """Each institution's dataset from the sealed records, and the ids of
    those no key opens.

    Rows are in sorted record-id order, institutions in the config's order.
    Every record that authenticates is a row, whether or not it matches its
    commitment; the security score judges that.  A plaintext that is not a
    record of the config's features raises
    :class:`~bxhf.canon.NotationParseError` naming ``world.bx``.
    """
    spec = config.feature_spec
    unreadable: list[str] = []
    rows: dict[str, tuple[list, list]] = {inst: ([], []) for inst in config.institution_ids}
    try:
        for rid in sorted(records):
            record = records[rid]
            plain = record.open(keys)
            if plain is None:
                unreadable.append(rid)
                continue
            x, y = _record_row(plain, spec)
            xs, ys = rows.setdefault(record.institution_id, ([], []))
            xs.append(x)
            ys.append(y)
        # the reshape keeps the feature width when no row is readable
        datasets = {
            inst: Dataset(np.reshape(xs, (-1, spec.dim)), ys, inst)
            for inst, (xs, ys) in rows.items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise canon.NotationParseError(f"{WORLD_FILE} is not a saved world: {exc!r}") from None
    return datasets, unreadable


def load_world(world_dir: str | Path) -> WorldState:
    """Rebuild a world from its saved files, opening no sealed record.

    ``world.bx`` holds the keys, the model and each record's sealed bytes
    and salt; the scripted requests are read from the scenario.
    ``report.bx``, the run's unverified log, is not read, so ``report`` is
    None.  The ledger is loaded up to its first damaged line, and the damage
    travels with it.  One verification gives each record its owner, key id
    and commitment digest from its ``DataRegistration`` on the verified
    prefix; a record none there names has no owner, and no key opens it.
    Consent is not replayed (``registry`` is None; see :class:`WorldState`).
    Records are opened when a check or the datasets read them, each at most
    once.  A ``world.bx`` that parses but is not shaped like a saved world
    raises :class:`~bxhf.canon.NotationParseError`.
    """
    base = Path(world_dir)
    config = load_config((base / SCENARIO_FILE).read_bytes())
    ledger = load_ledger((base / LEDGER_FILE).read_bytes())
    value = read_canonical(base / WORLD_FILE)
    _, txs = ledger.verified()
    registered = {tx.body["record_id"]: tx.body for tx in txs if tx.kind == "DataRegistration"}
    try:
        keys = crypto.KeyTable.from_value(value["keys"])
        records = {
            rid: SealedRecord.from_value(rid, rec_value, registered.get(rid))
            for rid, rec_value in value["records"].items()
        }
        model = LinearModel.from_value(value["model"]) if "model" in value else None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise canon.NotationParseError(f"{WORLD_FILE} is not a saved world: {exc!r}") from None

    return WorldState(
        config=config,
        ledger=ledger,
        clock=LogicalClock(ledger.max_logical_time() + 1),
        keys=keys,
        records=records,
        registry=None,
        model=model,
    )
