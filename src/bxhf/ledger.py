"""Append-only hash-chained ledger of typed, auditable transactions.

Each block commits to its transaction batch through a payload hash over the
canonical transaction list, and to its predecessor through the previous
block hash; the genesis block is fixed (index 0, zero previous hash, empty
batch).  Nothing here ever mutates an existing block: the only state change
is appending, and appends are expected to be serialized by the caller
(the simulation event loop is the single writer).

Five transaction kinds are recorded: data registrations, consent updates,
access decisions, model updates, and decision records binding a prediction
and its explanation to the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import NotationParseError, canonicalize, dumps, loads
from .crypto import ZERO_HASH, digest

__all__ = [
    "Block",
    "Ledger",
    "LedgerOrderingError",
    "LogicalClock",
    "Transaction",
    "TransactionValidationError",
    "TX_KINDS",
    "build_transaction",
    "dump_ledger",
    "load_ledger",
    "load_ledger_lenient",
    "verify_dump",
]

TX_KINDS = (
    "DataRegistration",
    "ConsentUpdate",
    "AccessDecision",
    "ModelUpdate",
    "DecisionRecord",
)

# Required body fields per transaction kind.
_BODY_FIELDS = {
    "DataRegistration": ("record_id", "institution_id", "commitment"),
    "ConsentUpdate": (
        "policy_id",
        "user_id",
        "record_scope",
        "purpose",
        "valid_from",
        "valid_until",
        "granted",
    ),
    "AccessDecision": ("user_id", "record_id", "purpose", "outcome", "reason"),
    "ModelUpdate": ("node_id", "round", "delta_digest"),
    "DecisionRecord": (
        "record_ref",
        "input_commitment",
        "model_hash",
        "prediction_hash",
        "explanation_hash",
    ),
}

_HASH_FIELDS = {
    "commitment",
    "delta_digest",
    "input_commitment",
    "model_hash",
    "prediction_hash",
    "explanation_hash",
}


class TransactionValidationError(ValueError):
    """Transaction kind or body does not satisfy its schema."""


class LedgerOrderingError(ValueError):
    """Logical time of an appended transaction is not strictly increasing."""


def _is_hash(value) -> bool:
    return (
        isinstance(value, str)
        and len(value) == 64
        and all(c in "0123456789abcdef" for c in value)
    )


def _validate_body(kind: str, body: dict) -> None:
    if kind not in _BODY_FIELDS:
        raise TransactionValidationError(f"unknown transaction kind {kind!r}")
    required = _BODY_FIELDS[kind]
    missing = [name for name in required if name not in body]
    if missing:
        raise TransactionValidationError(f"{kind} body missing fields: {missing}")
    for name in required:
        if name in _HASH_FIELDS and not _is_hash(body[name]):
            raise TransactionValidationError(f"{kind}.{name} must be a 64-hex-char hash")
    if kind == "AccessDecision":
        outcome, reason = body["outcome"], body["reason"]
        if outcome not in ("permit", "deny"):
            raise TransactionValidationError(f"invalid outcome {outcome!r}")
        if (outcome == "permit") != (reason == "granted"):
            raise TransactionValidationError("outcome=permit iff reason=granted")
    if kind == "ConsentUpdate" and body["valid_from"] > body["valid_until"]:
        raise TransactionValidationError("policy interval invalid: valid_from > valid_until")


@dataclass(frozen=True)
class Transaction:
    tx_id: str
    kind: str
    actor: str
    logical_time: int
    body: dict

    def to_value(self) -> dict:
        return {
            "tx_id": self.tx_id,
            "kind": self.kind,
            "actor": self.actor,
            "logical_time": self.logical_time,
            "body": self.body,
        }


def _tx_digest(kind: str, actor: str, logical_time: int, body: dict) -> str:
    return digest(
        canonicalize(
            {"kind": kind, "actor": actor, "logical_time": logical_time, "body": body}
        )
    )


def build_transaction(kind: str, actor: str, logical_time: int, body: dict) -> Transaction:
    """Validate a transaction body against its kind's schema and assign its id."""
    _validate_body(kind, body)
    if not isinstance(logical_time, int) or logical_time < 1:
        raise TransactionValidationError("logical_time must be a positive integer")
    return Transaction(
        tx_id=_tx_digest(kind, actor, logical_time, body),
        kind=kind,
        actor=actor,
        logical_time=logical_time,
        body=body,
    )


class LogicalClock:
    """Monotone counter standing in for wall time; one tick per transaction."""

    def __init__(self, start: int = 1):
        self._next = start

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value

    def peek(self) -> int:
        return self._next


@dataclass
class Block:
    index: int
    prev_hash: str
    payload_hash: str
    block_hash: str
    transactions: list[Transaction]
    # Authoritative stored bytes of the transaction batch; verification hashes
    # these so byte-level tampering is always visible.
    payload_bytes: bytes = field(repr=False, default=b"")

    def header_value(self) -> dict:
        return {"index": self.index, "prev_hash": self.prev_hash, "payload_hash": self.payload_hash}

    def to_value(self) -> dict:
        return {
            "index": self.index,
            "prev_hash": self.prev_hash,
            "payload_hash": self.payload_hash,
            "block_hash": self.block_hash,
            "transactions": [tx.to_value() for tx in self.transactions],
        }


def _payload_bytes(txs: list[Transaction]) -> bytes:
    return canonicalize([tx.to_value() for tx in txs])


def _block_hash(index: int, prev_hash: str, payload_hash: str) -> str:
    return digest(
        canonicalize({"index": index, "prev_hash": prev_hash, "payload_hash": payload_hash})
    )


def _make_block(index: int, prev_hash: str, txs: list[Transaction]) -> Block:
    payload = _payload_bytes(txs)
    payload_hash = digest(payload)
    return Block(
        index=index,
        prev_hash=prev_hash,
        payload_hash=payload_hash,
        block_hash=_block_hash(index, prev_hash, payload_hash),
        transactions=list(txs),
        payload_bytes=payload,
    )


class Ledger:
    """The hash chain: genesis plus appended blocks of validated transactions."""

    def __init__(self):
        self.blocks: list[Block] = [_make_block(0, ZERO_HASH, [])]
        self._tx_index: dict[str, Transaction] = {}

    @classmethod
    def from_blocks(cls, blocks: list[Block]) -> "Ledger":
        """A ledger over already-built blocks (as loaded from a dump), unverified."""
        ledger = cls.__new__(cls)
        ledger.blocks = blocks
        ledger._tx_index = {tx.tx_id: tx for block in blocks for tx in block.transactions}
        return ledger

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def max_logical_time(self) -> int:
        for block in reversed(self.blocks):
            if block.transactions:
                return block.transactions[-1].logical_time
        return 0

    def append_block(self, txs: list[Transaction]) -> Block:
        """Append one block holding the given batch.

        Every transaction re-validates, and logical times must strictly
        increase within the batch and beyond everything already on-chain.
        """
        if not txs:
            raise TransactionValidationError("empty blocks are reserved for genesis")
        floor = self.max_logical_time()
        for tx in txs:
            _validate_body(tx.kind, tx.body)
            expected = _tx_digest(tx.kind, tx.actor, tx.logical_time, tx.body)
            if tx.tx_id != expected:
                raise TransactionValidationError(f"tx_id mismatch for {tx.tx_id[:12]}")
            if tx.logical_time <= floor:
                raise LedgerOrderingError(
                    f"logical_time {tx.logical_time} not above chain maximum {floor}"
                )
            floor = tx.logical_time
        block = _make_block(len(self.blocks), self.head.block_hash, txs)
        self.blocks.append(block)
        for tx in txs:
            self._tx_index[tx.tx_id] = tx
        return block

    def find_tx(self, tx_id: str) -> Transaction | None:
        return self._tx_index.get(tx_id)

    def iter_txs(self):
        for block in self.blocks:
            yield from block.transactions

    def count_kind(self, kind: str) -> int:
        return sum(1 for tx in self.iter_txs() if tx.kind == kind)

    def verify_chain(self) -> int | None:
        """Return None when the chain is intact, else the first corrupt index."""
        prev_time = 0
        for i, block in enumerate(self.blocks):
            if block.index != i:
                return i
            if digest(block.payload_bytes) != block.payload_hash:
                return i
            if _block_hash(block.index, block.prev_hash, block.payload_hash) != block.block_hash:
                return i
            if i == 0:
                if block.prev_hash != ZERO_HASH or block.payload_bytes != canonicalize([]):
                    return i
            else:
                if block.prev_hash != self.blocks[i - 1].block_hash:
                    return i
                if not block.transactions:
                    return i
            if block.payload_bytes != _payload_bytes(block.transactions):
                return i
            for tx in block.transactions:
                try:
                    _validate_body(tx.kind, tx.body)
                except TransactionValidationError:
                    return i
                if tx.tx_id != _tx_digest(tx.kind, tx.actor, tx.logical_time, tx.body):
                    return i
                if tx.logical_time <= prev_time:
                    return i
                prev_time = tx.logical_time
        return None

    def audit_trail(self, record_id: str) -> list[Transaction]:
        """All transactions referencing a record, in logical time order."""
        trail = []
        for tx in self.iter_txs():
            refs = (
                tx.body.get("record_id"),
                tx.body.get("record_ref"),
                tx.body.get("record_scope"),
            )
            if record_id in refs:
                trail.append(tx)
        return sorted(trail, key=lambda tx: tx.logical_time)

    def verify_decision_binding(self, decision_tx_id: str, explanation_value, prediction) -> str:
        """Check an explanation/prediction pair against an on-chain decision record.

        Returns ``"valid"``, or the mismatch kind: ``"explanation"``,
        ``"prediction"``, or ``"unknown_tx"``.
        """
        tx = self.find_tx(decision_tx_id)
        if tx is None or tx.kind != "DecisionRecord":
            return "unknown_tx"
        if digest(canonicalize(explanation_value)) != tx.body["explanation_hash"]:
            return "explanation"
        if digest(canonicalize(prediction)) != tx.body["prediction_hash"]:
            return "prediction"
        return "valid"


def dump_ledger(ledger: Ledger) -> str:
    """Line-delimited dump: one canonical block object per line, genesis first."""
    return "".join(dumps(block.to_value()) + "\n" for block in ledger.blocks)


def _block_from_value(value: dict) -> Block:
    txs = [
        Transaction(
            tx_id=tv["tx_id"],
            kind=tv["kind"],
            actor=tv["actor"],
            logical_time=tv["logical_time"],
            body=tv["body"],
        )
        for tv in value["transactions"]
    ]
    return Block(
        index=value["index"],
        prev_hash=value["prev_hash"],
        payload_hash=value["payload_hash"],
        block_hash=value["block_hash"],
        transactions=txs,
        payload_bytes=_payload_bytes(txs),
    )


def _parse_dump(data: bytes | str, skip_damaged: bool) -> tuple[list[Block], int | None]:
    """Parse a ledger dump, one block per line, each line exactly once.

    Lines are split on ``"\n"`` only; blank lines are ignored.  A line that is
    not UTF-8, does not parse, or is not shaped like a block is damaged.
    Returns the blocks that parsed and the index of the first damaged line
    (None if there is none).  Parsing stops at that line unless
    ``skip_damaged``, in which case damaged lines are left out.
    """
    blocks: list[Block] = []
    damaged = None
    newline = b"\n" if isinstance(data, (bytes, bytearray)) else "\n"
    for i, line in enumerate(line for line in data.split(newline) if line.strip()):
        try:
            blocks.append(_block_from_value(loads(line)))
        except (KeyError, TypeError, ValueError):  # ValueError covers decode and parse errors
            if damaged is None:
                damaged = i
            if not skip_damaged:
                break
    return blocks, damaged


def verify_dump(data: bytes | str) -> int | None:
    """Verify a ledger dump file, tolerating unparseable lines.

    A line that no longer parses as a block counts as corruption at that
    index; otherwise this is :meth:`Ledger.verify_chain` on the loaded chain.
    """
    blocks, damaged = _parse_dump(data, skip_damaged=False)
    if damaged is not None:
        return damaged
    if not blocks:
        return 0
    return Ledger.from_blocks(blocks).verify_chain()


def load_ledger_lenient(data: bytes | str) -> tuple[Ledger, int | None]:
    """Load a possibly damaged dump for inspection, without verifying it.

    Unparseable lines are dropped from the returned chain; the second element
    is the index of the first of them (None if every line parsed), which is
    also the :func:`verify_dump` verdict whenever it is not None.  Run
    :meth:`Ledger.verify_chain` on the result to check integrity.
    """
    blocks, damaged = _parse_dump(data, skip_damaged=True)
    return Ledger.from_blocks(blocks), damaged


def load_ledger(data: bytes | str) -> Ledger:
    """Reconstruct a ledger from a dump.  Structural validity only; run
    :meth:`Ledger.verify_chain` to check integrity."""
    blocks, damaged = _parse_dump(data, skip_damaged=False)
    if damaged is not None:
        raise NotationParseError(f"block {damaged} of the ledger dump does not parse")
    if not blocks:
        raise NotationParseError("ledger dump is empty")
    return Ledger.from_blocks(blocks)
