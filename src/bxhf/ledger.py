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

import re
from dataclasses import dataclass, field

from .canon import CanonicalizationError, NotationParseError, canonicalize, loads
from .crypto import ZERO_HASH, digest

__all__ = [
    "Block",
    "Ledger",
    "LedgerOrderingError",
    "LogicalClock",
    "PURPOSES",
    "Transaction",
    "TransactionValidationError",
    "TX_KINDS",
    "build_transaction",
    "dump_ledger",
    "has_valid_body",
    "load_ledger",
    "load_ledger_lenient",
    "verify_dump",
]

# Purposes a consent policy can grant and an access request can name.
PURPOSES = ("treatment", "research", "audit")

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

# Identifier fields, which must be text.
_ID_FIELDS = {
    "record_id",
    "institution_id",
    "policy_id",
    "user_id",
    "record_scope",
    "node_id",
    "record_ref",
}

_HASH = re.compile("[0-9a-f]{64}")


class TransactionValidationError(ValueError):
    """Transaction kind or body does not satisfy its schema."""


class LedgerOrderingError(ValueError):
    """Logical time of an appended transaction is not strictly increasing."""


def _is_hash(value) -> bool:
    return isinstance(value, str) and _HASH.fullmatch(value) is not None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_body(kind: str, body: dict) -> None:
    if not isinstance(kind, str) or kind not in _BODY_FIELDS:
        raise TransactionValidationError(f"unknown transaction kind {kind!r}")
    if not isinstance(body, dict):
        raise TransactionValidationError(f"{kind} body must be a map")
    required = _BODY_FIELDS[kind]
    missing = [name for name in required if name not in body]
    if missing:
        raise TransactionValidationError(f"{kind} body missing fields: {missing}")
    for name in required:
        if name in _HASH_FIELDS and not _is_hash(body[name]):
            raise TransactionValidationError(f"{kind}.{name} must be a 64-hex-char hash")
        if name in _ID_FIELDS and not isinstance(body[name], str):
            raise TransactionValidationError(f"{kind}.{name} must be text")
    if kind in ("ConsentUpdate", "AccessDecision") and body["purpose"] not in PURPOSES:
        raise TransactionValidationError(f"{kind}.purpose must be one of {PURPOSES}")
    if kind == "AccessDecision":
        outcome, reason = body["outcome"], body["reason"]
        if outcome not in ("permit", "deny"):
            raise TransactionValidationError(f"invalid outcome {outcome!r}")
        if (outcome == "permit") != (reason == "granted"):
            raise TransactionValidationError("outcome=permit iff reason=granted")
    if kind == "ConsentUpdate":
        # what access.AccessPolicy requires, so every verified policy builds one
        if not (body["policy_id"] and body["user_id"] and body["record_scope"]):
            raise TransactionValidationError("policy_id, user_id, record_scope must be non-empty")
        if not (_is_int(body["valid_from"]) and _is_int(body["valid_until"])):
            raise TransactionValidationError("policy interval bounds must be integers")
        if body["valid_from"] > body["valid_until"]:
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


def has_valid_body(tx: Transaction) -> bool:
    """Does the transaction's kind and body pass its schema?  Readers of a
    leniently loaded, unverified ledger use this to skip what
    :meth:`Ledger.verify_chain` would call corrupt.  The schema is what the
    readers need: a ``ConsentUpdate`` body that passes it builds an
    ``access.AccessPolicy``, and every identifier is text."""
    try:
        _validate_body(tx.kind, tx.body)
    except TransactionValidationError:
        return False
    return True


def _tx_digest(kind: str, actor: str, logical_time: int, body: dict) -> str:
    return digest(
        canonicalize(
            {"kind": kind, "actor": actor, "logical_time": logical_time, "body": body}
        )
    )


def build_transaction(kind: str, actor: str, logical_time: int, body: dict) -> Transaction:
    """Validate a transaction body against its kind's schema and assign its id."""
    _validate_body(kind, body)
    if not _is_int(logical_time) or logical_time < 1:
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
    # Authoritative stored bytes of the transaction batch: the encoding made
    # on append, or the dump line's own bytes on load.  Verification hashes
    # these and requires them to be the canonical encoding of the batch, so
    # any byte-level tampering, re-spacing included, is visible.
    payload_bytes: bytes = field(repr=False, default=b"")


def _encode_transactions(txs: list[Transaction]) -> tuple[list[str], bytes]:
    """Emit each transaction once; return the tx ids it derives and the payload.

    Map keys sort ``actor < body < kind < logical_time < tx_id``, so a
    transaction's payload element is its tx-id preimage (the canonical map
    without ``tx_id``) with the closing brace replaced by ``,"tx_id":"…"}``.
    The payload carries the derived ids, so it equals the canonical encoding
    of the batch exactly when every stored ``tx_id`` is the derived one.
    """
    tx_ids = []
    elements = []
    for tx in txs:
        preimage = canonicalize(
            {"kind": tx.kind, "actor": tx.actor, "logical_time": tx.logical_time, "body": tx.body}
        )
        tx_id = digest(preimage)
        tx_ids.append(tx_id)
        elements.append(preimage[:-1] + b',"tx_id":"' + tx_id.encode() + b'"}')
    return tx_ids, b"[" + b",".join(elements) + b"]"


_GENESIS_PAYLOAD = canonicalize([])


def _block_hash(index: int, prev_hash: str, payload_hash: str) -> str:
    return digest(
        canonicalize({"index": index, "prev_hash": prev_hash, "payload_hash": payload_hash})
    )


def _make_block(index: int, prev_hash: str, txs: list[Transaction], payload: bytes) -> Block:
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
        self.blocks: list[Block] = [_make_block(0, ZERO_HASH, [], _GENESIS_PAYLOAD)]
        self._tx_index: dict[str, Transaction] = {}
        # index of the first dump line that did not load; None when built in memory
        self.damaged: int | None = None

    @classmethod
    def from_blocks(cls, blocks: list[Block], damaged: int | None = None) -> "Ledger":
        """A ledger over already-built blocks (as loaded from a dump), unverified.

        ``damaged`` is the index of the first dump line that did not load
        (None if every line did); the damage travels with the ledger and
        :meth:`verify_chain` reports it."""
        ledger = cls.__new__(cls)
        ledger.blocks = blocks
        ledger._tx_index = {tx.tx_id: tx for block in blocks for tx in block.transactions}
        ledger.damaged = damaged
        return ledger

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def max_logical_time(self) -> int:
        """The last integer logical time on the chain (0 if there is none);
        a loaded, unverified chain can also hold mistyped ones."""
        for block in reversed(self.blocks):
            for tx in reversed(block.transactions):
                if _is_int(tx.logical_time):
                    return tx.logical_time
        return 0

    def append_block(self, txs: list[Transaction]) -> Block:
        """Append one block holding the given batch.

        Every transaction re-validates, and logical times must strictly
        increase within the batch and beyond everything already on-chain.
        """
        if not txs:
            raise TransactionValidationError("empty blocks are reserved for genesis")
        for tx in txs:
            _validate_body(tx.kind, tx.body)
            if not _is_int(tx.logical_time):
                raise TransactionValidationError("logical_time must be a positive integer")
        tx_ids, payload = _encode_transactions(txs)
        floor = self.max_logical_time()
        for tx, tx_id in zip(txs, tx_ids):
            if tx.tx_id != tx_id:
                raise TransactionValidationError(f"tx_id mismatch for {tx.tx_id[:12]}")
            if tx.logical_time <= floor:
                raise LedgerOrderingError(
                    f"logical_time {tx.logical_time} not above chain maximum {floor}"
                )
            floor = tx.logical_time
        block = _make_block(len(self.blocks), self.head.block_hash, txs, payload)
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
        """Return None when the chain is intact, else the first corrupt index.

        A block is corrupt when a hash or link does not match, when a
        transaction fails its schema (a non-integer index or logical time
        included) or is out of order, or when its payload bytes are not the
        canonical encoding of its transactions under their derived tx ids.
        A loaded ledger is corrupt at its first damaged dump line when every
        block before that line verifies; a ledger with no blocks at 0.
        """
        prev_time = 0
        for i, block in enumerate(self.blocks[: self.damaged]):
            if not _is_int(block.index) or block.index != i:
                return i
            if digest(block.payload_bytes) != block.payload_hash:
                return i
            if _block_hash(block.index, block.prev_hash, block.payload_hash) != block.block_hash:
                return i
            if i == 0:
                if block.prev_hash != ZERO_HASH or block.payload_bytes != _GENESIS_PAYLOAD:
                    return i
            else:
                if block.prev_hash != self.blocks[i - 1].block_hash:
                    return i
                if not block.transactions:
                    return i
            for tx in block.transactions:
                if not has_valid_body(tx):
                    return i
                if not _is_int(tx.logical_time) or tx.logical_time <= prev_time:
                    return i
                prev_time = tx.logical_time
            try:
                tx_ids, payload = _encode_transactions(block.transactions)
            except CanonicalizationError:
                return i
            if block.payload_bytes != payload:
                return i
            if any(tx.tx_id != tx_id for tx, tx_id in zip(block.transactions, tx_ids)):
                return i
        return self.damaged if self.blocks else 0

    def audit_trail(self, record_id: str) -> list[Transaction]:
        """All transactions referencing a record, in chain order.

        On a chain that verifies this is logical-time order, which
        :meth:`verify_chain` requires to increase strictly.  The chain is not
        verified here, so transactions whose body is not a map are skipped.
        """
        return [
            tx
            for tx in self.iter_txs()
            if isinstance(tx.body, dict)
            and record_id
            in (tx.body.get("record_id"), tx.body.get("record_ref"), tx.body.get("record_scope"))
        ]


def _line_prefix(block_hash, index, payload_hash, prev_hash) -> bytes:
    """A dump line up to its payload: the canonical block map's header
    fields, which sort before ``transactions``, then ``"transactions":``."""
    header = {
        "block_hash": block_hash,
        "index": index,
        "payload_hash": payload_hash,
        "prev_hash": prev_hash,
    }
    return canonicalize(header)[:-1] + b',"transactions":'


def dump_ledger(ledger: Ledger) -> str:
    """Line-delimited dump: one block map per line, genesis first.

    Each line is spliced from the header prefix, the block's stored
    ``payload_bytes`` and ``}``; no transaction is encoded again.  For a
    chain that verifies, that is the canonical encoding of each block.  A
    block whose stored bytes were damaged is written as it is, so the dump
    fails verification at that block as the chain in memory does.  Bytes
    that are not UTF-8 become lone surrogates (the ``surrogateescape``
    handler), and encoding the text with that handler gives back the stored
    bytes exactly.
    """
    lines = []
    for block in ledger.blocks:
        prefix = _line_prefix(block.block_hash, block.index, block.payload_hash, block.prev_hash)
        lines.append(prefix + block.payload_bytes + b"}\n")
    return b"".join(lines).decode("utf-8", "surrogateescape")


def _block_from_line(line: bytes) -> Block:
    """One dump line as a block whose payload bytes are the line's own bytes.

    The line must start with :func:`_line_prefix` of its parsed header and
    end with ``}``; the payload bytes are what lies between.
    :meth:`Ledger.verify_chain` then requires them to be the canonical
    encoding of the parsed transactions, so a line that is not byte-for-byte
    canonical never verifies.
    """
    value = loads(line)
    prefix = _line_prefix(
        value["block_hash"], value["index"], value["payload_hash"], value["prev_hash"]
    )
    if not (line.startswith(prefix) and line.endswith(b"}")):
        raise NotationParseError("block line is not canonical around its payload")
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
        payload_bytes=bytes(line[len(prefix) : -1]),
    )


def _parse_dump(data: bytes | str, skip_damaged: bool) -> tuple[list[Block], int | None]:
    """Parse a ledger dump, one block per line, each line exactly once.

    Lines are split on ``"\n"`` only; blank lines are ignored.  A line that is
    not UTF-8, does not parse, is not shaped like a block, or is not canonical
    around its payload is damaged.  Each block's payload bytes are the file's
    own bytes, never a re-encoding.  Returns the blocks that parsed and the
    index of the first damaged line (None if there is none).  Parsing stops
    at that line unless ``skip_damaged``, in which case damaged lines are
    left out.
    """
    if isinstance(data, str):
        # a lone surrogate survives to fail UTF-8 decoding: damage at its line
        data = data.encode("utf-8", "surrogatepass")
    blocks: list[Block] = []
    damaged = None
    for i, line in enumerate(line for line in data.split(b"\n") if line.strip()):
        try:
            blocks.append(_block_from_line(line))
        except (KeyError, TypeError, ValueError):  # ValueError covers decode and parse errors
            if damaged is None:
                damaged = i
            if not skip_damaged:
                break
    return blocks, damaged


def verify_dump(data: bytes | str) -> int | None:
    """Verify a ledger dump file, tolerating damaged lines.

    Parsing stops at the first damaged line, and :meth:`Ledger.verify_chain`
    on the blocks before it gives the verdict: the earliest corrupt block, or
    the damaged line itself when those verify.  An empty dump is corrupt at
    block 0.
    """
    return Ledger.from_blocks(*_parse_dump(data, skip_damaged=False)).verify_chain()


def load_ledger_lenient(data: bytes | str) -> Ledger:
    """Load a possibly damaged dump for inspection, without verifying it.

    Damaged lines (see :func:`_parse_dump`; a line not canonical around its
    payload is damage) are dropped from the returned chain, and its
    ``damaged`` attribute is the index of the first of them (None if every
    line loaded).  Payload bytes are the file's own bytes.
    :meth:`Ledger.verify_chain` on the result checks integrity and reports
    that damage, exactly as :func:`verify_dump` does on the same bytes.
    """
    return Ledger.from_blocks(*_parse_dump(data, skip_damaged=True))


def load_ledger(data: bytes | str) -> Ledger:
    """Reconstruct a ledger from a dump, payload bytes being the file's own.

    Structural validity only: a damaged line, a non-canonical one included,
    raises :class:`NotationParseError` naming its block.  Run
    :meth:`Ledger.verify_chain` to check integrity."""
    blocks, damaged = _parse_dump(data, skip_damaged=False)
    if damaged is not None:
        raise NotationParseError(f"block {damaged} of the ledger dump does not parse")
    if not blocks:
        raise NotationParseError("ledger dump is empty")
    return Ledger.from_blocks(blocks)
