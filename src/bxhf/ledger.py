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

import operator
import re
from dataclasses import dataclass, field

from .canon import CanonicalizationError, NotationParseError, canonicalize, scan
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
    "dump_lines",
    "load_ledger",
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
        if not isinstance(body["granted"], bool):
            raise TransactionValidationError("ConsentUpdate.granted must be true or false")


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
    # (payload bytes, transactions, byte offset at which each transaction's
    # element ends in them), recorded when the payload was encoded on append
    # or strictly scanned on load.  It vouches for those exact objects only.
    layout: tuple | None = field(default=None, repr=False, compare=False)


# Map keys sort ``actor < body < kind < logical_time < tx_id``, so a
# transaction's payload element is its tx-id preimage (the canonical map
# without ``tx_id``) with the closing brace replaced by ``,"tx_id":"…"}``.
_TX_KEYS = frozenset(("actor", "body", "kind", "logical_time", "tx_id"))
# an element's ``,"tx_id":"<64 hex>"}``, which stands for its preimage's ``}``
_TX_ID_SUFFIX = len(',"tx_id":""}') + 64


def _encode_transactions(txs: list[Transaction]) -> tuple[list[str], bytes, list[int]]:
    """Emit each transaction once; return the tx ids it derives, the payload
    and the offset at which each transaction's element ends in the payload.

    The payload carries the derived ids, so it equals the canonical encoding
    of the batch exactly when every stored ``tx_id`` is the derived one.
    """
    tx_ids = []
    elements = []
    ends = []
    end = 0
    for tx in txs:
        preimage = canonicalize(
            {"kind": tx.kind, "actor": tx.actor, "logical_time": tx.logical_time, "body": tx.body}
        )
        tx_id = digest(preimage)
        tx_ids.append(tx_id)
        elements.append(preimage[:-1] + b',"tx_id":"' + tx_id.encode() + b'"}')
        end += 1 + len(elements[-1])  # after the "[" or "," before it
        ends.append(end)
    return tx_ids, b"[" + b",".join(elements) + b"]", ends


def _sliced_tx_ids(payload: bytes, ends: list[int]) -> list[str]:
    """The tx ids derived from a canonical payload whose elements end at
    ``ends``: each element, its ``,"tx_id":"…"`` cut out, is its preimage."""
    tx_ids = []
    start = 1
    for end in ends:
        tx_ids.append(digest(payload[start : end - _TX_ID_SUFFIX] + b"}"))
        start = end + 1
    return tx_ids


_GENESIS_PAYLOAD = canonicalize([])


def _block_hash(index: int, prev_hash: str, payload_hash: str) -> str:
    """The digest of the canonical ``{index, payload_hash, prev_hash}`` map,
    for an integer index and hashes that need no escaping."""
    return digest(
        b'{"index":%d,"payload_hash":"%s","prev_hash":"%s"}'
        % (index, payload_hash.encode(), prev_hash.encode())
    )


def _make_block(
    index: int, prev_hash: str, txs: list[Transaction], payload: bytes, ends: list[int]
) -> Block:
    payload_hash = digest(payload)
    return Block(
        index=index,
        prev_hash=prev_hash,
        payload_hash=payload_hash,
        block_hash=_block_hash(index, prev_hash, payload_hash),
        transactions=list(txs),
        payload_bytes=payload,
        layout=(payload, tuple(txs), ends),
    )


class Ledger:
    """The hash chain: genesis plus appended blocks of validated transactions."""

    def __init__(self):
        self.blocks: list[Block] = [_make_block(0, ZERO_HASH, [], _GENESIS_PAYLOAD, [])]
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
        tx_ids, payload, ends = _encode_transactions(txs)
        floor = self.max_logical_time()
        for tx, tx_id in zip(txs, tx_ids):
            if tx.tx_id != tx_id:
                raise TransactionValidationError(f"tx_id mismatch for {tx.tx_id[:12]}")
            if tx.logical_time <= floor:
                raise LedgerOrderingError(
                    f"logical_time {tx.logical_time} not above chain maximum {floor}"
                )
            floor = tx.logical_time
        block = _make_block(len(self.blocks), self.head.block_hash, txs, payload, ends)
        self.blocks.append(block)
        return block

    def find_tx(self, tx_id: str) -> Transaction | None:
        """The first transaction on the chain with that id, verified or not."""
        return next((tx for tx in self.iter_txs() if tx.tx_id == tx_id), None)

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

        A block whose payload bytes and transactions are still the objects
        its ``layout`` was recorded with is canonical by construction (it
        was encoded on append or strictly scanned on load), so its tx ids
        are derived from slices of the bytes.  Any other block, e.g. one
        whose bytes or transactions were replaced, is encoded again.  Like
        the frozen transactions, their body maps are taken as immutable: a
        body edited in place is not seen here, and a dump never holds it.
        """
        prev_time = 0
        for i, block in enumerate(self.blocks[: self.damaged]):
            if not _is_int(block.index) or block.index != i:
                return i
            if digest(block.payload_bytes) != block.payload_hash:
                return i
            if i == 0:
                if block.prev_hash != ZERO_HASH or block.payload_bytes != _GENESIS_PAYLOAD:
                    return i
            else:
                if block.prev_hash != self.blocks[i - 1].block_hash:
                    return i
                if not block.transactions:
                    return i
            # the index is an integer and both hashes are hex, so the template is exact
            if _block_hash(block.index, block.prev_hash, block.payload_hash) != block.block_hash:
                return i
            for tx in block.transactions:
                try:
                    _validate_body(tx.kind, tx.body)
                except TransactionValidationError:
                    return i
                if not _is_int(tx.logical_time) or tx.logical_time <= prev_time:
                    return i
                prev_time = tx.logical_time
            layout = block.layout
            if (
                layout is not None
                and layout[0] is block.payload_bytes
                and len(layout[1]) == len(block.transactions)
                and all(map(operator.is_, layout[1], block.transactions))
            ):
                tx_ids = _sliced_tx_ids(block.payload_bytes, layout[2])
            else:
                try:
                    tx_ids, payload, _ = _encode_transactions(block.transactions)
                except CanonicalizationError:
                    return i
                if block.payload_bytes != payload:
                    return i
            if any(tx.tx_id != tx_id for tx, tx_id in zip(block.transactions, tx_ids)):
                return i
        return self.damaged if self.blocks else 0

    def verified(self) -> tuple[int | None, list[Transaction]]:
        """:meth:`verify_chain`'s verdict and the transactions of every block
        before the first corrupt one, in chain order: all that a reader may
        trust.  Each of them passed its schema."""
        verdict = self.verify_chain()
        return verdict, [tx for block in self.blocks[:verdict] for tx in block.transactions]

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


# A dump line is the canonical block map, whose keys sort in this order.
_HEADER_KEYS = ('{"block_hash":', ',"index":', ',"payload_hash":', ',"prev_hash":')
_PAYLOAD_KEY = ',"transactions":'


def _expect(text: str, literal: str, pos: int) -> int:
    if not text.startswith(literal, pos):
        raise NotationParseError(f"block line: expected {literal!r} at offset {pos}")
    return pos + len(literal)


def _block_from_line(line: bytes) -> Block:
    """One dump line as a block whose payload bytes are the line's own bytes.

    The line is scanned strictly (:func:`~bxhf.canon.scan`) as the canonical
    block map: the keys ``block_hash, index, payload_hash, prev_hash,
    transactions`` and no other, in that order, and each transaction a map
    of exactly its five fields.  So the payload bytes are canonical by
    construction, and the scan gives where each transaction's element ends
    in them, which :meth:`Ledger.verify_chain` uses to derive the tx ids.
    """
    text = line.decode("utf-8")
    header = []
    pos = 0
    for key in _HEADER_KEYS:
        value, pos = scan(text, _expect(text, key, pos), 1)
        header.append(value)
    start = _expect(text, _PAYLOAD_KEY, pos)  # where the payload's "[" is
    pos = _expect(text, "[", start)
    txs = []
    ends = []
    if text.startswith("]", pos):
        pos += 1
    else:
        while True:
            tv, pos = scan(text, pos, 2)
            if not isinstance(tv, dict) or tv.keys() != _TX_KEYS:
                raise NotationParseError("block line: a transaction is not its five fields")
            txs.append(
                Transaction(tv["tx_id"], tv["kind"], tv["actor"], tv["logical_time"], tv["body"])
            )
            ends.append(pos - start)
            sep = text[pos : pos + 1]
            pos += 1
            if sep == "]":
                break
            if sep != ",":
                raise NotationParseError(f"block line: expected ',' or ']' at offset {pos - 1}")
    if text[pos:] != "}":
        raise NotationParseError(f"block line: expected '}}' and the line's end at offset {pos}")
    if len(text) != len(line):  # not ASCII: text offsets are not byte offsets
        ends = _utf8_offsets(text, start, ends)
        start = len(text[:start].encode("utf-8"))
    payload = bytes(line[start:-1])
    block_hash, index, payload_hash, prev_hash = header
    return Block(
        index=index,
        prev_hash=prev_hash,
        payload_hash=payload_hash,
        block_hash=block_hash,
        transactions=txs,
        payload_bytes=payload,
        layout=(payload, tuple(txs), ends),
    )


def _utf8_offsets(text: str, start: int, offsets: list[int]) -> list[int]:
    """Text offsets relative to ``start`` as UTF-8 byte offsets."""
    out = []
    size = 0
    at = start
    for offset in offsets:
        size += len(text[at : start + offset].encode("utf-8"))
        out.append(size)
        at = start + offset
    return out


def dump_lines(data: bytes) -> list[bytes]:
    """The block lines of a ledger dump, as :func:`dump_ledger` writes it:
    each block followed by exactly one ``"\n"``.  Bytes after the last
    ``"\n"`` are a last line (a block that lost its newline)."""
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _parse_dump(data: bytes | str) -> tuple[list[Block], int | None]:
    """Parse a ledger dump, one block per line, each line exactly once.

    Every block must be followed by exactly one ``"\n"``, and nothing else
    may follow: an empty or whitespace line is damaged, and so is a last
    line with no newline.  A line that is not UTF-8 or is not exactly a
    canonical block map is damaged too, and a dump with no line is damaged
    at line 0.  Each block's payload bytes are the file's own bytes, never a
    re-encoding.  Parsing stops at the first damaged line; returns the
    blocks before it and its index (None if there is none).
    """
    if isinstance(data, str):
        # a lone surrogate survives to fail UTF-8 decoding: damage at its line
        data = data.encode("utf-8", "surrogatepass")
    lines = dump_lines(data)
    if not lines:
        return [], 0
    unterminated = len(lines) - 1 if not data.endswith(b"\n") else None
    blocks: list[Block] = []
    for i, line in enumerate(lines):
        try:
            if i == unterminated:
                raise NotationParseError(f"block {i} is not followed by a newline")
            blocks.append(_block_from_line(line))
        except ValueError:  # not UTF-8, or not a canonical block map
            return blocks, i
    return blocks, None


def load_ledger(data: bytes | str) -> Ledger:
    """The ledger a dump holds, unverified; its payload bytes are the file's own.

    Never raises for damage: the blocks before the first damaged line (see
    :func:`_parse_dump`) are loaded, and the ledger's ``damaged`` attribute
    is that line's index (None if every line loaded).
    :meth:`Ledger.verify_chain` checks integrity and reports the damage;
    :meth:`Ledger.verified` gives what a reader may trust.
    """
    return Ledger.from_blocks(*_parse_dump(data))


def verify_dump(data: bytes | str) -> int | None:
    """Verify a ledger dump file: :meth:`Ledger.verify_chain` on
    :func:`load_ledger`'s result, i.e. the earliest corrupt block, or the
    first damaged line when the blocks before it verify.  An empty dump is
    corrupt at block 0.
    """
    return load_ledger(data).verify_chain()
