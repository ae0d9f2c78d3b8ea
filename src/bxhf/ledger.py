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

from .canon import CanonicalizationError, NotationParseError, canonicalize, parse
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

# The closed schema: each kind's body fields, in canonical (sorted) order,
# and the type of each.  Writers check Python values against it
# (:func:`_validate_body`); the reader matches each type as a hole in the
# kind's byte template (:data:`_TX_TEMPLATES`).
_SCHEMA = {
    "DataRegistration": {"commitment": "hash", "institution_id": "text", "record_id": "text"},
    "ConsentUpdate": {
        "granted": "bool",
        "policy_id": "name",
        "purpose": "purpose",
        "record_scope": "name",
        "user_id": "name",
        "valid_from": "int",
        "valid_until": "int",
    },
    "AccessDecision": {
        "outcome": "outcome",
        "purpose": "purpose",
        "reason": "text",
        "record_id": "text",
        "user_id": "text",
    },
    "ModelUpdate": {"delta_digest": "hash", "node_id": "text", "round": "int"},
    "DecisionRecord": {
        "explanation_hash": "hash",
        "input_commitment": "hash",
        "model_hash": "hash",
        "prediction_hash": "hash",
        "record_ref": "text",
    },
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


def _is_name(value) -> bool:
    # what access.AccessPolicy requires of its ids, so every verified policy builds one
    return isinstance(value, str) and value != ""


_OUTCOMES = ("permit", "deny")

# type -> (check of a Python value, what the value must be)
_CHECKS = {
    "hash": (_is_hash, "a 64-hex-char hash"),
    "text": (lambda value: isinstance(value, str), "text"),
    "name": (_is_name, "non-empty text"),
    "int": (_is_int, "an integer"),
    "bool": (lambda value: isinstance(value, bool), "true or false"),
    "purpose": (PURPOSES.__contains__, f"one of {PURPOSES}"),
    "outcome": (_OUTCOMES.__contains__, f"one of {_OUTCOMES}"),
}


def _check_relations(kind: str, body: dict) -> None:
    """The schema's checks across fields, which no template can make."""
    if kind == "AccessDecision":
        if (body["outcome"] == "permit") != (body["reason"] == "granted"):
            raise TransactionValidationError("outcome=permit iff reason=granted")
    elif kind == "ConsentUpdate":
        if body["valid_from"] > body["valid_until"]:
            raise TransactionValidationError("policy interval invalid: valid_from > valid_until")


def _validate_body(kind: str, body: dict) -> None:
    schema = _SCHEMA.get(kind) if isinstance(kind, str) else None
    if schema is None:
        raise TransactionValidationError(f"unknown transaction kind {kind!r}")
    if not isinstance(body, dict):
        raise TransactionValidationError(f"{kind} body must be a map")
    if body.keys() != schema.keys():
        missing = [name for name in schema if name not in body]
        extra = [name for name in body if name not in schema]
        raise TransactionValidationError(f"{kind} body: missing fields {missing}, extra {extra}")
    for name, type_ in schema.items():
        check, what = _CHECKS[type_]
        if not check(body[name]):
            raise TransactionValidationError(f"{kind}.{name} must be {what}")
    _check_relations(kind, body)


def _validate_transaction(kind: str, actor: str, logical_time: int, body: dict) -> None:
    """A transaction's schema: its body's, text ``actor`` and a positive
    integer ``logical_time``."""
    _validate_body(kind, body)
    if not isinstance(actor, str):
        raise TransactionValidationError("actor must be text")
    if not _is_int(logical_time) or logical_time < 1:
        raise TransactionValidationError("logical_time must be a positive integer")


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
    """Validate a transaction against its kind's schema and assign its id."""
    _validate_transaction(kind, actor, logical_time, body)
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
    # or matched against the templates on load.  It vouches for those exact
    # objects only.
    layout: tuple | None = field(default=None, repr=False, compare=False)


# Map keys sort ``actor < body < kind < logical_time < tx_id``, so a
# transaction's payload element is its tx-id preimage (the canonical map
# without ``tx_id``) with the closing brace replaced by ``,"tx_id":"…"}``;
# this is the length of that ``,"tx_id":"<64 hex>"}``.
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
        """The last logical time on the chain (0 if there is none)."""
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
        for tx in txs:
            _validate_transaction(tx.kind, tx.actor, tx.logical_time, tx.body)
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

        A block is corrupt when a hash or link does not match (a non-integer
        index included), when a transaction fails its schema or is out of
        order, or when its payload bytes are not the canonical encoding of
        its transactions under their derived tx ids.  A loaded ledger is
        corrupt at its first damaged dump line when every block before that
        line verifies; a ledger with no blocks at 0.

        A block whose payload bytes and transactions are still the objects
        its ``layout`` was recorded with is vouched for: its transactions
        passed their schema and its bytes are canonical by construction (it
        was encoded on append, or matched against the templates on load).
        So its transactions are not checked again, and its tx ids are
        derived from slices of the bytes.  Any other block, e.g. one whose
        bytes or transactions were replaced, is checked and encoded again.
        Like the frozen transactions, their body maps are taken as
        immutable: a body edited in place is not seen here, and a dump never
        holds it.
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
            layout = block.layout
            vouched = (
                layout is not None
                and layout[0] is block.payload_bytes
                and len(layout[1]) == len(block.transactions)
                and all(map(operator.is_, layout[1], block.transactions))
            )
            for tx in block.transactions:
                if not vouched:
                    try:
                        _validate_transaction(tx.kind, tx.actor, tx.logical_time, tx.body)
                    except TransactionValidationError:
                        return i
                if tx.logical_time <= prev_time:
                    return i
                prev_time = tx.logical_time
            if vouched:
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
        verified here.
        """
        return [
            tx
            for tx in self.iter_txs()
            if record_id
            in (tx.body.get("record_id"), tx.body.get("record_ref"), tx.body.get("record_scope"))
        ]


def _line_prefix(block_hash: str, index: int, payload_hash: str, prev_hash: str) -> bytes:
    """A dump line up to its payload: the canonical block map's header
    fields, which sort before ``transactions``, then ``"transactions":``;
    for an integer index and hashes that need no escaping."""
    return b'{"block_hash":"%s","index":%d,"payload_hash":"%s","prev_hash":"%s","transactions":' % (
        block_hash.encode(),
        index,
        payload_hash.encode(),
        prev_hash.encode(),
    )


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


# The reader: a dump line is the canonical block map, so it is a byte
# template with typed holes.  Text is canon's string syntax, unrolled: runs
# that need no escape, joined by the escapes canonical notation writes.
_RUN = r'[^"\\\x00-\x1f\ud800-\udfff]*'
_ESCAPE = r'\\(?:["\\nrt]|u00(?:0[0-8bcef]|1[0-9a-f]))'
_TEXT = f"{_RUN}(?:{_ESCAPE}{_RUN})*"

_LINE_HEAD = re.compile(
    r'\{"block_hash":"([0-9a-f]{64})","index":(0|-?[1-9][0-9]*),'
    r'"payload_hash":"([0-9a-f]{64})","prev_hash":"([0-9a-f]{64})","transactions":\['
)


def _text(hole: str) -> str:
    """The text a string hole holds; escapes go through canon's own reader."""
    return parse('"' + hole + '"') if "\\" in hole else hole


# Each type's hole in a template.  A hole's text is its value, except that
# integers and bools are cast and text holes may hold escapes.
_HOLES = {
    "hash": '"([0-9a-f]{64})"',
    "text": f'"({_TEXT})"',
    "name": f'"((?!"){_TEXT})"',
    "int": "(0|-?[1-9][0-9]*)",
    "bool": "(true|false)",
    "purpose": '"(' + "|".join(PURPOSES) + ')"',
    "outcome": '"(' + "|".join(_OUTCOMES) + ')"',
}
_CASTS = {"int": int, "bool": "true".__eq__}


def _tx_template(kind: str, schema: dict) -> tuple:
    """A transaction element of ``kind`` from just after its body's first
    key (the body's holes, then ``kind``, ``logical_time`` and ``tx_id``),
    the body's field names, and which holes are cast or are text."""
    parts = []
    for name, type_ in schema.items():
        if parts:
            parts.append(re.escape(f',"{name}":'))
        parts.append(_HOLES[type_])
    parts.append(re.escape(f'}},"kind":"{kind}","logical_time":') + "([1-9][0-9]*)")
    parts.append(re.escape(',"tx_id":"') + '([0-9a-f]{64})"' + re.escape("}"))
    return (
        kind,
        re.compile("".join(parts)),
        tuple(schema),
        tuple((name, _CASTS[type_]) for name, type_ in schema.items() if type_ in _CASTS),
        tuple(name for name, type_ in schema.items() if type_ in ("text", "name")),
    )


# Each kind's body has its own first key, which picks the kind's template.
_TX_TEMPLATES = {next(iter(schema)): _tx_template(kind, schema) for kind, schema in _SCHEMA.items()}
_TX_HEAD = re.compile(r'\{"actor":"(' + _TEXT + r')","body":\{"(' + "|".join(_TX_TEMPLATES) + ')":')


def _block_from_line(line: bytes) -> Block:
    """One dump line as a block whose payload bytes are the line's own bytes.

    The line must fit the block header's template, and each transaction in
    it its kind's template (see :data:`_SCHEMA`), with the checks across
    fields that a template cannot make.  So the payload bytes are canonical
    and every transaction passed its schema by construction, and the
    matches give where each transaction's element ends in them, which
    :meth:`Ledger.verify_chain` uses to derive the tx ids.
    """
    text = line.decode("utf-8")
    escaped = "\\" in text  # else no text hole holds an escape
    head = _LINE_HEAD.match(text)
    if head is None:
        raise NotationParseError("block line: the header fits no template")
    pos = head.end()
    start = pos - 1  # where the payload's "[" is
    txs = []
    ends = []
    if text.startswith("]", pos):
        pos += 1
    else:
        while True:
            tx_head = _TX_HEAD.match(text, pos)
            if tx_head is None:
                raise NotationParseError(f"block line: no transaction fits at offset {pos}")
            actor, first_key = tx_head.groups()
            kind, template, names, casts, texts = _TX_TEMPLATES[first_key]
            match = template.match(text, tx_head.end())
            if match is None:
                raise NotationParseError(f"block line: no {kind} fits at offset {pos}")
            holes = match.groups()
            body = dict(zip(names, holes))
            for name, cast in casts:
                body[name] = cast(body[name])
            if escaped:
                actor = _text(actor)
                for name in texts:
                    body[name] = _text(body[name])
            _check_relations(kind, body)
            txs.append(Transaction(holes[-1], kind, actor, int(holes[-2]), body))
            pos = match.end()
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
    block_hash, index, payload_hash, prev_hash = head.groups()
    return Block(
        index=int(index),
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
