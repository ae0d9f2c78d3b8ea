"""Canonical object notation: a deterministic byte encoding for structured values.

Every hash in the system is computed over this encoding, so it has to be
bit-exact and independent of insertion order, locale, or float formatting:

* map keys are emitted in lexicographic (code point) order,
* no insignificant whitespace,
* floats are emitted as the 16 lowercase hex digits of their IEEE-754
  binary64 big-endian bit pattern, wrapped in ``f"..."``,
* byte strings are emitted as lowercase hex wrapped in ``b"..."``,
* in text, ``"``, ``\\``, newline, tab and carriage return are escaped as
  ``\\"``, ``\\\\``, ``\\n``, ``\\t``, ``\\r``; other code points below U+0020 as
  ``\\u00xx``; everything else is emitted as itself.  Lone surrogates have
  no UTF-8 encoding and raise :class:`CanonicalizationError`.

The parser accepts the strict form plus two input conveniences: whitespace
between tokens, and ordinary decimal float literals (``0.05``, ``1e-3``),
which makes the same notation usable for hand-written scenario config files.
Serializing a parsed value reproduces a strictly canonical document, so
canonical files round-trip byte-identically through load -> dump.

The accepted grammar is otherwise lenient, and kept as it is until a strict
mode exists: raw control characters inside strings, ``\\u`` escapes read by
``int(..., 16)`` (so ``"\\u 0041"`` is ``\\x04`` then ``1``), uppercase hex and
whitespace inside ``b"..."`` and ``f"..."``, ``-0``, leading zeros, digits
that ``str.isdigit`` accepts, and duplicate map keys (the last one wins).

Both directions do their per-character work in compiled regexes: a string
with nothing to escape is emitted as one slice, and the parser takes runs of
unescaped text, whitespace and numbers in one match each.  Only escapes and
numbers with non-ASCII digits take a per-character path.  Every malformed
input raises :class:`NotationParseError` naming its offset, including nesting
deeper than :data:`MAX_DEPTH` containers, which no bxhf file comes near.
"""

from __future__ import annotations

import math
import re
import struct

__all__ = [
    "CanonicalizationError",
    "MAX_DEPTH",
    "NotationParseError",
    "canonicalize",
    "dumps",
    "dumps_pretty",
    "loads",
    "parse",
]

# Deepest container nesting the parser accepts; ledger lines nest 4 deep.
MAX_DEPTH = 256


class CanonicalizationError(ValueError):
    """Value cannot be canonically encoded (unsupported type, non-finite real, lone surrogate)."""


class NotationParseError(ValueError):
    """Input text is not valid canonical object notation."""


_ESCAPES = {chr(code): f"\\u{code:04x}" for code in range(0x20)}
_ESCAPES.update({'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"})
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\\ud800-\udfff]')


def _escape(match: re.Match) -> str:
    ch = match.group()
    esc = _ESCAPES.get(ch)
    if esc is None:
        raise CanonicalizationError(f"lone surrogate {ch!r} has no UTF-8 encoding")
    return esc


def _emit_string(text: str, out: list[str]) -> None:
    if _NEEDS_ESCAPE.search(text) is None:
        out.append('"' + text + '"')
    else:
        out.append('"' + _NEEDS_ESCAPE.sub(_escape, text) + '"')


_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack


def _emit(value, out: list[str]) -> None:
    if isinstance(value, str):
        _emit_string(value, out)
    elif isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise CanonicalizationError(f"map keys must be text, got {type(key).__name__}")
        sep = "{"
        for key in sorted(value):
            out.append(sep)
            _emit_string(key, out)
            out.append(":")
            _emit(value[key], out)
            sep = ","
        out.append("}" if sep == "," else "{}")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, (list, tuple)):
        sep = "["
        for item in value:
            out.append(sep)
            _emit(item, out)
            sep = ","
        out.append("]" if sep == "," else "[]")
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise CanonicalizationError(f"non-finite real not canonicalizable: {value!r}")
        out.append('f"' + _pack_double(value).hex() + '"')
    elif isinstance(value, (bytes, bytearray)):
        out.append('b"' + value.hex() + '"')
    else:
        raise CanonicalizationError(f"type {type(value).__name__} is not canonicalizable")


def dumps(value) -> str:
    """Render a value in strict canonical notation."""
    out: list[str] = []
    _emit(value, out)
    return "".join(out)


def canonicalize(value) -> bytes:
    """Canonical byte encoding of a structured value (UTF-8 of :func:`dumps`)."""
    return dumps(value).encode("utf-8")


def _emit_pretty(value, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if isinstance(value, float) and math.isfinite(value):
        # Config files carry floats as decimal literals; repr round-trips.
        out.append(repr(value))
    elif isinstance(value, dict) and value:
        out.append("{\n")
        keys = sorted(value.keys())
        for i, key in enumerate(keys):
            out.append(pad)
            _emit_string(key, out)
            out.append(": ")
            _emit_pretty(value[key], out, indent, level + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(close_pad + "}")
    elif isinstance(value, (list, tuple)) and value and any(
        isinstance(item, (dict, list, tuple)) for item in value
    ):
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad)
            _emit_pretty(item, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(close_pad + "]")
    elif isinstance(value, (list, tuple)) and value:
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _emit_pretty(item, out, indent, level + 1)
        out.append("]")
    else:
        _emit(value, out)


def dumps_pretty(value, indent: int = 2) -> str:
    """Human-oriented rendering of the same notation (parses back to the same
    value; not the canonical byte form)."""
    out: list[str] = []
    _emit_pretty(value, out, indent, 0)
    out.append("\n")
    return "".join(out)


# The parser: one scan function per production, each taking the text and the
# offset to start at and returning ``(value, offset after it)``.

_WHITESPACE = " \t\r\n"
_WHITESPACE_RUN = re.compile(r"[ \t\r\n]*")
_NEXT_CHAR = re.compile(r"[ \t\r\n]*(.?)", re.DOTALL)
_PLAIN_STRING_TAIL = re.compile(r'([^"\\]*)"')
_UNESCAPED_RUN = re.compile(r'[^"\\]*')
_PLAIN_KEY = re.compile(r'[ \t\r\n]*"([^"\\]*)"[ \t\r\n]*:')
_TEXT_MEMBER = re.compile(r'[ \t\r\n]*"([^"\\]*)"[ \t\r\n]*:[ \t\r\n]*"([^"\\]*)"[ \t\r\n]*([,}])')
_NUMBER = re.compile(r"-?[0-9]*(\.[0-9]*)?([eE][-+]?[0-9]*)?")
_UNESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def _error(message: str, pos: int) -> NotationParseError:
    return NotationParseError(f"{message} at offset {pos}")


def _scan_value(s: str, pos: int, depth: int):
    try:
        ch = s[pos]
        if ch in _WHITESPACE:
            pos = _WHITESPACE_RUN.match(s, pos).end()
            ch = s[pos]
    except IndexError:
        raise _error("unexpected end of input", pos) from None
    if ch == '"':
        return _scan_string(s, pos + 1)
    if ch == "{":
        return _scan_map(s, pos + 1, depth + 1)
    if ch == "[":
        return _scan_list(s, pos + 1, depth + 1)
    if "0" <= ch <= "9" or ch == "-":
        return _scan_number(s, pos)
    if ch == "f" and s.startswith('f"', pos):
        return _scan_hex_float(s, pos + 2)
    if ch == "b" and s.startswith('b"', pos):
        return _scan_bytes(s, pos + 2)
    if ch == "t" and s.startswith("true", pos):
        return True, pos + 4
    if ch == "f" and s.startswith("false", pos):
        return False, pos + 5
    if ch.isdigit():
        return _scan_number_per_char(s, pos)
    raise _error(f"unexpected character {ch!r}", pos)


def _scan_map(s: str, pos: int, depth: int):
    if depth > MAX_DEPTH:
        raise _error(f"nesting deeper than {MAX_DEPTH}", pos - 1)
    result: dict = {}
    first = _NEXT_CHAR.match(s, pos)
    if first.group(1) == "}":
        return result, first.end()
    if not first.group(1):
        raise _error("unexpected end of input", first.end())
    while True:
        # Most members are a plain key, a plain text value and a separator.
        member = _TEXT_MEMBER.match(s, pos)
        if member is not None:
            key, result[key], ch = member.group(1, 2, 3)
            pos = member.end()
        else:
            key_match = _PLAIN_KEY.match(s, pos)
            if key_match is not None:
                key, pos = key_match.group(1), key_match.end()
            else:
                pos = _WHITESPACE_RUN.match(s, pos).end()
                if s[pos : pos + 1] != '"':
                    raise _error("expected '\"'", pos)
                key, pos = _scan_string(s, pos + 1)
                pos = _WHITESPACE_RUN.match(s, pos).end()
                if s[pos : pos + 1] != ":":
                    raise _error("expected ':'", pos)
                pos += 1
            result[key], pos = _scan_value(s, pos, depth)
            after = _NEXT_CHAR.match(s, pos)
            ch, pos = after.group(1), after.end()
        if ch == ",":
            continue
        if ch == "}":
            return result, pos
        raise _error("expected ',' or '}' in map" if ch else "unexpected end of input", pos)


def _scan_list(s: str, pos: int, depth: int):
    if depth > MAX_DEPTH:
        raise _error(f"nesting deeper than {MAX_DEPTH}", pos - 1)
    result: list = []
    first = _NEXT_CHAR.match(s, pos)
    if first.group(1) == "]":
        return result, first.end()
    if not first.group(1):
        raise _error("unexpected end of input", first.end())
    while True:
        value, pos = _scan_value(s, pos, depth)
        result.append(value)
        after = _NEXT_CHAR.match(s, pos)
        ch, pos = after.group(1), after.end()
        if ch == ",":
            continue
        if ch == "]":
            return result, pos
        raise _error("expected ',' or ']' in list" if ch else "unexpected end of input", pos)


def _scan_string(s: str, pos: int):
    """Scan the rest of a string whose opening quote ends just before ``pos``."""
    match = _PLAIN_STRING_TAIL.match(s, pos)
    if match is not None:
        return match.group(1), match.end()
    chunks: list[str] = []
    while True:
        end = _UNESCAPED_RUN.match(s, pos).end()
        chunks.append(s[pos:end])
        if end >= len(s):
            raise _error("unterminated string", end)
        pos = end + 1
        if s[end] == '"':
            return "".join(chunks), pos
        esc = s[pos : pos + 1]
        pos += 1
        if esc in _UNESCAPES:
            chunks.append(_UNESCAPES[esc])
        elif esc == "u":
            code = s[pos : pos + 4]
            if len(code) < 4:
                raise _error("truncated \\u escape", pos)
            try:
                chunks.append(chr(int(code, 16)))
            except ValueError:
                raise _error(f"invalid \\u escape {code!r}", pos) from None
            pos += 4
        else:
            raise _error(f"invalid escape \\{esc}", pos)


def _scan_hex_float(s: str, pos: int):
    digits = s[pos : pos + 16]
    if len(digits) < 16:
        raise _error("truncated float bit pattern", pos)
    try:
        raw = bytes.fromhex(digits)
    except ValueError:
        raise _error(f"invalid float bit pattern {digits!r}", pos) from None
    if s[pos + 16 : pos + 17] != '"':
        raise _error("expected '\"'", pos + 16)
    if len(raw) != 8:
        raise _error(f"invalid float bit pattern {digits!r}", pos)
    return _unpack_double(raw)[0], pos + 17


def _scan_bytes(s: str, pos: int):
    end = s.find('"', pos)
    if end < 0:
        raise _error("unterminated byte string", pos)
    try:
        raw = bytes.fromhex(s[pos:end])
    except ValueError:
        raise _error("byte string must be lowercase hex", pos) from None
    return raw, end + 1


def _number_value(token: str, is_float: bool, end: int):
    try:
        return (float(token) if is_float else int(token)), end
    except ValueError:
        raise _error(f"invalid number {token!r}", end) from None


def _scan_number(s: str, pos: int):
    match = _NUMBER.match(s, pos)
    end = match.end()
    if end < len(s) and s[end] > "\x7f" and s[end].isdigit():
        return _scan_number_per_char(s, pos)
    return _number_value(match.group(), match.lastindex is not None, end)


def _scan_number_per_char(s: str, pos: int):
    """Numbers holding non-ASCII characters that ``str.isdigit`` accepts."""
    start = pos
    if s[pos] == "-":
        pos += 1
    while pos < len(s) and s[pos].isdigit():
        pos += 1
    is_float = False
    if s[pos : pos + 1] == ".":
        is_float = True
        pos += 1
        while pos < len(s) and s[pos].isdigit():
            pos += 1
    if s[pos : pos + 1] in ("e", "E"):
        is_float = True
        pos += 1
        if s[pos : pos + 1] in ("+", "-"):
            pos += 1
        while pos < len(s) and s[pos].isdigit():
            pos += 1
    return _number_value(s[start:pos], is_float, pos)


def parse(text: str):
    """Parse canonical object notation (whitespace-insensitive on input)."""
    value, pos = _scan_value(text, 0, 0)
    pos = _WHITESPACE_RUN.match(text, pos).end()
    if pos != len(text):
        raise _error("trailing content after value", pos)
    return value


def loads(data: bytes | str):
    """Parse canonical notation from bytes or text; bytes that are not
    UTF-8 raise :class:`NotationParseError`."""
    if isinstance(data, (bytes, bytearray)):
        try:
            data = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _error("invalid UTF-8", exc.start) from None
    return parse(data)
