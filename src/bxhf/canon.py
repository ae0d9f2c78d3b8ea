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

The parser reads exactly that form and nothing else, so every value has one
accepted encoding and ``canonicalize(loads(b)) == b`` for every ``b`` that
:func:`loads` accepts.  Its grammar: one value and no whitespace anywhere;
map keys in strictly increasing code point order (so no key twice); integers
``0|-?[1-9][0-9]*`` in ASCII digits; ``true`` and ``false``; strings with no
raw character below U+0020 and no lone surrogate, whose only escapes are the
ones above, with lowercase hex in ``\\u00xx``; ``b"..."`` holding lowercase hex
of even length; and ``f"..."`` holding exactly 16 lowercase hex digits of a
finite float.  Hand-written scenario files are JSON, read by
:mod:`bxhf.scenario`.

Both directions do their per-character work in compiled regexes: a string
with nothing to escape is emitted as one slice, and the parser takes runs of
unescaped text in one match each.  Every input outside the grammar raises
:class:`NotationParseError` naming its offset, including nesting deeper than
:data:`MAX_DEPTH` containers, which no bxhf file comes near.
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


# The parser: one scan function per production, each taking the text and the
# offset to start at and returning ``(value, offset after it)``.  Each accepts
# only the form ``_emit`` writes.

_TEXT_RUN = r'[^"\\\x00-\x1f\ud800-\udfff]*'
_PLAIN_STRING_TAIL = re.compile(f'({_TEXT_RUN})"')
_UNESCAPED_RUN = re.compile(_TEXT_RUN)
_PLAIN_KEY = re.compile(f'"({_TEXT_RUN})":')
_TEXT_MEMBER = re.compile(f'"({_TEXT_RUN})":"({_TEXT_RUN})"([,}}])')
_INTEGER = re.compile(r"-?[1-9][0-9]*|0")
_UNESCAPES = {esc: ch for ch, esc in _ESCAPES.items()}


def _error(message: str, pos: int) -> NotationParseError:
    return NotationParseError(f"{message} at offset {pos}")


def _scan_value(s: str, pos: int, depth: int):
    try:
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
        return _scan_integer(s, pos)
    if ch == "f" and s.startswith('f"', pos):
        return _scan_hex_float(s, pos + 2)
    if ch == "b" and s.startswith('b"', pos):
        return _scan_bytes(s, pos + 2)
    if ch == "t" and s.startswith("true", pos):
        return True, pos + 4
    if ch == "f" and s.startswith("false", pos):
        return False, pos + 5
    raise _error(f"unexpected character {ch!r}", pos)


def _scan_map(s: str, pos: int, depth: int):
    if depth > MAX_DEPTH:
        raise _error(f"nesting deeper than {MAX_DEPTH}", pos - 1)
    result: dict = {}
    if s.startswith("}", pos):
        return result, pos + 1
    last = None
    while True:
        start = pos
        # Most members are a plain key, a plain text value and a separator.
        member = _TEXT_MEMBER.match(s, pos)
        if member is not None:
            key, value, ch = member.group(1, 2, 3)
            pos = member.end()
        else:
            key_match = _PLAIN_KEY.match(s, pos)
            if key_match is not None:
                key, pos = key_match.group(1), key_match.end()
            else:
                if not s.startswith('"', pos):
                    raise _error("expected '\"'" if pos < len(s) else "unexpected end of input", pos)
                key, pos = _scan_string(s, pos + 1)
                if not s.startswith(":", pos):
                    raise _error("expected ':'", pos)
                pos += 1
            value, pos = _scan_value(s, pos, depth)
            ch = s[pos : pos + 1]
            pos += 1
        # strictly increasing keys: sorted, and no key twice
        if last is not None and key <= last:
            raise _error(f"map key {key!r} out of order", start)
        result[key] = value
        last = key
        if ch == ",":
            continue
        if ch == "}":
            return result, pos
        raise _error("expected ',' or '}' in map" if ch else "unexpected end of input", pos - 1)


def _scan_list(s: str, pos: int, depth: int):
    if depth > MAX_DEPTH:
        raise _error(f"nesting deeper than {MAX_DEPTH}", pos - 1)
    result: list = []
    if s.startswith("]", pos):
        return result, pos + 1
    while True:
        value, pos = _scan_value(s, pos, depth)
        result.append(value)
        ch = s[pos : pos + 1]
        pos += 1
        if ch == ",":
            continue
        if ch == "]":
            return result, pos
        raise _error("expected ',' or ']' in list" if ch else "unexpected end of input", pos - 1)


def _scan_string(s: str, pos: int):
    """Scan the rest of a string whose opening quote ends just before ``pos``."""
    match = _PLAIN_STRING_TAIL.match(s, pos)
    if match is not None:
        return match.group(1), match.end()
    chunks: list[str] = []
    while True:
        end = _UNESCAPED_RUN.match(s, pos).end()
        chunks.append(s[pos:end])
        ch = s[end : end + 1]
        if ch == '"':
            return "".join(chunks), end + 1
        if ch != "\\":
            raise _error(f"invalid character {ch!r} in string" if ch else "unterminated string", end)
        esc = s[end : end + 6] if s.startswith("\\u", end) else s[end : end + 2]
        char = _UNESCAPES.get(esc)
        if char is None:
            if esc[1:2] != "u":
                message = f"invalid escape {esc}"
            elif len(esc) < 6:
                message = "truncated \\u escape"
            else:
                message = f"invalid \\u escape {esc[2:]!r}"
            raise _error(message, end + 2)
        chunks.append(char)
        pos = end + len(esc)


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
    if raw.hex() != digits:
        raise _error(f"invalid float bit pattern {digits!r}", pos)
    value = _unpack_double(raw)[0]
    if not math.isfinite(value):
        raise _error(f"non-finite float {digits!r}", pos)
    return value, pos + 17


def _scan_bytes(s: str, pos: int):
    end = s.find('"', pos)
    if end < 0:
        raise _error("unterminated byte string", pos)
    digits = s[pos:end]
    try:
        raw = bytes.fromhex(digits)
    except ValueError:
        raw = None
    if raw is None or raw.hex() != digits:
        raise _error("byte string must be lowercase hex", pos)
    return raw, end + 1


def _scan_integer(s: str, pos: int):
    match = _INTEGER.match(s, pos)
    if match is None:
        raise _error("invalid number", pos)
    try:
        return int(match.group()), match.end()
    except ValueError:  # more digits than int() converts
        raise _error("integer too long", pos) from None


def parse(text: str):
    """Parse text in strict canonical notation: exactly what :func:`dumps` writes."""
    value, pos = _scan_value(text, 0, 0)
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
