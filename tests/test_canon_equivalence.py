"""The strict parser against the per-character parser of the first codec.

That parser, and its string emitter, are kept here as the oracle.  It read
canonical notation leniently: whitespace, decimal floats, upper-case hex, any
\\u escape, duplicate keys.  The strict parser must accept a text exactly when
the oracle parses it *and* re-canonicalizes its value to the same text, and
then return the same value; every other text raises
:class:`NotationParseError` naming an offset.  The emitter must write the same
bytes as the per-character one.  A bad ``\\u`` escape, a float bit pattern
that is not 8 bytes and nesting deeper than ``MAX_DEPTH`` were not named
errors in the oracle (it overflowed the interpreter's stack on the last).
"""

from __future__ import annotations

import random
import re
import struct

import pytest

from bxhf.canon import (
    MAX_DEPTH,
    CanonicalizationError,
    NotationParseError,
    canonicalize,
    dumps,
    loads,
    parse,
)

# --- the reference: the per-character parser and string emitter -------------


class _ReferenceParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> NotationParseError:
        return NotationParseError(f"{message} at offset {self.pos}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        if self.pos >= len(self.text):
            raise self.error("unexpected end of input")
        return self.text[self.pos]

    def expect(self, ch: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def value(self):
        self.skip_ws()
        ch = self.peek()
        if ch in "{[":
            return self.container(ch)
        if ch == '"':
            return self.string()
        if self.text.startswith('f"', self.pos) or self.text.startswith('b"', self.pos):
            return self.hex_token(ch)
        for word, result in (("true", True), ("false", False)):
            if self.text.startswith(word, self.pos):
                self.pos += len(word)
                return result
        if ch == "-" or ch.isdigit():
            return self.number()
        raise self.error(f"unexpected character {ch!r}")

    def container(self, opener: str):
        closer, what = ("}", "map") if opener == "{" else ("]", "list")
        result = {} if opener == "{" else []
        self.pos += 1
        self.skip_ws()
        if self.peek() == closer:
            self.pos += 1
            return result
        while True:
            if opener == "{":
                self.skip_ws()
                key = self.string()
                self.skip_ws()
                self.expect(":")
                result[key] = self.value()
            else:
                result.append(self.value())
            self.skip_ws()
            ch = self.peek()
            self.pos += 1
            if ch == closer:
                return result
            if ch != ",":
                raise self.error(f"expected ',' or '{closer}' in {what}")

    def string(self) -> str:
        self.expect('"')
        chars = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(chars)
            if ch != "\\":
                chars.append(ch)
                continue
            esc = self.text[self.pos : self.pos + 1]
            self.pos += 1
            if esc in ("n", "t", "r", '"', "\\"):
                chars.append({"n": "\n", "t": "\t", "r": "\r"}.get(esc, esc))
            elif esc == "u":
                code = self.text[self.pos : self.pos + 4]
                if len(code) < 4:
                    raise self.error("truncated \\u escape")
                chars.append(chr(int(code, 16)))  # may raise a bare ValueError
                self.pos += 4
            else:
                raise self.error(f"invalid escape \\{esc}")

    def hex_token(self, kind: str):
        self.pos += 2
        if kind == "f":
            digits = self.text[self.pos : self.pos + 16]
            if len(digits) < 16:
                raise self.error("truncated float bit pattern")
            try:
                raw = bytes.fromhex(digits)
            except ValueError:
                raise self.error(f"invalid float bit pattern {digits!r}") from None
            self.pos += 16
            self.expect('"')
            return struct.unpack(">d", raw)[0]  # may raise struct.error
        end = self.text.find('"', self.pos)
        if end < 0:
            raise self.error("unterminated byte string")
        try:
            raw = bytes.fromhex(self.text[self.pos : end])
        except ValueError:
            raise self.error("byte string must be lowercase hex") from None
        self.pos = end + 1
        return raw

    def number(self):
        start = self.pos
        if self.text[self.pos] == "-":
            self.pos += 1
        self.digits()
        is_float = False
        if self.text[self.pos : self.pos + 1] == ".":
            is_float = True
            self.pos += 1
            self.digits()
        if self.text[self.pos : self.pos + 1] in ("e", "E"):
            is_float = True
            self.pos += 1
            if self.text[self.pos : self.pos + 1] in ("+", "-"):
                self.pos += 1
            self.digits()
        token = self.text[start : self.pos]
        try:
            return float(token) if is_float else int(token)
        except ValueError:
            raise self.error(f"invalid number {token!r}") from None

    def digits(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1


def reference_parse(text: str):
    parser = _ReferenceParser(text)
    value = parser.value()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing content after value")
    return value


def reference_string(text: str) -> str:
    escapes = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
    out = ['"']
    for ch in text:
        out.append(escapes.get(ch) or (f"\\u{ord(ch):04x}" if ord(ch) < 0x20 else ch))
    out.append('"')
    return "".join(out)


def _outcome(parse_fn, text: str):
    """What parsing does: ``("ok", repr of the value)`` or the error raised.
    The repr tells ``1`` from ``1.0``, ``True`` and ``-0.0``, and shows key order."""
    try:
        return ("ok", repr(parse_fn(text)))
    except NotationParseError as exc:
        return ("NotationParseError", str(exc))
    except (ValueError, struct.error) as exc:
        return ("unnamed", type(exc).__name__)


# --- pinned inputs ------------------------------------------------------------

LENIENT = [
    (' { "a" : [ 1 , true , b"ff" ] ,\n "b" : f"3ff0000000000000" } ', {"a": [1, True, b"\xff"], "b": 1.0}),
    ("\t[\r\n]\n", []),
    ("0.05", 0.05),
    ("-2.75", -2.75),
    ("1e-3", 0.001),
    ("2.5E+2", 250.0),
    ("1.", 1.0),
    ("-.5", -0.5),
    ("-0", 0),
    ("007", 7),
    ("٣", 3),  # ARABIC-INDIC DIGIT THREE: str.isdigit and int() accept it
    ('"tab\there\x01\x1f\n"', "tab\there\x01\x1f\n"),
    ('"\\u00e9\\u0041\\u00E9"', "éAé"),
    ('"\\u 0041"', "\x041"),
    ('"\\n\\t\\r\\"\\\\"', '\n\t\r"\\'),
    ('b"DEADbeef"', b"\xde\xad\xbe\xef"),
    ('b"de ad"', b"\xde\xad"),
    ('f"3FF0000000000000"', 1.0),
    ('{"a":1,"b":2,"a":3}', {"a": 3, "b": 2}),
]

# The reference's message for each malformed input; the strict parser's is
# the same except where STRICT_MESSAGES says otherwise.
MALFORMED = [
    ("", "unexpected end of input at offset 0"),
    ("{", "unexpected end of input at offset 1"),
    ('{"a":', "unexpected end of input at offset 5"),
    ("[1,]", "unexpected character ']' at offset 3"),
    ('{"a":1,}', "expected '\"' at offset 7"),
    ("{1:2}", "expected '\"' at offset 1"),
    ('{"a" 1}', "expected ':' at offset 5"),
    ('{"a":1 "b":2}', "expected ',' or '}' in map at offset 8"),
    ("[1 2]", "expected ',' or ']' in list at offset 4"),
    ("1 2", "trailing content after value at offset 2"),
    ("tru", "unexpected character 't' at offset 0"),
    ("null", "unexpected character 'n' at offset 0"),
    (".5", "unexpected character '.' at offset 0"),
    ('"abc', "unterminated string at offset 4"),
    ('"\\q"', "invalid escape \\q at offset 3"),
    ('"\\', "invalid escape \\ at offset 3"),
    ('"\\u12"', "truncated \\u escape at offset 3"),
    ('f"zz"', "truncated float bit pattern at offset 2"),
    ('f"3ff00000000000zz"', "invalid float bit pattern '3ff00000000000zz' at offset 2"),
    ('f"3ff0000000000000', "expected '\"' at offset 18"),
    ('b"0"', "byte string must be lowercase hex at offset 2"),
    ('b"00', "unterminated byte string at offset 2"),
    ("-", "invalid number '-' at offset 1"),
    ("1e", "invalid number '1e' at offset 2"),
    ("1²", "invalid number '1²' at offset 2"),  # SUPERSCRIPT TWO: isdigit, not int()
]

STRICT_MESSAGES = {
    '{"a" 1}': "expected ':' at offset 4",
    '{"a":1 "b":2}': "expected ',' or '}' in map at offset 6",
    "[1 2]": "expected ',' or ']' in list at offset 2",
    "1 2": "trailing content after value at offset 1",
    "-": "invalid number at offset 0",
    "1e": "trailing content after value at offset 1",
    "1²": "trailing content after value at offset 1",
}

# Every pinned lenient input but the escapes, which are canonical text.
NOW_REJECTED = [case for case in LENIENT if canonicalize(case[1]) != case[0].encode()]

# Inputs the reference rejected with an unnamed error.
NOW_NAMED = [
    ('"\\uzzzz"', "invalid \\u escape 'zzzz' at offset 3"),
    ('"\\u-041"', "invalid \\u escape '-041' at offset 3"),
    ('f"3ff0000000 00 00"', "invalid float bit pattern '3ff0000000 00 00' at offset 2"),
]


@pytest.mark.parametrize("text, value", LENIENT)
def test_lenient_inputs_keep_their_values(text, value):
    """The oracle reads each to its value; the strict parser reads only the
    canonical text of a value, and to the same value."""
    assert _outcome(reference_parse, text) == ("ok", repr(value))
    if (text, value) not in NOW_REJECTED:
        assert _outcome(parse, text) == ("ok", repr(value))


@pytest.mark.parametrize("text, value", NOW_REJECTED)
def test_lenient_inputs_are_rejected(text, value):
    with pytest.raises(NotationParseError, match=r" at offset \d+$"):
        parse(text)


@pytest.mark.parametrize("text, message", MALFORMED)
def test_malformed_inputs_keep_their_errors(text, message):
    assert _outcome(parse, text) == ("NotationParseError", STRICT_MESSAGES.get(text, message))
    assert _outcome(reference_parse, text) == ("NotationParseError", message)


@pytest.mark.parametrize("text, message", NOW_NAMED)
def test_formerly_unnamed_errors_are_parse_errors(text, message):
    assert _outcome(reference_parse, text)[0] == "unnamed"
    assert _outcome(parse, text) == ("NotationParseError", message)


def test_nesting_limit_is_a_named_error():
    assert parse("[" * MAX_DEPTH + "]" * MAX_DEPTH) is not None
    assert parse('{"a":' * MAX_DEPTH + "1" + "}" * MAX_DEPTH) is not None
    too_deep = "[" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1)
    with pytest.raises(NotationParseError, match=f"nesting deeper than {MAX_DEPTH} at offset {MAX_DEPTH}"):
        parse(too_deep)
    with pytest.raises(NotationParseError, match="nesting deeper"):
        parse("[" * 5000 + "]" * 5000)


def test_lone_surrogate_is_a_canonicalization_error():
    for value in ("\ud800", "ok\udfffok", {"\udc00": 1}, ["x", "\ud83d\ude00"]):
        with pytest.raises(CanonicalizationError):
            canonicalize(value)
    # A code point above U+FFFF is one character and encodes normally.
    assert canonicalize("\U0001f600") == '"\U0001f600"'.encode()


# --- seeded random equivalence ------------------------------------------------

# One character of each escape class, plus plain and non-ASCII text.
TEXT_ALPHABET = ['"', "\\", "\n", "\t", "\r", "\x00", "\x07", "\x1f", "\x7f", "a", " ", "é", "中", "\U0001f600"]
TOKEN_SOUP = list(' \t\r\n\x0b"\\{}[],:0123456789-+.eEuftrbalsn') + [
    "٣", "²", "A", "é", "true", "false", 'f"', 'b"', "\\u", "\\u00e9", '"a"',
]


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(TEXT_ALPHABET) for _ in range(rng.randint(0, 8)))


def _random_value(rng: random.Random, depth: int = 0):
    choice = rng.randint(0, 7 if depth < 4 else 5)
    if choice == 0:
        return rng.randint(-(2**64), 2**64)
    if choice == 1:
        return rng.choice([0.5, -1e-300, 1e300, -0.0, 5e-324, rng.random(), rng.uniform(-1e9, 1e9)])
    if choice == 2:
        return rng.random() < 0.5
    if choice == 3:
        return _random_text(rng)
    if choice == 4:
        return bytes(rng.randrange(256) for _ in range(rng.randint(0, 6)))
    if choice == 5:
        return rng.randint(0, 9)
    if choice == 6:
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {_random_text(rng): _random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def _mutated(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(chars))
        op = rng.randint(0, 3)
        if op == 0:
            chars.insert(i, rng.choice(TOKEN_SOUP))
        elif op == 1 and chars:
            del chars[min(i, len(chars) - 1)]
        elif op == 2 and chars:
            chars[min(i, len(chars) - 1)] = rng.choice(TOKEN_SOUP)
        else:
            chars = chars[:i]
    return "".join(chars)


def test_random_values_round_trip_both_ways():
    rng = random.Random(1729)
    for _ in range(2000):
        value = _random_value(rng)
        text = dumps(value)
        assert parse(text) == value
        assert dumps(parse(text)) == text


def test_emitted_text_matches_per_character_escaping():
    rng = random.Random(31)
    for _ in range(2000):
        text = _random_text(rng)
        assert dumps(text) == reference_string(text)
        assert dumps({text: [text]}) == "{" + reference_string(text) + ":[" + reference_string(text) + "]}"


def _expected(text: str):
    """What the strict parser must do with ``text``: return the oracle's
    value when the oracle parses it and re-canonicalizes it to ``text``."""
    try:
        value = reference_parse(text)
        if canonicalize(value) == text.encode("utf-8"):
            return ("ok", repr(value))
    except (ValueError, struct.error):  # parse and canonicalization errors alike
        pass
    return ("rejected",)


def _found(data: bytes | str):
    try:
        return ("ok", repr(loads(data)))
    except NotationParseError as exc:
        assert re.search(r" at offset \d+$", str(exc)), exc
        return ("rejected",)


def _re_spaced(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        chars.insert(rng.randint(0, len(chars)), rng.choice(" \t\r\n"))
    return "".join(chars)


def _expected_bytes(data: bytes):
    try:
        return _expected(data.decode("utf-8"))
    except UnicodeDecodeError:
        return ("rejected",)


def test_parser_matches_reference_on_random_and_damaged_input():
    rng = random.Random(4242)
    damage = random.Random(4243)
    outcomes = set()
    for _ in range(4000):
        kind = rng.randint(0, 2)
        if kind == 0:
            text = dumps(_random_value(rng))
        elif kind == 1:
            text = _mutated(rng, dumps(_random_value(rng)))
        else:
            text = "".join(rng.choice(TOKEN_SOUP) for _ in range(rng.randint(0, 12)))
        for variant in (text, _re_spaced(damage, text)):
            expected = _expected(variant)
            assert _found(variant) == expected, variant
            outcomes.add(expected[0])
        data = bytearray(text.encode("utf-8"))
        if data:
            data[damage.randrange(len(data))] ^= 1 << damage.randrange(8)
            assert _found(bytes(data)) == _expected_bytes(bytes(data)), data
    assert outcomes == {"ok", "rejected"}
