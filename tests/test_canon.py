"""Canonical notation: emission rules, parsing, and round-trip identities."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from bxhf.canon import (
    CanonicalizationError,
    NotationParseError,
    canonicalize,
    dumps,
    loads,
    parse,
)
from bxhf.scenario import dump_scenario, parse_scenario


def test_scalar_forms():
    assert dumps(True) == "true"
    assert dumps(False) == "false"
    assert dumps(0) == "0"
    assert dumps(-17) == "-17"
    assert dumps("") == '""'
    assert dumps("abc") == '"abc"'
    assert dumps(b"\x00\xff") == 'b"00ff"'
    assert dumps(b"") == 'b""'


def test_float_is_hex_of_ieee_bits():
    # struct.pack('>d', 1.0).hex() == '3ff0000000000000'
    assert dumps(1.0) == 'f"3ff0000000000000"'
    assert dumps(-2.0) == 'f"c000000000000000"'
    assert dumps(0.0) == 'f"0000000000000000"'
    for v in (0.1, -1.5, 3.141592653589793, 1e300, 5e-324, -0.0):
        assert dumps(v) == f'f"{struct.pack(">d", v).hex()}"'


def test_nonfinite_floats_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(CanonicalizationError):
            dumps(bad)
    for bits in ("7ff0000000000000", "fff0000000000000", "7ff8000000000000"):
        with pytest.raises(NotationParseError, match="non-finite"):
            parse(f'f"{bits}"')


def test_map_keys_sorted_and_compact():
    value = {"b": 2, "a": 1, "c": [1, 2]}
    assert dumps(value) == '{"a":1,"b":2,"c":[1,2]}'
    assert canonicalize(value) == b'{"a":1,"b":2,"c":[1,2]}'


def test_string_escapes_round_trip():
    tricky = 'quote " backslash \\ newline \n tab \t cr \r bell \x07'
    assert parse(dumps(tricky)) == tricky


def test_unsupported_types_rejected():
    with pytest.raises(CanonicalizationError):
        dumps({1: "non-string key"})
    with pytest.raises(CanonicalizationError):
        dumps({"x": object()})
    with pytest.raises(CanonicalizationError):
        dumps(None)


def test_parse_accepts_whitespace():
    # scenario files (JSON) may be spaced; canonical notation may not
    text = ' { "a" : [ 1 , true , "ff" ] ,\n "b" : 1.0 } '
    assert parse_scenario(text) == {"a": [1, True, "ff"], "b": 1.0}
    with pytest.raises(NotationParseError):
        parse(' { "a" : [ 1 , true , b"ff" ] ,\n "b" : f"3ff0000000000000" } ')


def test_parse_accepts_decimal_floats():
    assert parse_scenario("0.5") == 0.5
    assert parse_scenario("-2.75") == -2.75
    assert parse_scenario("1e3") == 1000.0
    assert parse_scenario("2.5e-2") == 0.025
    assert isinstance(parse_scenario("1.0"), float)
    # a bare integer literal stays an int
    assert isinstance(parse_scenario("10"), int)
    for decimal in ("0.5", "1e3", "1.0"):
        with pytest.raises(NotationParseError):
            parse(decimal)


def test_parse_rejects_trailing_and_malformed():
    for bad in ("", "{", "[1,]", '{"a":1,}', "1 2", 'f"zz"', 'b"0"', '"\\q"', "tru"):
        with pytest.raises(NotationParseError):
            parse(bad)


def test_load_dump_byte_identity():
    value = {
        "ints": [0, -5, 2**40],
        "floats": [0.5, -1.25e-7, 0.0],
        "mixed": {"s": "x", "b": b"\x01\x02", "flag": False},
    }
    data = canonicalize(value)
    assert canonicalize(loads(data)) == data


def test_bytes_that_are_not_utf8_are_a_parse_error():
    for bad in (b'"\xff"', b'{"k":"\xc3"}', b"[1,\x80]"):
        with pytest.raises(NotationParseError, match="UTF-8"):
            loads(bad)


def test_round_trip_random_values():
    rng = np.random.default_rng(2024)

    def rand_value(depth: int):
        choice = rng.integers(0, 6 if depth < 3 else 4)
        if choice == 0:
            return int(rng.integers(-(2**50), 2**50))
        if choice == 1:
            return float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
        if choice == 2:
            return bool(rng.integers(0, 2))
        if choice == 3:
            n = int(rng.integers(0, 12))
            return bytes(rng.integers(0, 256, size=n, dtype=np.uint8)) if rng.integers(0, 2) else "".join(
                chr(rng.integers(32, 0x2FF)) for _ in range(n)
            )
        if choice == 4:
            return [rand_value(depth + 1) for _ in range(rng.integers(0, 4))]
        return {f"k{i}": rand_value(depth + 1) for i in range(rng.integers(0, 4))}

    for _ in range(300):
        value = rand_value(0)
        text = dumps(value)
        assert parse(text) == value
        assert dumps(parse(text)) == text


def test_dumps_pretty_parses_back_to_same_value():
    # the layout `bxhf init` and `save_world` write scenario files in
    value = {
        "name": "demo",
        "weights": [0.25, -1.5, 1e-9],
        "nested": {"flag": True, "ids": ["a", "b"]},
        "empty_list": [],
        "empty_map": {},
    }
    pretty = dump_scenario(value)
    assert parse_scenario(pretty) == value
    assert "\n" in pretty
    # decimal float literals, not bit patterns, for human eyes
    assert "0.25" in pretty and 'f"' not in pretty


def test_pretty_floats_round_trip_exactly():
    rng = np.random.default_rng(7)
    values = [float(v) for v in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200)]
    values += [-0.0, 5e-324, 1.7976931348623157e308]
    again = parse_scenario(dump_scenario(values))
    assert all(math.copysign(1, a) == math.copysign(1, b) and a == b for a, b in zip(values, again))


def test_canonical_ordering_is_total_and_deterministic():
    a = dumps({"z": 1, "a": {"y": 2, "b": 3}})
    b = dumps({"a": {"b": 3, "y": 2}, "z": 1})
    assert a == b == '{"a":{"b":3,"y":2},"z":1}'
