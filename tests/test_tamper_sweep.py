"""Single-bit flips of a saved ledger: every one must be caught on disk.

A seeded sample of flips spread over every byte of the demo ``ledger.bx``
(newlines included) and all 8 bits, plus the flips that once slipped through
or crashed: a newline turned into a vertical tab, which ``str.splitlines``
treats as a line break, and bit-7 flips, which leave a byte that is not UTF-8.
Each must make ``verify-chain`` exit 1 and name the block whose line
(terminating newline included) holds the flip.
"""

from __future__ import annotations

import bisect
import random

import pytest

from bxhf.cli import main
from bxhf.harness import LEDGER_FILE

SAMPLED_BYTES = 32  # each flipped on all 8 bits


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep")
    scenario = base / "scenario.bx"
    out = base / "out"
    assert main(["init", "--out", str(scenario), "--profile", "demo"]) == 0
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    return (out / LEDGER_FILE).read_bytes()


def _flips(data: bytes) -> list[tuple[int, int]]:
    rng = random.Random(20250917)
    sampled = [(offset, bit) for offset in rng.sample(range(len(data)), SAMPLED_BYTES) for bit in range(8)]
    newlines = [i for i, byte in enumerate(data) if byte == 0x0A]
    vertical_tabs = [(offset, 0) for offset in newlines]  # 0x0a ^ 0x01 == 0x0b
    high_bits = [(offset, 7) for offset in rng.sample(range(len(data)), 16)]
    return sampled + vertical_tabs + high_bits


def test_every_flip_fails_verify_chain_at_its_block(ledger, tmp_path, capsys):
    assert ledger.endswith(b"\n")
    line_ends = [i for i, byte in enumerate(ledger) if byte == 0x0A]
    path = tmp_path / LEDGER_FILE
    missed = []
    for offset, bit in _flips(ledger):
        tampered = bytearray(ledger)
        tampered[offset] ^= 1 << bit
        path.write_bytes(bytes(tampered))
        capsys.readouterr()
        rc = main(["verify-chain", "--ledger", str(path)])
        out = capsys.readouterr().out
        block = bisect.bisect_left(line_ends, offset)
        if rc != 1 or out != f"corrupt at block {block}\n":
            missed.append((offset, bit, rc, out))
    assert missed == []


def test_untampered_ledger_verifies(ledger, tmp_path, capsys):
    path = tmp_path / LEDGER_FILE
    path.write_bytes(ledger)
    blocks = ledger.count(b"\n")
    assert main(["verify-chain", "--ledger", str(path)]) == 0
    assert capsys.readouterr().out == f"chain valid ({blocks} blocks)\n"
