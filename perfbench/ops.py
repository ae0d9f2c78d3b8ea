"""One op = one ``bxhf`` command run in-process through ``bxhf.cli.main``.

Each op is timed on its own and checked against what the benchmark expects.
An op fails on a wrong exit code, a wrong verdict or an uncaught exception.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

from bxhf import cli

OUTPUT_FILES = ("ledger.bx", "world.bx", "report.bx")
GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass
class Op:
    kind: str
    ok: bool
    seconds: float
    rc: int | None
    stdout: str
    error: str = ""


def _expect(op: Op, condition: bool, why: str) -> Op:
    if op.ok and not condition:
        op.ok = False
        op.error = op.error or why
    return op


class Client:
    """The benchmark's single client.  It keeps every op it ran; with a
    tracer, each command runs with the tracer installed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[Op] = []

    def call(self, kind: str, argv: list[str]) -> Op:
        """Run one command; garbage is collected before the timed interval."""
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with self.tracer or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except Exception as exc:  # a traceback is a failed op, not a benchmark crash
                op = Op(kind, False, time.perf_counter() - start, None, out.getvalue(),
                        f"{type(exc).__name__}: {exc}")
            else:
                op = Op(kind, True, time.perf_counter() - start, rc, out.getvalue(), err.getvalue())
        self.ops.append(op)
        return op

    def run(self, scenario, scenario_path: Path, out_dir: Path) -> Op:
        """``bxhf run``: block count, the oracle's permits and denials, a
        perfect security score and no validation mismatches."""
        op = self.call("run", ["run", "--scenario", str(scenario_path), "--out", str(out_dir)])
        expected = (
            f"blocks={scenario.blocks} records={scenario.records}"
            f" permitted={scenario.permitted} denied={scenario.denied}"
        )
        lines = op.stdout.splitlines()
        return _expect(
            op,
            op.rc == 0
            and len(lines) == 3
            and lines[1] == expected
            and lines[2].startswith("security=1.000000 ")
            and "mismatch" not in op.error,
            f"run reported {lines[1:]!r}, expected {expected!r}",
        )

    def verify_chain(self, ledger: Path, blocks: int) -> Op:
        op = self.call("verify_chain", ["verify-chain", "--ledger", str(ledger)])
        return _expect(
            op, op.rc == 0 and op.stdout == f"chain valid ({blocks} blocks)\n", repr(op.stdout)
        )

    def score(self, world: Path) -> Op:
        op = self.call("score", ["score", "--world", str(world)])
        try:
            security = json.loads(op.stdout)["security"]
        except (ValueError, KeyError):
            return _expect(op, False, "score output does not parse")
        parts = ("integrity", "provenance", "auditability")
        clean = all(security[part] == 1.0 for part in parts)
        return _expect(op, op.rc == 0 and clean, f"score components {security}")

    def verify_decision(self, world: Path, tx_id: str) -> Op:
        op = self.call(
            "verify_decision", ["verify-decision", "--world", str(world), "--decision", tx_id]
        )
        return _expect(op, op.rc == 0 and op.stdout == "valid\n", repr(op.stdout))

    def audit(self, ledger: Path, record_id: str) -> Op:
        op = self.call("audit", ["audit", "--ledger", str(ledger), "--record", record_id])
        try:
            first = json.loads(op.stdout.splitlines()[0])
        except (ValueError, IndexError):
            return _expect(op, False, "audit output does not parse")
        return _expect(
            op,
            op.rc == 0
            and first["kind"] == "DataRegistration"
            and first["body"]["record_id"] == record_id,
            f"audit trail starts with {first.get('kind')}",
        )

    def detect(self, tampered: Path, block: int) -> Op:
        """``verify-chain`` on a ledger with one flipped bit must exit 1 and
        name the block whose line (terminating newline included) holds the flip.

        One known defect passes the check: ``verify-chain`` reads the ledger
        as text, so a flip that leaves a byte invalid UTF-8 raises
        ``UnicodeDecodeError`` instead of exiting 1.  The tampered ledger is
        still not accepted, so the op does not fail; it is counted as crashed
        and its share is reported as ``detect.crash_share``.
        """
        op = self.call("detect", ["verify-chain", "--ledger", str(tampered)])
        if op.rc is None and op.error.startswith("UnicodeDecodeError:"):
            op.ok = True
            return op
        return _expect(
            op,
            op.rc == 1 and op.stdout == f"corrupt at block {block}\n",
            f"block {block}: rc={op.rc} {op.stdout!r}",
        )


class SavedLedger:
    """What the benchmark reads from a saved ledger, parsed as JSON (ledger
    lines hold no floats or byte strings), without bxhf code."""

    def __init__(self, path: Path):
        self.data = path.read_bytes()
        self.line_ends = [i for i, b in enumerate(self.data) if b == 0x0A]
        txs = [tx for line in self.data.splitlines() for tx in json.loads(line)["transactions"]]
        self.decisions = [tx["tx_id"] for tx in txs if tx["kind"] == "DecisionRecord"]
        self.records = [tx["body"]["record_id"] for tx in txs if tx["kind"] == "DataRegistration"]

    def block_of(self, offset: int) -> int:
        return bisect.bisect_left(self.line_ends, offset)


class Flips:
    """Single-bit flips spread evenly over every bit of every byte of a file.

    The time to reject a flip depends mostly on the byte it hits and the bit
    flipped: a flip that breaks punctuation stops the parser where it lies, a
    flip in a hash or a name is found only by re-verification.  So the bytes
    are put in order of their value, and of their offset among equal values,
    and the k-th flip hits the byte at index ``floor(frac(u0 + k * g) * size)``
    of that order, with ``u0`` drawn from the seed and ``g`` the golden ratio,
    and flips bit ``bits[k % 8]`` of it, with ``bits`` a seeded order of all
    eight.  Each bit then takes its own evenly spread sequence of bytes, so any
    prefix hits every (byte value, bit) pair in proportion to its count, spread
    over the file, which keeps the mean time steady from seed to seed.  Each
    flip is uniform over all bytes (newlines included) and all bits.
    """

    def __init__(self, rng, data: bytes):
        self.u = rng.random()
        self.bits = rng.sample(range(8), 8)
        self.k = 0
        self.data = numpy.frombuffer(data, dtype=numpy.uint8)
        self.counts = numpy.bincount(self.data, minlength=256)
        self.ends = numpy.cumsum(self.counts)

    def next(self) -> tuple[int, int]:
        self.u = (self.u + GOLDEN) % 1.0
        bit = self.bits[self.k % 8]
        self.k += 1
        index = int(self.u * len(self.data))
        value = int(numpy.searchsorted(self.ends, index, side="right"))
        nth = index - int(self.ends[value] - self.counts[value])
        return int(numpy.flatnonzero(self.data == value)[nth]), bit


def flip(data: bytes, offset: int, bit: int) -> bytes:
    out = bytearray(data)
    out[offset] ^= 1 << bit
    return bytes(out)


def digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUT_FILES
    }


def stored_bytes(out_dir: Path) -> int:
    return sum((out_dir / name).stat().st_size for name in OUTPUT_FILES)
