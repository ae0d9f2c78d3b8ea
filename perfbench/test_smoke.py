"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import collections
import functools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import workloads  # noqa: E402
from bench import Bench, crash_share  # noqa: E402
from bxhf import cli  # noqa: E402
from ops import Client, Flips, SavedLedger, flip  # noqa: E402

TINY = {
    "consortium-run": functools.partial(workloads.consortium_run, records=12, requests=18),
    "consent-churn": functools.partial(
        workloads.consent_churn, records=8, users=5, policies=60, revocations=15, requests=60
    ),
}


def _outcomes(ledger: Path) -> list[bool]:
    lines = ledger.read_text().splitlines()
    txs = [tx for line in lines for tx in json.loads(line)["transactions"]]
    return [tx["body"]["outcome"] == "permit" for tx in txs if tx["kind"] == "AccessDecision"]


def _world(tmp_path: Path, seed: int = 1) -> tuple[workloads.Scenario, Path]:
    scenario = TINY["consortium-run"](seed)
    path = tmp_path / "scenario.json"
    scenario.write(path)
    op = Client().run(scenario, path, tmp_path / "world")
    assert op.ok, op.error
    return scenario, tmp_path / "world"


@pytest.mark.parametrize("name", sorted(TINY))
def test_oracle_agrees_with_run(name, tmp_path):
    for seed in (1, 2, 3):
        scenario = TINY[name](seed)
        path = tmp_path / f"{seed}.json"
        scenario.write(path)
        out = tmp_path / f"out-{seed}"
        op = Client().run(scenario, path, out)
        assert op.ok, op.error
        assert _outcomes(out / "ledger.bx") == workloads.consent_oracle(scenario.config)


def test_planted_flip_is_detected(tmp_path):
    _, world = _world(tmp_path)
    ledger = SavedLedger(world / "ledger.bx")
    # A hex digit of block 2's payload hash: the flip keeps the line parseable.
    line_start = ledger.line_ends[1] + 1
    offset = ledger.data.index(b'"payload_hash":"', line_start) + len(b'"payload_hash":"') + 3
    tampered = tmp_path / "tampered.bx"
    tampered.write_bytes(flip(ledger.data, offset, 0))
    op = Client().detect(tampered, ledger.block_of(offset))
    assert ledger.block_of(offset) == 2
    assert op.ok and op.rc == 1, op.error


def test_decode_crash_on_a_flip_is_counted_not_failed(tmp_path):
    _, world = _world(tmp_path)
    ledger = SavedLedger(world / "ledger.bx")
    # Bit 7 of a hex digit leaves a byte that is not valid UTF-8.
    offset = ledger.data.index(b'"payload_hash":"') + len(b'"payload_hash":"') + 3
    tampered = tmp_path / "tampered.bx"
    tampered.write_bytes(flip(ledger.data, offset, 7))
    op = Client().detect(tampered, ledger.block_of(offset))
    assert op.ok, op.error
    assert op.rc == 1 or op.error.startswith("UnicodeDecodeError:")
    assert crash_share([op]) == (1.0 if op.rc is None else 0.0)


def test_flip_of_a_newline_belongs_to_the_line_it_ends(tmp_path):
    _, world = _world(tmp_path)
    ledger = SavedLedger(world / "ledger.bx")
    assert ledger.block_of(ledger.line_ends[3]) == 3
    assert ledger.block_of(ledger.line_ends[3] + 1) == 4


def test_flips_hit_every_byte_value_in_proportion(tmp_path):
    _, world = _world(tmp_path)
    data = SavedLedger(world / "ledger.bx").data
    flips = Flips(random.Random(1), data)
    n = len(data) // 10
    hits = collections.Counter(data[flips.next()[0]] for _ in range(n))
    for value, count in collections.Counter(data).items():
        assert abs(hits[value] - n * count / len(data)) <= 3


def test_injected_crash_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.GENERATORS, "consortium-run", TINY["consortium-run"])
    real_main = cli.main

    def crashing(argv):
        if argv[0] == "score":
            raise RuntimeError("injected")
        return real_main(argv)

    monkeypatch.setattr(cli, "main", crashing)
    bench = Bench("consortium-run", 1, False, tmp_path)
    bench.setup()
    bench.measure(0)
    info, result = bench.report()
    assert info["ops"]["score"] == {"attempted": 1, "failed": 1}
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_a_seed_always_runs_the_same_ops(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.GENERATORS, "consortium-run", TINY["consortium-run"])
    seen = []
    for k in range(2):
        bench = Bench("consortium-run", 1, False, tmp_path / str(k))
        (tmp_path / str(k)).mkdir()
        bench.setup()
        bench.measure(0)
        seen.append(([(op.kind, op.ok, op.rc) for op in bench.client.ops], bench.digests))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("trace", (False, True))
def test_result_reports_every_declared_metric(trace, tmp_path, monkeypatch):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    monkeypatch.setitem(workloads.GENERATORS, "consent-churn", TINY["consent-churn"])
    bench = Bench("consent-churn", 1, trace, tmp_path)
    bench.setup()
    bench.measure(0)
    info, result = bench.report()
    assert info["digests_identical"]
    assert info["ops"]["run"]["failed"] == 0
    assert result["metrics"].keys() == {m["name"] for m in section}
    for metric in section:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
