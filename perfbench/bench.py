"""Set-up, the closed measurement loop, and the metrics of one benchmark run."""

from __future__ import annotations

import os
import platform
import random
import resource
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

import cryptography
import numpy

import workloads
from ops import Client, Flips, SavedLedger, digests, flip, stored_bytes
from tracing import Tracer, layer_metrics

# Op kind timed for each end-to-end time metric.
TIMED_KIND = {
    "run_s": "run",
    "verify_chain_s": "verify_chain",
    "score_s": "score",
    "verify_decision_s": "verify_decision",
    "audit_s": "audit",
    "detect_s": "detect",
}

# Tampered-ledger checks and audits of seeded records per cycle.  The audit
# is the shortest clean op, so it takes more samples than the others to give
# as steady a median.
DETECTS = 4
AUDITS = 3

# Scenario generation takes milliseconds, and the speed of a shared host
# swings within a second, so set-up is repeated for at least this many seconds
# (and at least 5 times) to give a steady median.
SETUP_SECONDS = 2.0


def crash_share(detects: list) -> float:
    """Share of tampered-ledger checks that raised the known decode error."""
    return sum(op.ok and op.rc is None for op in detects) / len(detects) if detects else 0.0


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.rng = random.Random(f"ops:{workload}:{seed}")
        self.tracer = Tracer() if trace else None
        self.client = Client()
        self.scenario_path = work / "scenario.json"
        self.tampered = work / "tampered.bx"
        self.world = work / "out"
        self.setup_times: list[float] = []
        self.digests: dict[str, str] | None = None
        self.digests_identical = True
        self.ledger: SavedLedger | None = None
        self.flips: Flips | None = None
        self.stored = 0
        self.broken = False
        self.cycles = {False: [], True: []}  # traced? -> [(wall of ops, op count)]

    def _check_digests(self, out_dir: Path) -> None:
        found = digests(out_dir)
        if self.digests is None:
            self.digests = found
        elif found != self.digests:
            self.digests_identical = False

    def setup(self) -> None:
        """Generate the scenario and write it out, repeatedly; the median is
        ``setup_s``.  A traced run, which does not report it, sets up once."""
        begun = time.perf_counter()
        while not self.setup_times or (
            self.tracer is None
            and (len(self.setup_times) < 5 or time.perf_counter() - begun < SETUP_SECONDS)
        ):
            start = time.perf_counter()
            self.scenario = workloads.GENERATORS[self.workload](self.seed)
            self.scenario.write(self.scenario_path)
            self.setup_times.append(time.perf_counter() - start)

    def cycle(self, traced: bool) -> None:
        """One pass of the workload's op list: ``bxhf run`` to a fresh
        directory, then the read commands on its output.  It ends early, and
        marks the run broken, if ``bxhf run`` left no world."""
        c = self.client
        c.tracer = self.tracer if traced else None
        try:
            world = self.world
            shutil.rmtree(world, ignore_errors=True)
            c.run(self.scenario, self.scenario_path, world)
            if not (world / "report.bx").exists():
                self.broken = True
                return
            self._check_digests(world)
            if self.ledger is None:
                self.ledger = SavedLedger(world / "ledger.bx")
                self.flips = Flips(self.rng, self.ledger.data)
                self.stored = stored_bytes(world)
            c.verify_chain(world / "ledger.bx", self.scenario.blocks)
            c.score(world)
            c.verify_decision(world, self.rng.choice(self.ledger.decisions))
            for _ in range(AUDITS):
                c.audit(world / "ledger.bx", self.rng.choice(self.ledger.records))
            for _ in range(DETECTS):
                offset, bit = self.flips.next()
                self.tampered.write_bytes(flip(self.ledger.data, offset, bit))
                c.detect(self.tampered, self.ledger.block_of(offset))
        finally:
            c.tracer = None

    def measure(self, seconds: float) -> None:
        """Closed loop of whole cycles for about ``seconds``.  A cycle starts
        only while the longest cycle so far still fits in the time left, so a
        run ends within ``seconds`` unless its first cycle alone is longer.  A
        traced run alternates untraced and traced cycles, starts a pair only
        while two of the longest fit, and ends after a traced one.  Every run
        makes at least one cycle (one pair if traced).
        """
        start = time.perf_counter()
        longest = 0.0
        traced = False
        per_start = 1 if self.tracer is None else 2
        while True:
            began = time.perf_counter()
            before = len(self.client.ops)
            self.cycle(traced)
            if self.broken:
                break
            ops = self.client.ops[before:]
            self.cycles[traced].append((sum(op.seconds for op in ops), len(ops)))
            now = time.perf_counter()
            longest = max(longest, now - began)
            if self.tracer is not None:
                traced = not traced
            if not traced and now - start + per_start * longest > seconds:
                break

    def report(self) -> tuple[dict, dict]:
        """The info record and the result line."""
        ops = self.client.ops
        attempted = Counter(op.kind for op in ops)
        failed = Counter(op.kind for op in ops if not op.ok)
        detects = [op for op in ops if op.kind == "detect"]
        detect = {
            "flips": len(detects),
            "detected": sum(op.ok and op.rc == 1 for op in detects),
            "crashed": sum(op.ok and op.rc is None for op in detects),
            "failed": sum(not op.ok for op in detects),
            "undetected": sum(op.rc == 0 for op in detects),  # a subset of "failed"
            "crash_share": crash_share(detects),
        }
        correct = (
            not failed
            and self.digests_identical
            and not self.broken
            and bool(self.cycles[False])
            and (self.tracer is None or bool(self.cycles[True]))
        )

        if self.tracer is None:
            metrics = self._end_to_end()
        else:
            metrics = self._per_layer()
        info = {
            "workload": self.workload,
            "seed": self.seed,
            "sheet": workloads.WORKLOADS[self.workload],
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "cryptography": cryptography.__version__,
                "nproc": len(os.sched_getaffinity(0)),
            },
            "sizes": {
                "blocks": self.scenario.blocks,
                "records": self.scenario.records,
                "permitted": self.scenario.permitted,
                "denied": self.scenario.denied,
                "ledger_bytes": len(self.ledger.data) if self.ledger else 0,
            },
            "cycles": len(self.cycles[False]) + len(self.cycles[True]),
            "digests": self.digests,
            "digests_identical": self.digests_identical,
            "ops": {kind: {"attempted": n, "failed": failed[kind]} for kind, n in attempted.items()},
            "detect": detect,
            "failures": [f"{op.kind}: {op.error}" for op in ops if not op.ok][:5],
            "op_seconds": self._spread(),
        }
        result = {
            "correct": correct,
            "attempted": len(ops),
            "failed": sum(failed.values()),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
        return info, result

    def _spread(self) -> dict[str, dict[str, float]]:
        """Sample count, minimum, quartiles and maximum of each op kind's times."""
        times: dict[str, list[float]] = {}
        for op in self.client.ops:
            times.setdefault(op.kind, []).append(op.seconds)
        out = {}
        for kind, values in times.items():
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            out[kind] = {"n": len(values), "min": min(values), "q1": q[0], "median": q[1],
                         "q3": q[2], "max": max(values)}
        return out

    def _end_to_end(self) -> dict[str, tuple[float, str]]:
        out = {"setup_s": (statistics.median(self.setup_times), "s")}
        for name, kind in TIMED_KIND.items():
            times = [op.seconds for op in self.client.ops if op.kind == kind and op.rc is not None]
            # Detection time is bimodal (a flip that breaks parsing is rejected
            # while loading, a value flip only after re-verification), so the
            # median of a few flips jumps between modes; their mean does not.
            average = statistics.mean if kind == "detect" else statistics.median
            out[name] = (average(times) if times else 0.0, "s")
        out["stored_kb"] = (self.stored / 1000, "kB")
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        return out

    def _per_layer(self) -> dict[str, tuple[float, str]]:
        traced, untraced = self.cycles[True], self.cycles[False]
        n_traced = len(traced) or 1
        out = layer_metrics(self.tracer, n_traced, sum(n for _, n in traced), self.scenario.records)
        traced_wall = sum(w for w, _ in traced) / n_traced
        untraced_wall = sum(w for w, _ in untraced) / (len(untraced) or 1)
        overhead = 100 * (traced_wall / untraced_wall - 1) if untraced_wall else 0.0
        detects = [op for op in self.client.ops if op.kind == "detect"]
        out["detect.crash_share"] = (crash_share(detects), "ratio")
        out["trace.overhead_pct"] = (overhead, "%")
        out["trace.wall_s"] = (traced_wall, "s")
        self_sum = sum(stat.self for stat in self.tracer.stats.values())
        out["trace.self_sum_s"] = (self_sum / n_traced, "s")
        return out
