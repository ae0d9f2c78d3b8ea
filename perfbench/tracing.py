"""Per-layer spans recorded from outside the program.

While installed, the tracer replaces every public function of the ten bxhf
layers, and a few named methods, with a timing wrapper.  The wrapper is bound
wherever the original is bound: on its defining module, on every module that
imported it by name, and on the package.  Each span adds its duration to its
parent's child time, so a function's self time is its duration minus the time
of the wrapped calls it made; time in private helpers, numpy and the
cryptography library counts as self time of the nearest wrapped caller.
Uninstalling restores every original binding.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import statistics
import time

import bxhf

LAYERS = (
    "canon",
    "crypto",
    "ledger",
    "access",
    "learning",
    "explain",
    "trust",
    "scenario",
    "harness",
    "cli",
)

# Methods traced besides every public module-level function.
METHODS = {
    "ledger": {"Ledger": ("append_block", "verify_chain", "audit_trail", "find_tx", "count_kind")},
    "access": {"ConsentRegistry": ("evaluate", "apply", "effective")},
    "learning": {"LinearModel": ("param_hash",), "WeightDelta": ("digest",)},
    "explain": {"Explanation": ("digest",)},
    "harness": {"WorldState": ("record_table", "pooled_dataset")},
}

# Spans whose per-call durations are kept for percentiles.
KEEP_DURATIONS = {
    "ledger.Ledger.append_block",
    "access.evaluate_access",
    "access.gated_fetch",
    "harness.verify_decision",
}


class Stat:
    __slots__ = ("calls", "incl", "self", "units", "hits", "durations", "results")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.units = 0  # bytes emitted or parsed, blocks verified, policies scanned
        self.hits = 0  # permits among access evaluations
        self.durations: list[float] = []
        self.results: set = set()


def _note(name: str, stat: Stat, args, result) -> None:
    """Counts measured where the work happens, for rates and waste ratios."""
    if name in ("canon.dumps", "canon.dumps_pretty"):
        stat.units += len(result)
    elif name == "canon.parse":
        stat.units += len(args[0])
    elif name == "ledger.Ledger.verify_chain":
        stat.units += len(args[0].blocks) if result is None else result + 1
    elif name == "access.evaluate_access":
        stat.units += len(args[0])
        stat.hits += bool(result[0])
    elif name == "learning.LinearModel.param_hash":
        stat.results.add(result)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.file_chars = 0
        self._stack: list[float] = []
        self._bindings: list[tuple[object, str, object, object]] | None = None

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _wrap(self, name: str, fn):
        stat = self.stat(name)
        stack = self._stack
        keep = name in KEEP_DURATIONS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.incl += elapsed
                stat.self += elapsed - child
                if keep:
                    stat.durations.append(elapsed)
            _note(name, stat, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """Every (owner, attribute, original, replacement) binding to swap."""
        plan = []
        modules = {layer: importlib.import_module(f"bxhf.{layer}") for layer in LAYERS}
        namespaces = [*modules.values(), bxhf]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for namespace in namespaces:
                    for bound_as, value in vars(namespace).items():
                        if value is fn:
                            plan.append((namespace, bound_as, fn, traced))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = vars(cls)[method]
                    name = f"{layer}.{cls_name}.{method}"
                    if isinstance(original, property):
                        traced = property(self._wrap(name, original.fget))
                    else:
                        traced = self._wrap(name, original)
                    plan.append((cls, method, original, traced))
        for method in ("read_text", "read_bytes"):
            original = vars(pathlib.Path)[method]
            plan.append((pathlib.Path, method, original, self._count_reads(original)))
        return plan

    def _count_reads(self, read):
        def counted(path, *args, **kwargs):
            data = read(path, *args, **kwargs)
            self.file_chars += len(data)
            return data

        return counted

    def __enter__(self) -> "Tracer":
        if self._bindings is None:
            self._bindings = self._plan()
        for owner, attr, _, traced in self._bindings:
            setattr(owner, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)


def _group(tracer: Tracer, *names: str) -> Stat:
    total = Stat()
    for name in names:
        stat = tracer.stats.get(name)
        if stat is None:
            continue
        total.calls += stat.calls
        total.incl += stat.incl
        total.self += stat.self
        total.units += stat.units
        total.hits += stat.hits
        total.durations += stat.durations
        total.results |= stat.results
    return total


def _percentile_us(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cycles: int, ops: int, records: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as ``name -> (value, unit)``.

    Counts and times are per cycle (one pass of the workload's op list);
    rates, ratios and percentiles are over the whole traced run.
    """
    g = lambda *names: _group(tracer, *names)  # noqa: E731
    per = 1.0 / cycles
    out: dict[str, tuple[float, str]] = {}

    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.self_s"] = (
            per * sum(s.self for n, s in tracer.stats.items() if n.startswith(prefix)),
            "s",
        )

    emit = g("canon.canonicalize", "canon.dumps", "canon.dumps_pretty")
    parse = g("canon.parse", "canon.loads")
    out["canon.emit.calls"] = (per * emit.calls, "count")
    out["canon.emit.self_s"] = (per * emit.self, "s")
    out["canon.emit.mb_per_s"] = (_ratio(emit.units / 1e6, emit.self), "MB/s")
    out["canon.parse.calls"] = (per * parse.calls, "count")
    out["canon.parse.self_s"] = (per * parse.self, "s")
    out["canon.parse.mb_per_s"] = (_ratio(parse.units / 1e6, parse.self), "MB/s")
    out["canon.parse.bytes_per_file_byte"] = (_ratio(parse.units, tracer.file_chars), "ratio")

    for short, names in (
        ("digest", ("crypto.digest",)),
        ("seal", ("crypto.seal",)),
        ("unseal", ("crypto.unseal",)),
    ):
        stat = g(*names)
        out[f"crypto.{short}.calls"] = (per * stat.calls, "count")
        out[f"crypto.{short}.self_s"] = (per * stat.self, "s")
    out["crypto.unseal.per_record"] = (per * _ratio(g("crypto.unseal").calls, records), "ratio")

    build = g("ledger.build_transaction")
    append = g("ledger.Ledger.append_block")
    verify = g("ledger.Ledger.verify_chain")
    out["ledger.build_transaction.calls"] = (per * build.calls, "count")
    out["ledger.build_transaction.self_s"] = (per * build.self, "s")
    out["ledger.append_block.calls"] = (per * append.calls, "count")
    out["ledger.append_block.self_s"] = (per * append.self, "s")
    out["ledger.append_block.p50_us"] = (_percentile_us(append.durations, 50), "us")
    out["ledger.append_block.p99_us"] = (_percentile_us(append.durations, 99), "us")
    out["ledger.verify_chain.calls"] = (per * verify.calls, "count")
    out["ledger.verify_chain.incl_s"] = (per * verify.incl, "s")
    out["ledger.verify_chain.blocks_per_s"] = (_ratio(verify.units, verify.incl), "1/s")
    out["ledger.verify_chain.calls_per_op"] = (_ratio(verify.calls, ops), "ratio")
    out["ledger.verify_dump.incl_s"] = (per * g("ledger.verify_dump").incl, "s")
    out["ledger.load.incl_s"] = (per * g("ledger.load_ledger", "ledger.load_ledger_lenient").incl, "s")
    out["ledger.audit_trail.incl_s"] = (per * g("ledger.Ledger.audit_trail").incl, "s")

    evaluate = g("access.evaluate_access")
    fetch = g("access.gated_fetch")
    consent = g("access.update_consent")
    out["access.evaluate.calls"] = (per * evaluate.calls, "count")
    out["access.evaluate.self_s"] = (per * evaluate.self, "s")
    out["access.evaluate.policies_per_call"] = (_ratio(evaluate.units, evaluate.calls), "count")
    out["access.evaluate.p50_us"] = (_percentile_us(evaluate.durations, 50), "us")
    out["access.evaluate.p99_us"] = (_percentile_us(evaluate.durations, 99), "us")
    out["access.gated_fetch.p50_us"] = (_percentile_us(fetch.durations, 50), "us")
    out["access.gated_fetch.p99_us"] = (_percentile_us(fetch.durations, 99), "us")
    out["access.update_consent.calls"] = (per * consent.calls, "count")
    out["access.update_consent.self_s"] = (per * consent.self, "s")
    out["access.permit_ratio"] = (_ratio(evaluate.hits, evaluate.calls), "ratio")

    local = g("learning.local_update")
    param = g("learning.LinearModel.param_hash")
    # Inclusive: local_update's own body is trivial, the training it runs is the control.
    out["learning.local_update.calls"] = (per * local.calls, "count")
    out["learning.local_update.incl_s"] = (per * local.incl, "s")
    out["learning.param_hash.calls"] = (per * param.calls, "count")
    # Runs are deterministic, so every cycle hashes the same distinct models.
    out["learning.param_hash.per_model"] = (per * _ratio(param.calls, len(param.results)), "ratio")

    explain = g("explain.explain_linear")
    out["explain.explain_linear.calls"] = (per * explain.calls, "count")
    out["explain.explain_linear.self_s"] = (per * explain.self, "s")
    out["explain.plausibility_penalty.self_s"] = (per * g("explain.plausibility_penalty").self, "s")

    out["trust.security_score.incl_s"] = (per * g("trust.security_score").incl, "s")
    out["trust.trust_objective.incl_s"] = (per * g("trust.trust_objective").incl, "s")
    out["trust.verify_record.calls"] = (per * g("trust.verify_record").calls, "count")

    out["scenario.validate_config.self_s"] = (per * g("scenario.validate_config").self, "s")
    out["scenario.generate_records.self_s"] = (per * g("scenario.generate_records").self, "s")
    out["scenario.load_config.incl_s"] = (per * g("scenario.load_config").incl, "s")

    for stage in ("build_scenario", "run_workflow", "save_world", "load_world", "score_world"):
        out[f"harness.{stage}.incl_s"] = (per * g(f"harness.{stage}").incl, "s")
    decide = g("harness.verify_decision")
    out["harness.verify_decision.calls"] = (per * decide.calls, "count")
    out["harness.verify_decision.p50_us"] = (_percentile_us(decide.durations, 50), "us")
    out["harness.verify_decision.p99_us"] = (_percentile_us(decide.durations, 99), "us")
    out["harness.record_table.builds"] = (per * g("harness.WorldState.record_table").calls, "count")

    out["cli.main.self_s"] = (per * g("cli.main").self, "s")
    return out
