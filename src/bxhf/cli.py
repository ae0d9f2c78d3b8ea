"""Command-line surface: scenario runs, chain verification, audits, scoring.

Exit codes: 0 success / verification passed; 1 verification failure or
corruption detected; 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import canon, harness
from .access import IntegrityAlarmError
from .canon import CanonicalizationError, NotationParseError
from .ledger import dump_lines, load_ledger, verify_dump
from .scenario import (
    ConfigError,
    demo_profile,
    dump_scenario,
    parse_scenario,
    rare_disease_profile,
    validate_config,
)

PROFILES = {"demo": demo_profile, "rare-disease": rare_disease_profile}


def _cmd_init(args) -> int:
    value = PROFILES[args.profile]()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(dump_scenario(value))
    print(f"wrote {args.profile} scenario to {out}")
    return 0


def _cmd_run(args) -> int:
    value = parse_scenario(Path(args.scenario).read_bytes())
    if args.seed is not None:
        if not isinstance(value, dict):
            print("scenario must be a mapping", file=sys.stderr)
            return 2
        value["seed"] = args.seed
    config = validate_config(value)
    world = harness.build_scenario(config)
    try:
        report = harness.run_workflow(world)
    except IntegrityAlarmError as exc:
        print(f"integrity alarm: {exc}", file=sys.stderr)
        return 1
    harness.save_world(world, args.out)
    steps = report["steps"]
    print(f"world written to {args.out}")
    print(
        f"blocks={report['blocks']} records={steps['1_registration']['records']}"
        f" permitted={steps['4_requests']['permitted']}"
        f" denied={steps['4_requests']['denied']}"
    )
    print(
        f"security={report['security']['score']:.6f}"
        f" objective={report['trust']['objective']:.6f}"
    )
    mismatches = steps["5_validation"]["mismatches"]
    if mismatches:
        print(f"validation mismatches: {mismatches}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify_chain(args) -> int:
    data = Path(args.ledger).read_bytes()
    verdict = verify_dump(data)
    if verdict is None:
        # a dump that verifies is its blocks, each followed by one newline
        blocks = data.count(b"\n")
        print(f"chain valid ({blocks} blocks)")
        return 0
    print(f"corrupt at block {verdict}")
    return 1


def _cmd_audit(args) -> int:
    chain = load_ledger(Path(args.ledger).read_bytes())
    if chain.damaged is not None:
        print(f"ledger does not parse: block {chain.damaged}", file=sys.stderr)
        return 1
    trail = chain.audit_trail(args.record)
    if not trail:
        print(f"no transactions reference {args.record!r}")
        return 0
    for tx in trail:
        print(canon.dumps(tx.to_value()))
    return 0


def _cmd_verify_decision(args) -> int:
    world = harness.load_world(args.world)
    try:
        verdict = harness.verify_decision(world, args.decision)
    except harness.UnknownDecisionError:
        print(f"unknown decision id {args.decision!r}", file=sys.stderr)
        return 2
    if verdict == "valid":
        print("valid")
        return 0
    print(f"mismatch: {verdict}")
    return 1


def _parse_target(spec: str) -> tuple[str, str]:
    kind, sep, key = spec.partition(":")
    if not sep or kind not in ("block", "record") or not key:
        raise ConfigError(f"target must be block:<index> or record:<id>, got {spec!r}")
    return kind, key


def _cmd_tamper(args) -> int:
    kind, key = _parse_target(args.target)
    base = Path(args.world)
    if kind == "block":
        try:
            index = int(key)
        except ValueError:
            print(f"block index must be an integer, got {key!r}", file=sys.stderr)
            return 2
        path = base / harness.LEDGER_FILE
        data = path.read_bytes()
        lines = dump_lines(data)
        if not 0 <= index < len(lines):
            print(f"no block {index} in {path}", file=sys.stderr)
            return 2
        try:
            lines[index] = harness.flip_bit(lines[index], args.offset, f"block {index}")
        except IndexError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        path.write_bytes(b"\n".join(lines) + b"\n" * data.endswith(b"\n"))
        print(f"flipped bit at byte {args.offset} of block {index}")
        return 0

    path = base / harness.WORLD_FILE
    value = harness.read_canonical(path)
    try:
        holder = value["records"][key]["sealed"]
        holder["ciphertext"] = harness.flip_bit(holder["ciphertext"], args.offset, f"record {key}")
    except KeyError:
        print(f"no record {key!r} in {path}", file=sys.stderr)
        return 2
    except IndexError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    harness.write_canonical(path, value)
    print(f"flipped bit at byte {args.offset} of record {key}")
    return 0


def _cmd_score(args) -> int:
    world = harness.load_world(args.world)
    result = harness.score_world(world)
    try:
        text = json.dumps(result, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a non-finite objective
        print(f"score cannot be printed: {exc}", file=sys.stderr)
        return 1
    print(text)
    security = result["security"]
    clean = all(
        security[part] == 1.0 for part in ("integrity", "provenance", "auditability")
    )
    return 0 if clean else 1


def _cmd_explain(args) -> int:
    world = harness.load_world(args.world)
    if args.record not in world.records:
        print(f"unknown record {args.record!r}", file=sys.stderr)
        return 2
    verdict, txs = world.ledger.verified()
    decisions = [
        tx for tx in txs if tx.kind == "DecisionRecord" and tx.body["record_ref"] == args.record
    ]
    status = 0
    if verdict is not None:
        print(f"corrupt at block {verdict}: only the blocks before it are read")
        status = 1
    if not decisions:
        print(f"no decisions recorded for {args.record!r}")
    for tx in decisions:
        print(f"decision {tx.tx_id}")
        # only what the decision check re-derived and matched to the chain
        verdict, derived = harness.check_decision(world, tx)
        if derived is None:
            print(f"  mismatch: {verdict}")
            status = 1
            continue
        prediction, explanation = derived
        print(f"  prediction {prediction['prediction']:+.6f} (margin {prediction['margin']:+.6f})")
        print(f"  baseline {explanation.baseline_value:+.6f}")
        for name, alpha in sorted(explanation.attributions.items(), key=lambda kv: -abs(kv[1])):
            print(f"  {name:<20} {alpha:+.6f}")
        print("  on-chain binding: ok")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bxhf",
        description="Consent-gated, ledger-audited, explainable predictions on "
        "synthetic multi-institution health data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="write a ready-to-run scenario file")
    p.add_argument("--out", required=True)
    p.add_argument("--profile", choices=sorted(PROFILES), default="demo")
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("run", help="build the world, run the workflow, save everything")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify-chain", help="check a ledger dump for corruption")
    p.add_argument("--ledger", required=True)
    p.set_defaults(func=_cmd_verify_chain)

    p = sub.add_parser("audit", help="print every transaction referencing a record")
    p.add_argument("--ledger", required=True)
    p.add_argument("--record", required=True)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("verify-decision", help="re-derive one decision end to end")
    p.add_argument("--world", required=True)
    p.add_argument("--decision", required=True)
    p.set_defaults(func=_cmd_verify_decision)

    p = sub.add_parser("tamper", help="flip one bit in a stored artifact")
    p.add_argument("--world", required=True)
    p.add_argument("--target", required=True, help="block:<i> | record:<id>")
    p.add_argument("--offset", type=int, required=True)
    p.set_defaults(func=_cmd_tamper)

    p = sub.add_parser("score", help="recompute the security score (and objective)")
    p.add_argument("--world", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("explain", help="re-derive and show a record's decisions")
    p.add_argument("--world", required=True)
    p.add_argument("--record", required=True)
    p.set_defaults(func=_cmd_explain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:  # not about a path, e.g. a closed pipe
            raise
        print(f"cannot access {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except NotationParseError as exc:
        print(f"file does not parse: {exc}", file=sys.stderr)
        return 1
    except CanonicalizationError as exc:
        # a loaded value that cannot be printed canonically: a forged or damaged file
        print(f"value cannot be printed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
