"""bxhf benchmark entry point.

Run from the root of a bxhf checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload consortium-run --seed 1 --seconds 55 --trace 0

Workloads: consortium-run, consent-churn (see ``workloads.py``).
With ``--trace 0`` the result reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is the result as one JSON object; the line before it holds the
reference sheet, environment, output digests and op counts.  Temporary files go
to ``.perfbench-work/`` under the current directory and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

WORKLOAD_NAMES = ("consortium-run", "consent-churn")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "bxhf" / "__init__.py").is_file():
        print(f"no bxhf sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from bench import Bench

    work = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, bool(args.trace), work)
        bench.setup()
        bench.measure(args.seconds)
        info, result = bench.report()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
