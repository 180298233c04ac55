"""Benchmark the qdaghash CLI end to end, or layer by layer with --trace 1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script lives in a source checkout and reads its src/ tree; the
workloads are listed in perfbench/README.md. A child process writes the
workload's inputs from the seed. This process then runs the CLI calls one
at a time, a closed loop with one client: each `python -m qdaghash ...`
child (PYTHONPATH=src) starts only after the previous one has ended. Calls
run in whole units until --seconds have passed, and every output is
checked after the loop. Wall time is taken from outside each child; CPU
time, peak RSS and minor faults come from os.wait4.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 units alternate between the plain CLI and perfbench/traced_cli.py
and the last line holds the per-layer metrics of the traced calls. The
lines before it report every metric of the workload by name and unit; the
full result, with a record of each call, goes under perfbench/results/.
The exit code is 0 only when every call succeeded and passed its check.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdaghash" / "cli.py").is_file():
        print(f"error: no qdaghash sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench  # needs the sources on sys.path

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
