#!/usr/bin/env python3
"""inhernet fine-tune-and-serve benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload distill-desk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the
per-layer ones (see perfbench/README.md). The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the full record (provenance, digest, failures). A
readable table goes to standard error. The exit code is 0 when every
correctness check passed, 1 when one failed, and 2 when the package
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: single-caller runs, and the steadiest timings on a
# shared machine. Set before numpy is first imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("distill-desk", "finetune-wide", "conv-mimic")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long to keep repeating passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every size, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _table(record: dict) -> str:
    lines = [f"{record['workload']} seed={record['provenance']['seed']} "
             f"passes={record['passes']} attempted={record['attempted']} "
             f"failed={record['failed']} failed_frac={record['failed_frac']:g}"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    lines += [f"  FAILED: {msg}" for msg in record["failures"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "inhernet" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'inhernet'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import inhernet
    if Path(inhernet.__file__).resolve().parent != src / "inhernet":
        print(f"perfbench: imported inhernet from {inhernet.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import pipeline

    record = pipeline.run(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.scale == "tiny", root)
    print(_table(record), file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
