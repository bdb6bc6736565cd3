"""Run one workload of the langrec benchmark and print its result.

    python3 perfbench/run.py --workload products --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The benchmark runs the package from ``src/`` next to this directory and
exits with code 2, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("products", "algebra-build", "algebra-query", "equations")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one langrec benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="a small version of the workload, for the smoke test")
    ap.add_argument("--round", type=int, metavar="INDEX",
                    help="run one round in this process and print it (the timed phase runs "
                         "each round this way)")
    args = ap.parse_args(argv)
    if not (SRC / "langrec" / "__init__.py").is_file():
        print(f"error: the langrec sources are missing ({SRC / 'langrec'})", file=sys.stderr)
        return 2
    # one thread: keep numpy's BLAS from starting a pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    from core import run_one_round, run_workload

    if args.round is not None:
        result = run_one_round(args.workload, args.seed, args.round, bool(args.trace), args.reduced)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.reduced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
