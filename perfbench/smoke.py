"""Smoke test of the benchmark itself; finishes in seconds.

    python3 perfbench/smoke.py

It runs a reduced pass of every workload, untraced and traced, and
checks that the printed result has the documented keys and that its
metric names and units are those of ``BENCHMARK.json``.  It then feeds
deliberately wrong results to the checks (a flipped equation verdict, an
atom dropped from a saturation, a shifted multiplication table) and checks that each
is counted as failed, and that the benchmark refuses to run without the
package sources.  Exits with code 1 on the first mismatch.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_printed_results() -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            p = run(["perfbench/run.py", "--workload", w["name"], "--seed", "0",
                     "--seconds", "0", "--trace", str(trace), "--reduced"])
            if p.returncode != 0:
                fail(f"{w['name']} trace {trace} exited {p.returncode}: {p.stderr[-500:]}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w['name']}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{w['name']} trace {trace}: {result['attempted']} attempted, "
                     f"{result['failed']} failed, correct {result['correct']}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                fail(f"{w['name']} trace {trace}: metrics {units} differ from BENCHMARK.json")
        print(f"smoke: {w['name']} prints the metrics of BENCHMARK.json")


def corrupt(ops, kind: str, spoil):
    """The operations with the first one of ``kind`` returning a spoilt result."""
    i = next(i for i, op in enumerate(ops) if op.kind == kind)
    run_op = ops[i].run
    ops = list(ops)
    ops[i] = dataclasses.replace(ops[i], run=lambda st: spoil(run_op(st)))
    return ops


def check_wrong_results_fail() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from core import run_round
    from workloads import WORKLOADS

    def drop_atom(saturation):
        return saturation - {min(saturation)}

    def shifted_table(result):
        mfm, elems = result
        n = mfm.size
        table = tuple(tuple((x + 1) % n for x in row) for row in mfm.table)
        return SimpleNamespace(table=table, identity=mfm.identity, size=n), elems

    cases = [
        ("equations", "verdict", lambda verdict: not verdict),
        ("algebra-query", "saturation", drop_atom),
        ("products", "unary-product", shifted_table),
    ]
    for name, kind, spoil in cases:
        ops = WORKLOADS[name](0, True)
        clean = run_round(ops)
        spoilt = run_round(corrupt(ops, kind, spoil))
        if clean.failed or spoilt.failed != 1 or spoilt.wrong != 1:
            fail(f"{name}: a spoilt {kind} gave {spoilt.failed} failed (clean {clean.failed})")
        print(f"smoke: {name} counts a spoilt {kind} as failed")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = run(["perfbench/run.py", "--workload", "products", "--seed", "0", "--seconds", "1"], bare)
    shutil.rmtree(bare)
    if p.returncode == 0 or p.stdout.strip():
        fail("the benchmark ran without the package sources")
    print("smoke: refuses to run without the package sources")


if __name__ == "__main__":
    check_printed_results()
    check_wrong_results_fail()
    check_refuses_without_sources()
    print("smoke: OK")
