"""Every committed benchmark record (``BENCH_*.json`` at the repository
root) parses and holds the standard fields; it names the benchmark's
command, workloads and end-to-end metrics as ``BENCHMARK.json`` declares
them."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}
COMMAND = " ".join(BENCHMARK["command"])


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_the_benchmark(path):
    record = json.loads(path.read_text())
    assert {"change", "command", "machine", "method", "workloads"} <= set(record)
    assert record["command"].startswith(COMMAND + " ") or record["command"] == COMMAND
    assert record["workloads"]
    for entry in record["workloads"]:
        assert entry["workload"] in WORKLOADS, entry["workload"]
        sides = {side: v for side, v in entry.items() if isinstance(v, dict) and "median" in v}
        assert {"parent", "change"} <= set(sides), entry["workload"]
        for side, value in sides.items():
            assert set(value["median"]) <= METRICS, (entry["workload"], side)
