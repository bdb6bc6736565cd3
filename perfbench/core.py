"""Timing loop of the langrec benchmark.

A run imports langrec, times set-up, then runs whole rounds of the
workload's operations until ``seconds`` have passed.  Set-up is ``import
langrec`` and generating the workload's inputs from the seed.  The run
times ``IMPORT_REPEATS`` imports, each in a fresh interpreter, and
``SETUP_REPEATS`` input generations in its own process, once before the
timed phase and once after it, so that the samples straddle the speed
drift of the run; ``setup_s`` is the median import time plus the median
generation time, both at reference speed (below).

Each round runs in a fresh interpreter (``run.py --round``), which
generates the operations again, untimed, and prints the round.  One
operation's time differs from interpreter to interpreter by up to half,
mostly with the string-hash seed that Python draws for each (with
``PYTHONHASHSEED`` fixed the differences shrink); a round per
interpreter lets the medians over rounds average over that, where
rounds in one interpreter would all share its luck.  Each operation is
timed alone, with wall-clock and process CPU time, and its result is
checked right after, outside the timing.  Each operation's latency is its median over the
run's rounds: ``wall_s`` and ``cpu_s`` are their sums, ``op_p50_ms`` and
``op_p90_ms`` their percentiles, and ``peak_rss_mb`` is the median peak
resident set of the round interpreters.  In a traced run, untraced and
traced rounds alternate, and the per-layer numbers come from the traced
ones.

Times are reported at reference speed.  On a machine shared with other
tenants, the speed of the same Python code drifts by up to 70 % over
tens of seconds, far more than any bound worth keeping.  So the run
measures the machine's current speed with ``reference()``, a fixed
pure-Python loop over tuples, frozensets and a dict (the kind of work
langrec does), at most ``CALIBRATE_EVERY`` seconds apart between
operations, and scales each operation's times by ``REFERENCE_S`` over
the median of the six reference times taken nearest to it.  The
reference loop does not touch langrec, so a change to the program moves
the scaled times as much as the raw ones.  The raw round time and the
speed factors are printed on standard error.

Each check runs in a forked copy of the round interpreter
(``check_apart``), so ``peak_rss_mb`` and the per-layer counts cover the
set-up of the round interpreter and the timed operations only.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

IMPORT_REPEATS = 5  # before and again after the timed phase
SETUP_REPEATS = 5  # likewise
OUT_DIR = Path(__file__).resolve().parent / "out"
CALIBRATE_EVERY = 0.1
# the time of ``reference()`` that counts as reference speed; it takes
# 1.7 to 2.8 ms on the 2-core machine the bounds were set on
REFERENCE_S = 0.002
_REF_KEYS = [tuple((7 * i + 3 * j) % 50 for j in range(3)) for i in range(2000)]


def reference() -> float:
    """Seconds taken by a fixed loop of tuple, frozenset and dict work."""
    gc.disable()
    try:
        start = perf_counter()
        seen: dict = {}
        for k in _REF_KEYS:
            seen[(frozenset(k) | frozenset((k[0], k[1] + 1)), k[2])] = len(seen)
        return perf_counter() - start
    finally:
        gc.enable()


# times ``import langrec`` in a fresh interpreter, then the reference loop
# in the same interpreter, and prints both
_IMPORT = """
import statistics, sys, time
sys.path[:0] = sys.argv[1:]
start = time.perf_counter()
import langrec
took = time.perf_counter() - start
from core import reference
print(took, statistics.median(reference() for _ in range(3)))
"""


def import_time(src: Path) -> float:
    """Seconds a fresh interpreter takes to import langrec from ``src``,
    at reference speed."""
    here = Path(__file__).resolve().parent
    child = subprocess.run([sys.executable, "-c", _IMPORT, str(src), str(here)],
                           capture_output=True, text=True, check=True, timeout=60)
    took, ref = map(float, child.stdout.split())
    return took * REFERENCE_S / ref


def generation_time(build, seed: int, reduced: bool) -> float:
    """Seconds taken to generate a workload's operations, at reference
    speed."""
    gc.collect()
    before = reference()
    start = perf_counter()
    build(seed, reduced)
    took = perf_counter() - start
    after = reference()
    return took * 2 * REFERENCE_S / (before + after)


def time_setup(build, seed: int, reduced: bool, imports: list, generations: list) -> None:
    """Add set-up samples to ``imports`` and ``generations``."""
    src = Path(sys.modules["langrec"].__file__).resolve().parent.parent
    imports.extend(import_time(src) for _ in range(IMPORT_REPEATS))
    generations.extend(generation_time(build, seed, reduced) for _ in range(SETUP_REPEATS))


@dataclass
class Round:
    latencies: list[float] = field(default_factory=list)  # at reference speed
    cpu: list[float] = field(default_factory=list)  # at reference speed
    raw: list[float] = field(default_factory=list)  # wall-clock, as measured
    factors: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    layers: dict | None = None


def check_apart(op, state: dict, result) -> bool:
    """``op.check`` run in a forked copy of this process.  What the check
    allocates or caches never counts in this process's peak resident set,
    nor in the tracer's counts, nor leaves garbage for the next operation."""
    pid = os.fork()
    if pid == 0:
        code = 2
        try:
            code = 0 if op.check(state, result) else 1
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status) == 0


def run_round(ops, tracer=None, failures: list | None = None) -> Round:
    """One pass over the operations; ``tracer`` is installed for its span."""
    r = Round()
    state: dict = {}
    samples: list[tuple[float, float]] = []  # (when, reference seconds)
    marks: list[int] = []  # per operation, the last sample before it
    cpu: list[float] = []
    gc.collect()
    if tracer is not None:
        tracer.reset_counts()
        tracer.install()
    try:
        for op in ops:
            # every operation starts from an empty young generation, so the
            # collections it triggers are the same in every round
            gc.collect()
            if not samples or perf_counter() - samples[-1][0] >= CALIBRATE_EVERY:
                samples.append((perf_counter(), reference()))
            marks.append(len(samples) - 1)
            node = tracer.begin_op(op.kind) if tracer is not None else None
            error = result = None
            w0, c0 = perf_counter(), process_time()
            try:
                result = op.run(state)
            except Exception as exc:  # a failed operation, counted below
                error = exc
            c1, w1 = process_time(), perf_counter()
            if tracer is not None:
                tracer.end_op(node, w0, w1)
            r.raw.append(w1 - w0)
            cpu.append(c1 - c0)
            r.attempted += 1
            right = False
            if error is None:
                right = check_apart(op, state, result)
                if not right:
                    r.wrong += 1
            if not right:
                r.failed += 1
                if failures is not None and len(failures) < 5:
                    failures.append(f"{op.kind}: {error!r}" if error else f"{op.kind}: wrong result")
    finally:
        if tracer is not None:
            tracer.uninstall()
    samples.append((perf_counter(), reference()))
    for k, wall, busy in zip(marks, r.raw, cpu):
        near = [t for _, t in samples[max(0, k - 2) : k + 4]]
        factor = REFERENCE_S / statistics.median(near)
        r.factors.append(factor)
        r.latencies.append(wall * factor)
        r.cpu.append(busy * factor)
    if tracer is not None:
        r.layers = layer_metrics(tracer, statistics.median(r.factors))
    return r


def layer_metrics(tracer, factor: float) -> dict[str, float]:
    """Per-layer numbers of one traced round, times at reference speed."""
    out: dict[str, float] = {}
    self_s = tracer.self_times()
    for layer in ("schutz", "monoids", "equations", "algebra", "languages"):
        out[f"{layer}.calls"] = tracer.calls[layer]
        out[f"{layer}.self_s"] = self_s[layer] * factor
    out.update(tracer.counts)
    sat = tracer.saturation_calls
    out["algebra.products_per_query"] = tracer.saturation_products / sat if sat else 0.0
    return out


def op_medians(rounds: list[Round], attr: str) -> list[float]:
    """Each operation's median time over the rounds."""
    return [statistics.median(times) for times in zip(*(getattr(r, attr) for r in rounds))]


def round_time(rounds: list[Round], attr: str) -> float:
    """One round, each operation at its median over the rounds."""
    return sum(op_medians(rounds, attr))


def run_workload(name: str, seed: int, seconds: float, trace: bool, reduced: bool = False) -> dict:
    from workloads import WORKLOADS  # imports langrec

    imports: list[float] = []
    generations: list[float] = []
    time_setup(WORKLOADS[name], seed, reduced, imports, generations)

    rounds: list[Round] = []
    peaks: list[float] = []  # MB, of the untraced round processes
    started = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        r, peak_mb = round_in_process(name, seed, len(rounds), traced, reduced)
        rounds.append(r)
        if not traced:
            peaks.append(peak_mb)
        if (not trace or len(rounds) >= 2) and perf_counter() - started >= seconds:
            break
    time_setup(WORKLOADS[name], seed, reduced, imports, generations)
    setup_s = statistics.median(imports) + statistics.median(generations)

    plain = [r for r in rounds if r.layers is None]
    result = {
        "correct": all(r.wrong == 0 for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    if not trace:
        latencies = op_medians(plain, "latencies")
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (round_time(plain, "latencies"), "s"),
            "cpu_s": (round_time(plain, "cpu"), "s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
        }
    else:
        traced_rounds = [r for r in rounds if r.layers is not None]
        metrics = {
            key: (statistics.median(r.layers[key] for r in traced_rounds), _unit(key))
            for key in traced_rounds[0].layers
        }
        overhead = round_time(traced_rounds, "latencies") - round_time(plain, "latencies")
        metrics["trace.overhead_s"] = (overhead, "s")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    factors = [f for r in rounds for f in r.factors]
    print(f"{name}: {len(rounds)} rounds of {rounds[0].attempted} operations; raw wall "
          f"{round_time(plain, 'raw'):.4f} s; speed factor median {statistics.median(factors):.3f}, "
          f"range {min(factors):.3f}..{max(factors):.3f}", file=sys.stderr)
    return result


def round_in_process(name: str, seed: int, index: int, traced: bool, reduced: bool) -> tuple[Round, float]:
    """Run round ``index`` in a fresh interpreter (``run.py --round``) and
    return it with the peak resident set of that interpreter, in MB.
    Every round gets its own string-hash seed and memory layout, so the
    medians over rounds average over them."""
    args = [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", "0", "--trace", str(int(traced)), "--round", str(index)]
    child = subprocess.run(args + (["--reduced"] if reduced else []), capture_output=True,
                           text=True, timeout=170)
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        raise RuntimeError(f"round {index} of {name} exited with code {child.returncode}")
    out = json.loads(child.stdout.strip().splitlines()[-1])
    return Round(**out["round"]), out["peak_kb"] / 1024


def run_one_round(name: str, seed: int, index: int, traced: bool, reduced: bool = False) -> dict:
    """The body of ``run.py --round``: generate the operations, run one
    round and return it, with this process's peak resident set."""
    from workloads import WORKLOADS

    ops = WORKLOADS[name](seed, reduced)
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
    failures: list[str] = []
    r = run_round(ops, tracer, failures)
    for line in failures:
        print(f"failed {line}", file=sys.stderr)
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"spans-{name}-seed{seed}-round{index}.json")
    return {"round": dataclasses.asdict(r),
            "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key == "algebra.products_per_query":
        return "products/call"
    return "count"
