"""Per-layer tracing of langrec, installed from outside the package.

The layers are the modules ``languages``, ``monoids``, ``schutz``,
``algebra`` and ``equations``.  ``install`` replaces every public
function of a layer module, and every public method of the public
classes it defines, by a wrapper, at every binding the package holds:
``algebra`` calls ``intersection`` through its own module namespace, so
that binding is replaced too.  ``uninstall`` puts the originals back.

A wrapper counts every call of its layer.  A call that enters a layer
from another one (or from the benchmark) is a span.  Spans with the same
parent and the same function are kept as one record: its name, parent,
first start, last end, number of calls and summed duration.  A layer's
self time is the summed duration of its records minus that of their
children.  Private helpers such as ``_canonical`` are not wrapped, so
their time counts in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("languages", "monoids", "schutz", "algebra", "equations")
# the public binary operations of ``languages`` that each build one
# product automaton
PRODUCT_OPS = ("union", "intersection", "difference", "symmetric_difference")

COUNTERS = (
    "schutz.carrier_elements",
    "monoids.table_cells",
    "monoids.closure_elements",
    "equations.joint_elements",
    "algebra.atoms_out",
    "languages.states_out",
)

# record fields
NAME, PARENT, START, END, CALLS, BUSY = range(6)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.records: list[list] = []  # [name, parent, start, end, calls, busy]
        self._index: dict[tuple[int, str], int] = {}
        self._stack: list[tuple[str, int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._saturation_depth = 0
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.reset_counts()

    def reset_counts(self) -> None:
        """Zero the counters in place: the wrappers hold these dicts."""
        self.calls.update(dict.fromkeys(LAYERS, 0))
        self.counts.update(dict.fromkeys(COUNTERS, 0))
        self.saturation_calls = 0
        self.saturation_products = 0
        self.first_record = len(self.records)

    # -- spans ------------------------------------------------------------

    def begin_op(self, kind: str) -> int:
        node = len(self.records)
        self.records.append([f"bench.{kind}", None, 0.0, 0.0, 1, 0.0])
        self._stack[:] = [("bench", node)]
        self.active = True
        return node

    def end_op(self, node: int, start: float, end: float) -> None:
        self.active = False
        rec = self.records[node]
        rec[START], rec[END], rec[BUSY] = start, end, end - start

    def _node(self, parent: int, name: str) -> int:
        key = (parent, name)
        node = self._index.get(key)
        if node is None:
            node = len(self.records)
            self._index[key] = node
            self.records.append([name, parent, 0.0, 0.0, 0, 0.0])
        return node

    def self_times(self) -> dict[str, float]:
        """Self time per layer over the records since ``reset_counts``."""
        recs = self.records
        child_busy = [0.0] * len(recs)
        for rec in recs[self.first_record :]:
            if rec[PARENT] is not None:
                child_busy[rec[PARENT]] += rec[BUSY]
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(self.first_record, len(recs)):
            layer = recs[i][NAME].split(".", 1)[0]
            if layer in out:
                out[layer] += recs[i][BUSY] - child_busy[i]
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("[\n")
            fh.write(",\n".join(
                json.dumps(dict(zip(("name", "parent", "start", "end", "calls", "busy_s"), r)))
                for r in self.records
            ))
            fh.write("\n]\n")

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        tr, calls, counts, stack, records = self, self.calls, self.counts, self._stack, self.records
        on_result = _RESULT_COUNTERS.get(name)
        if layer == "languages":
            on_result = on_result or ("languages.states_out", _dfa_states)
        is_saturation = name == "algebra.LanguageAlgebra.saturation"
        is_product = layer == "languages" and name.rsplit(".", 1)[1] in PRODUCT_OPS
        last = [-1, -1]  # parent and record of the previous span, a cache

        def span(args, kwargs):
            parent = stack[-1][1]
            if last[0] == parent:
                node = last[1]
            else:
                node = last[1] = tr._node(parent, name)
                last[0] = parent
            stack.append((layer, node))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec = records[node]
                if not rec[CALLS]:
                    rec[START] = start
                rec[END] = end
                rec[CALLS] += 1
                rec[BUSY] += end - start

        if on_result is None and not is_saturation and not is_product:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tr.active:
                    return fn(*args, **kwargs)
                calls[layer] += 1
                top = stack[-1]
                if top[0] == layer:
                    return fn(*args, **kwargs)
                # the body of ``span``, inlined: this path is the hottest
                if last[0] == top[1]:
                    node = last[1]
                else:
                    node = last[1] = tr._node(top[1], name)
                    last[0] = top[1]
                stack.append((layer, node))
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    rec = records[node]
                    if not rec[CALLS]:
                        rec[START] = start
                    rec[END] = end
                    rec[CALLS] += 1
                    rec[BUSY] += end - start

            return wrapper

        @functools.wraps(fn)
        def counting_wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            calls[layer] += 1
            if is_product and tr._saturation_depth:
                tr.saturation_products += 1
            if is_saturation:
                tr.saturation_calls += 1
                tr._saturation_depth += 1
            try:
                if stack[-1][0] == layer:
                    result = fn(*args, **kwargs)
                    boundary = False
                else:
                    result = span(args, kwargs)
                    boundary = True
            finally:
                if is_saturation:
                    tr._saturation_depth -= 1
            if on_result is not None:
                counter, measure = on_result
                # a language is counted where it leaves its layer
                if boundary or counter != "languages.states_out":
                    counts[counter] += measure(result)
            return result

        return counting_wrapper

    def install(self) -> None:
        """Wrap every public layer function at every package binding."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "langrec" or k.startswith("langrec."))]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"langrec.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif inspect.isfunction(inspect.unwrap(obj)):
                    wrapped[id(obj)] = self._wrap(obj, layer, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                new = wrapped.get(id(obj))
                if new is not None:
                    self._patch(mod, attr, new)
        monoid_cls = sys.modules["langrec.monoids"].FiniteMonoid
        self._patch(monoid_cls, "__post_init__", self._count_table(monoid_cls.__post_init__))

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(obj.__func__, layer, name)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(obj, layer, name))

    def _count_table(self, post_init):
        tr = self

        @functools.wraps(post_init)
        def wrapper(monoid):
            post_init(monoid)
            if tr.active:
                tr.counts["monoids.table_cells"] += len(monoid.table) ** 2

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()


def _dfa_states(result) -> int:
    return result.states if isinstance(result, sys.modules["langrec.languages"].Dfa) else 0

# counters fed by the results of particular functions, at every call
_RESULT_COUNTERS = {
    "schutz.UnarySchutz.as_finite_monoid": ("schutz.carrier_elements", lambda r: len(r[1])),
    "schutz.BinarySchutz.as_finite_monoid": ("schutz.carrier_elements", lambda r: len(r[1])),
    "monoids.generate_closure": ("monoids.closure_elements", lambda r: len(r.elements)),
    "equations.bsum2_quotient": ("equations.joint_elements", lambda r: r.monoid.size),
    "algebra.generate_algebra": ("algebra.atoms_out", lambda r: len(r.atoms)),
    "algebra.recognised_algebra": ("algebra.atoms_out", lambda r: len(r.atoms)),
}
