"""Spans and call counters recorded by the benchmark around calls into supervise.

Nothing in the package is edited.  While a round is traced, wrappers replace
the module attributes that callers resolve at call time, so a public function
called from another public function (``sa_greedy`` inside
``build_supervision_hierarchy``) still gets its own span.  Functions that run
once per level or per sample (``HOT``) are left alone, since a span would cost
more than the call.  Names another module imported at import time, such as
``supervise.hierarchy.solve_deriv_equals``, get a call counter, not a span:
that is how the effort kernel, which has no spans of its own, is measured.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("effort", "hierarchy", "flat", "quant", "structures", "allocation", "simulate", "cli")
# layers whose time shows up as spans, and so as a self-time share
SPANNED = LAYERS[1:]

HOT = frozenset({
    "solve_deriv_equals",
    "effort_deriv",
    "effort_eval",
    "best_response_under_superior",
    "proficiency_sigma",
    "expected_penalty_pair",
    "expected_penalty_quant",
    "best_response_quant",
    "sample_binary_answers",
})

# Targets kept per effort family for the solver replay.
MAX_TARGETS = 50_000


class Tracer:
    """Spans ``(id, parent, op, name, start_ns, end_ns)`` plus call counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list = []
        self.counts: Counter = Counter()
        self.targets: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list = []

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def _close(self, sid: int, parent: int | None, name: str, t0: int) -> None:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = (sid, parent, self._op, name, t0, t1)

    @contextmanager
    def op(self, op_id: int, name: str):
        """Top-level span around one timed operation at the benchmark's call site."""
        self._op = op_id
        sid, parent, t0 = self._open()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0)
            self._op = None

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            sid, parent, t0 = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, t0)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        if name == "effort.solve_deriv_equals":
            targets = self.targets

            def solve(f, target):
                counts[name] += 1
                kept = targets[f.family.value]
                if len(kept) < MAX_TARGETS:
                    kept.append((f, target))
                return fn(f, target)

            return solve

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules) -> None:
        """Wrap every public function of ``modules`` wherever a module binds it."""
        public = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    public[fn] = f"{layer}.{attr}"
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                name = public.get(val) if inspect.isfunction(val) else None
                if name is None:
                    continue
                if val.__module__ != mod.__name__:
                    wrapped = self._count_wrapper(name, val)
                elif attr not in HOT:
                    wrapped = self._span_wrapper(name, val)
                else:
                    continue
                self._patched.append((mod, attr, val))
                setattr(mod, attr, wrapped)
        self.enabled = True

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, val = self._patched.pop()
            setattr(mod, attr, val)
        self.enabled = False

    def self_ns(self) -> dict[int, int]:
        """Span duration minus the part of it covered by direct child spans."""
        covered: dict[int, int] = defaultdict(int)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        return {sid: (t1 - t0) - covered[sid] for sid, _, _, _, t0, t1 in self.spans}

    def by_name(self, name: str, ops=None) -> list[tuple[int, int]]:
        """``(op id, duration ns)`` of every span called ``name``, optionally only in ``ops``."""
        return [
            (op, t1 - t0)
            for _, _, op, n, t0, t1 in self.spans
            if n == name and (ops is None or op in ops)
        ]

    def layer_self_share(self, total_ns: int) -> dict[str, float]:
        """Percent of the traced operations' time spent in each layer's own code."""
        per_layer: dict[str, int] = defaultdict(int)
        selfs = self.self_ns()
        for sid, _, _, name, _, _ in self.spans:
            per_layer[name.split(".", 1)[0]] += selfs[sid]
        return {f"{layer}.self_share": 100.0 * per_layer[layer] / total_ns if total_ns else 0.0 for layer in SPANNED}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")
            fh.write(json.dumps({"counters": dict(sorted(self.counts.items()))}) + "\n")
