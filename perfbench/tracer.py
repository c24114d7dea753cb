"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions of the ``dasvrda`` modules by
wrappers that record one span per call: name, parent span, start and end.
Spans stay in memory; :meth:`Tracer.summary` turns them into calls,
inclusive time and self time (duration minus the time covered by child
spans) per name.  ``lazy.lazy_z``, called millions of times per solve, is
only counted, so that its wrapper does not dominate the traced run.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self.batches: list[np.ndarray] = []
        self.touched = 0
        self.touch_capacity = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        sid = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.span_end[sid] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is one span; ``after(args, result)``
        runs once the span is closed."""

        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        # Looked up on every call, so reset() takes effect.
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[name][0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, patches: Patches) -> None:
        """Wrap the public functions of every layer."""
        from dasvrda import baselines, harness, lazy, problem, solvers

        def keep_batch(args, idx):
            self.batches.append(idx)

        def keep_touched(args, result):
            stage = args[0]
            self.touched += stage.touched
            self.touch_capacity += stage.problem.d * stage.m

        for owner, attr, name in (
            (harness, "resolve", "harness.resolve"),
            (harness, "generate_synthetic", "data_io.generate_synthetic"),
            (harness, "load_libsvm", "data_io.load_libsvm"),
            (harness, "make_problem", "problem.make_problem"),
            (harness, "objective", "harness.objective"),
            (harness, "write_trace", "trace.write_trace"),
            (harness, "lazy_one_stage_accsvrda", "lazy.stage"),
            (solvers, "objective", "solvers.objective"),
            (solvers, "one_stage_accsvrda", "solvers.stage"),
            (problem, "prox_elastic_net", "problem.prox"),
            (lazy.LazyStage, "step", "lazy.step"),
            (lazy.LazyStage, "snapshot", "lazy.sweep"),
        ):
            patches.set(owner, attr, self.span(name, getattr(owner, attr)))
        for module in (solvers, lazy, baselines):
            patches.set(module, "make_anchor",
                        self.span("sampling.make_anchor", module.make_anchor))
            patches.set(module, "draw_batch",
                        self.span("sampling.draw_batch", module.draw_batch,
                                  keep_batch))
        for module in (solvers, baselines):
            patches.set(module, "vr_gradient",
                        self.span("sampling.vr_gradient", module.vr_gradient))
        patches.set(lazy.LazyStage, "finish",
                    self.span("lazy.finish", lazy.LazyStage.finish, keep_touched))
        patches.set(lazy, "lazy_z", self.counter("lazy.catch_up", lazy.lazy_z))

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name, plus
        the plain counters."""
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        out = {
            name: {"calls": int(calls[i]), "s": float(total[i]),
                   "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        for name, cell in self.counts.items():
            out[name] = {"calls": cell[0], "s": 0.0, "self_s": 0.0}
        return out

    def spans(self) -> dict:
        """The recorded spans, for writing out."""
        return {
            "names": list(self.names),
            "columns": ["name", "parent", "start", "end"],
            "spans": [
                list(row)
                for row in zip(self.span_name, self.span_parent,
                               self.span_start, self.span_end)
            ],
        }
