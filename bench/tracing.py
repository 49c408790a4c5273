"""Spans and work counters recorded around calls into leakscope.

`Tracer.install` swaps public functions and law methods of the already
imported `leakscope` modules for thin wrappers; `uninstall` puts the
originals back. Nothing under `src/` is edited. A function imported by
name into another module (``from .localization import all_candidates``)
is replaced in every leakscope module that holds it, so calls made inside
the library are traced as well.

A span holds name, start, end, parent and the benchmark's operation id.
Spans are kept in memory (up to `max_spans`) and written by `dump`;
per-name aggregates (calls, total and self time, durations, work counts
inside the span) are kept for every span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

# work counters, indices into Tracer.counts
INVERT, EVALUATE, DERIVATIVE, LEAK_FLOW, ESTIMATE_OUTFLOW, BRACKET_FALLBACK = range(6)
COUNTER_NAMES = (
    "invert", "evaluate", "derivative", "leak_flow", "estimate_outflow",
    "bracket_fallback",
)

# (module, attribute) pairs recorded as spans; the span takes the attribute name
SPANNED = (
    ("leakscope.cli", "main"),
    ("leakscope.scenario", "parse_scenario"),
    ("leakscope.hydraulics", "solve_leaky_state"),
    ("leakscope.hydraulics", "measure"),
    ("leakscope.localization", "all_candidates"),
    ("leakscope.localization", "residual_bar"),
    ("leakscope.isolation", "isolate_by_consistency"),
    ("leakscope.isolation", "isolate_by_leak_fit"),
    ("leakscope.isolation", "fit_leak_function"),
    ("leakscope.sensitivity", "confusion_flow_curve"),
)
# functions that are only counted; the last field says whether to replace
# the function in every module that holds it or in the named module only
COUNTED = (
    ("leakscope.localization", "estimate_outflow", ESTIMATE_OUTFLOW, True),
    # the bracketed fallback of the confusion-curve solver; the solver and
    # the forward solve share `expand_bracket`, so only sensitivity's is counted
    ("leakscope.sensitivity", "expand_bracket", BRACKET_FALLBACK, False),
)
LAW_METHODS = (("invert", INVERT), ("evaluate", EVALUATE), ("derivative", DERIVATIVE))


class Aggregate:
    __slots__ = ("calls", "total", "self_time", "durations", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []
        self.counts = [0] * len(COUNTER_NAMES)


class Tracer:
    def __init__(self, max_spans: int = 200_000):
        self.counts = [0] * len(COUNTER_NAMES)
        self.aggregates: dict[str, Aggregate] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.max_spans = max_spans
        self.op_id = 0
        self.curve_points = 0
        self.curve_converged = 0
        # solve+measure time per state: measure adds to the solve it follows
        self.state_us: list[float] = []
        self._last_state = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self.window: dict | None = None

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        frame = [name, self._next_id, parent, self.counts.copy(), 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        name, span_id, parent, before, child_time, start = frame
        dur = end - start
        if self._stack:
            self._stack[-1][4] += dur
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = Aggregate()
        agg.calls += 1
        agg.total += dur
        agg.self_time += dur - child_time
        agg.durations.append(dur)
        c = agg.counts
        for i, (now, then) in enumerate(zip(self.counts, before)):
            c[i] += now - then
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent, self.op_id))
        else:
            self.spans_dropped += 1
        return dur

    def _spanning(self, fn, name):
        tracer = self

        if name == "solve_leaky_state":
            def wrapper(*args, **kwargs):
                frame = tracer._enter(name)
                try:
                    state = fn(*args, **kwargs)
                finally:
                    dur = tracer._exit(frame)
                tracer._last_state = (state, dur)
                return state
        elif name == "measure":
            def wrapper(state, *args, **kwargs):
                frame = tracer._enter(name)
                try:
                    return fn(state, *args, **kwargs)
                finally:
                    dur = tracer._exit(frame)
                    last = tracer._last_state
                    if last is not None and last[0] is state:
                        tracer.state_us.append((last[1] + dur) * 1e6)
                        tracer._last_state = None
        elif name == "confusion_flow_curve":
            def wrapper(*args, **kwargs):
                frame = tracer._enter(name)
                try:
                    curve = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                tracer.curve_points += len(curve.dh_grid)
                tracer.curve_converged += sum(curve.converged)
                return curve
        else:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
        return wrapper

    def _counting(self, fn, index):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[index] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install -------------------------------------------------------------

    def _replace(self, module_name: str, attr: str, make, everywhere: bool = True) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "leakscope" or module is None:
                continue
            if not everywhere and name != module_name:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapped)

    def install(self) -> None:
        import leakscope
        from leakscope.headloss import HeadLossFn

        for module_name, attr in SPANNED:
            self._replace(module_name, attr, lambda fn, a=attr: self._spanning(fn, a))
        for module_name, attr, index, everywhere in COUNTED:
            self._replace(
                module_name, attr, lambda fn, i=index: self._counting(fn, i), everywhere
            )
        classes = [HeadLossFn]
        for cls in classes:
            classes.extend(cls.__subclasses__())
            for method, index in LAW_METHODS:
                if method in vars(cls):
                    self._patch_method(cls, method, index)
        for cls in (leakscope.PowerLawLeak, leakscope.FixedDemand):
            self._patch_method(cls, "flow", LEAK_FLOW)

    def _patch_method(self, cls, method: str, index: int) -> None:
        original = vars(cls)[method]
        self._patches.append((cls, method, original))
        setattr(cls, method, self._counting(original, index))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- counted window --------------------------------------------------------

    def freeze_window(self) -> None:
        """Snapshot the work counts; counts are reported from this window
        only, so that two traced runs of one seed report equal counts."""
        self.window = {
            "counts": self.counts.copy(),
            "spans": {
                name: (agg.calls, agg.counts.copy())
                for name, agg in self.aggregates.items()
            },
            "curve_points": self.curve_points,
            "curve_converged": self.curve_converged,
        }

    # -- output ----------------------------------------------------------------

    def self_time_table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total ms, self ms), largest self time first."""
        rows = [
            (name, agg.calls, agg.total * 1e3, agg.self_time * 1e3)
            for name, agg in self.aggregates.items()
        ]
        return sorted(rows, key=lambda r: -r[3])

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "spans_dropped": self.spans_dropped,
                },
                fh,
            )
