"""Spans around calls into the six kgraphs modules, and per-layer metrics.

`Tracer.install` replaces every public function attribute of the six modules
with a timing wrapper, including the names a module imported from another
(`kgraphs.groupoid.boundary_paths`, `kgraphs.cli.validate`, ...): a caller
looks the function up in its own namespace, so that is where it must be
wrapped.  A wrapper is named after the function's home module.  Generator
functions (`skeleton.degree_box`) are left alone, because a span around a
generator would end before the work it does; their time counts for the caller.

A call is recorded when it crosses from one module into another, or when its
function is one the per-layer metrics name (`COUNTED`).  Other calls inside a
module (`groupoid.compose_elements` in the associativity loop, 690k calls on
grid 3x3) run unrecorded, as part of the caller's span of the same module.

Calls of hot functions (every `paths` function, `algebra.convolve`,
`boundary.prepend`) are not recorded one by one: their count, time and self
time are summed per name under the nearest recorded span.  Every other
recorded call becomes a span (name, start, end, parent, job, self time).  A
span's self time is its duration minus the duration of its direct children,
hot or not, so each instant inside a job belongs to exactly one module.
Private helpers and methods (`Path.__eq__` inside groupoid loops, for
instance) count for the public function that called them.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field

MODULES = ("skeleton", "paths", "boundary", "groupoid", "algebra", "cli")
HOT_MODULES = ("paths",)
HOT_FUNCTIONS = ("algebra.convolve", "boundary.prepend")

# Recorded even when called from their own module.
COUNTED = frozenset(
    {
        "paths.factorize",
        "paths.compose",
        "paths.minimal_extension_pairs",
        "paths.paths_with_range",
        "boundary.minimal_exhaustive_sets",
        "boundary.boundary_paths",
        "groupoid.build_path_groupoid",
        "algebra.convolve",
        "algebra.algebra_dimension",
    }
)

# Extra per-call size for hot calls: summed (`size_sum`) and maximised (`size_max`).
HOT_SIZES = {
    "algebra.convolve": lambda args, result: len(args[0].coefficients) * len(args[1].coefficients),
    "paths.paths_with_range": lambda args, result: len(result),
}


# Recorded spans whose return values the benchmark measures after the job.
KEEP_RESULTS = frozenset(
    {
        "boundary.enumerate_path_space",
        "boundary.boundary_paths",
        "boundary.boundary_report",
        "groupoid.build_path_groupoid",
        "groupoid.build_boundary_groupoid",
    }
)


def _is_hot(name: str) -> bool:
    return name.partition(".")[0] in HOT_MODULES or name in HOT_FUNCTIONS


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: object = None
    self_s: float = 0.0
    result: object = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Aggregate:
    """Hot calls of one name under one recorded span."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    size_sum: int = 0
    size_max: int = 0


class Tracer:
    """Records spans in memory; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # (parent span index, name) -> Aggregate
        self.aggregates: dict[tuple[int | None, str], Aggregate] = {}
        # Open frames: [name, start, child time, span index or None when hot,
        # index of the nearest recorded span, module].
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self.job = None

    # ------------------------------------------------------------ recording

    def enter(self, name: str) -> None:
        module = name.partition(".")[0]
        anchor = self._stack[-1][4] if self._stack else None
        if _is_hot(name):
            self._stack.append([name, self.clock(), 0.0, None, anchor, module])
            return
        index = len(self.spans)
        start = self.clock()
        self.spans.append(Span(name, start, parent=anchor, job=self.job))
        self._stack.append([name, start, 0.0, index, index, module])

    def exit(self, args=(), result=None) -> None:
        end = self.clock()
        name, start, child, index, anchor, _ = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            span = self.spans[index]
            span.end, span.self_s = end, duration - child
            if name in KEEP_RESULTS:
                span.result = result
            return
        agg = self.aggregates.get((anchor, name))
        if agg is None:
            agg = self.aggregates[(anchor, name)] = Aggregate()
        agg.calls += 1
        agg.total_s += duration
        agg.self_s += duration - child
        sizer = HOT_SIZES.get(name)
        if sizer is not None and result is not None:
            size = sizer(args, result)
            agg.size_sum += size
            agg.size_max = max(agg.size_max, size)

    def wrap(self, name: str, fn):
        enter, exit_, stack = self.enter, self.exit, self._stack
        module = name.partition(".")[0]
        counted = name in COUNTED

        def traced(*args, **kwargs):
            if not counted and stack and stack[-1][5] == module:
                return fn(*args, **kwargs)
            enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                exit_(args, result)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- patching

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the public functions of kgraphs found in each given module."""
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                package, _, home = value.__module__.rpartition(".")
                if package != "kgraphs" or home not in MODULES:
                    continue
                if inspect.isgeneratorfunction(value):
                    continue
                self._saved.append((module, attr, value))
                setattr(module, attr, self.wrap(f"{home}.{value.__name__}", value))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def take_results(self) -> list[tuple[str, object]]:
        """Hand over (name, result) of recorded spans and drop the references."""
        out = []
        for span in self.spans:
            if span.result is not None:
                out.append((span.name, span.result))
                span.result = None
        return out

    # ------------------------------------------------------------- analysis

    def self_times(self) -> dict[str, float]:
        """Self time per module over everything recorded."""
        out = {m: 0.0 for m in MODULES}
        for span in self.spans:
            out[span.name.partition(".")[0]] += span.self_s
        for (_, name), agg in self.aggregates.items():
            out[name.partition(".")[0]] += agg.self_s
        return out

    def inclusive(self, *names: str) -> float:
        """Summed duration of the spans with these names."""
        return sum(s.duration for s in self.spans if s.name in names)

    def span_calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def hot_calls(self, name: str) -> int:
        return sum(a.calls for (_, n), a in self.aggregates.items() if n == name)

    def hot_size_sum(self, name: str) -> int:
        return sum(a.size_sum for (_, n), a in self.aggregates.items() if n == name)

    def hot_size_max(self, name: str, under: str, jobs=None) -> int:
        """Largest per-call size of `name` called directly under spans named `under`.

        With `jobs`, only spans of those jobs count.
        """
        return max(
            (
                a.size_max
                for (parent, n), a in self.aggregates.items()
                if n == name
                and parent is not None
                and self.spans[parent].name == under
                and (jobs is None or self.spans[parent].job in jobs)
            ),
            default=0,
        )

    def dump(self) -> list[dict]:
        """Spans and aggregates as JSON-ready records."""
        records = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "job": s.job,
                "self_s": s.self_s,
            }
            for s in self.spans
        ]
        records += [
            {
                "name": name,
                "parent": parent,
                "calls": a.calls,
                "total_s": a.total_s,
                "self_s": a.self_s,
            }
            for (parent, name), a in self.aggregates.items()
        ]
        return records
