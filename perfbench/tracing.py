"""Spans recorded by the benchmark around calls into the program's layers.

The program is not instrumented for this benchmark.  In a traced run the
benchmark replaces each layer's public function, wherever a loaded
``repro`` module holds a reference to it, with a wrapper that records a
span (name, start, end, parent, request id).  A layer's self time is its
spans' duration minus the part covered by their child spans.

A layer function that a later version of the program no longer has is
reported as missing and its metrics read 0; the run itself goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (module, function, span name): the layer boundaries the benchmark
#: times.  Several functions may share one span name (one layer).  A
#: function called inside another layer (the LO-mode test inside the x
#: tuning, say) is deliberately not listed: its time stays in the self
#: time of the layer that calls it.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api", "analyze_many", "pipeline"),
    ("repro.pipeline.request", "evaluate_request", "pipeline.request"),
    ("repro.pipeline.grouping", "evaluate_chunk_grouped", "pipeline.request"),
    ("repro.analysis.tuning", "min_preparation_factor", "analysis.tuning"),
    ("repro.analysis.speedup", "min_speedup", "analysis.speedup"),
    ("repro.analysis.resetting", "resetting_time", "analysis.resetting"),
    ("repro.analysis.kernels", "compile_taskset", "analysis.kernels.compile"),
    ("repro.analysis.kernels", "compile_tasksets", "analysis.kernels.compile"),
    ("repro.analysis.kernels", "compile_population", "analysis.kernels.compile"),
    ("repro.analysis.population", "_exact_x_lockstep", "analysis.population"),
    ("repro.analysis.population", "_lo_schedulable_lockstep", "analysis.population"),
    ("repro.analysis.population", "_min_speedup_lockstep", "analysis.population"),
    ("repro.analysis.population", "_resetting_lockstep", "analysis.population"),
    ("repro.model.transform", "apply_uniform_scaling", "model.transform"),
    ("repro.model.fingerprint", "taskset_fingerprint", "model.fingerprint"),
    ("repro.service.schema", "parse_analyze_payload", "service.schema.parse"),
    ("repro.io", "taskset_from_json", "io.decode"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid")

    def __init__(self, name: str, start: float, parent: Optional[int], rid) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder (single thread) plus the function patcher."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.rid = None
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, Callable]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent, self.rid)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self) -> None:
        """Wrap every layer function in every loaded ``repro`` module."""
        for module_name, attr, name in LAYER_FUNCTIONS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, fn)
            for loaded in list(sys.modules.values()):
                module_path = getattr(loaded, "__name__", "")
                if module_path != "repro" and not module_path.startswith("repro."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is fn:
                        setattr(loaded, key, wrapper)
                        self._patched.append((loaded, key, fn))

    def unpatch(self) -> None:
        while self._patched:
            module, key, fn = self._patched.pop()
            setattr(module, key, fn)


class LayerTotals:
    """Per-layer aggregates of one traced pass."""

    def __init__(self, spans: Sequence[Span]) -> None:
        child = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        for index, span in enumerate(spans):
            name = span.name
            self.self_s[name] = self.self_s.get(name, 0.0) + span.duration - child[index]
            self.total_s[name] = self.total_s.get(name, 0.0) + span.duration
            self.calls[name] = self.calls.get(name, 0) + 1

    def self_ms(self, name: str) -> float:
        return 1e3 * self.self_s.get(name, 0.0)

    def mean_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e3 * self.total_s.get(name, 0.0) / calls if calls else 0.0
