"""In-memory span recorder that times calls into the program's layers.

The benchmark does not edit the program.  A :class:`Tracer` replaces a
public function or method by a wrapper that records one span per call
(name, start, end, parent span, trace id) and, optionally, a few
attributes read from the call's return value.  Spans stay in memory
until :meth:`Tracer.dump` writes them out at the end of a run.

Where the program looks a function up decides where it must be wrapped:
``repro.session`` calls the ``plan_for_selection_ratio`` it imported, so
the wrapper replaces that module attribute, not the definition in
``repro.budget``.
"""

from __future__ import annotations

import importlib
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module, attribute path, span name, attribute extractor or None).
Target = Tuple[str, str, str, Optional[Callable[[object], Dict[str, float]]]]


class Tracer:
    """Span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.trace_id: Optional[str] = None
        self._local = threading.local()
        self._ids = 0
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             extract: Optional[Callable[[object], Dict[str, float]]] = None):
        with self._lock:
            self._ids += 1
            span_id = self._ids
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = {"id": span_id, "parent": parent, "trace": self.trace_id,
                "name": name, "start": start, "end": end}
        if extract is not None:
            try:
                span["attrs"] = extract(result)
            except (AttributeError, TypeError):
                # The result no longer carries the count: it reads 0.
                span["attrs"] = {}
        with self._lock:
            self.spans.append(span)
        return result

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span."""
        return self.call(name, fn, args, kwargs)

    # -- wrapping the program's functions -----------------------------------

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap each target; a target the program no longer has is noted
        in :attr:`missing` and its layer reports no spans."""
        for module_name, path, name, extract in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrapper(name, original, extract))
            self._installed.append((owner, attr, original))

    def _wrapper(self, name, original, extract):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, extract)

        traced.__wrapped__ = original
        return traced

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- summaries ------------------------------------------------------------

    def by_trace(self) -> Dict[Optional[str], Dict[str, Dict[str, float]]]:
        """Per trace id and span name: call count, total and self seconds
        (self = duration minus the time its child spans cover), and the
        summed attributes."""
        children = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        out: Dict[Optional[str], Dict[str, Dict[str, float]]] = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            entry = out.setdefault(span["trace"], {}).setdefault(
                span["name"], defaultdict(float))
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - children[span["id"]]
            for key, value in span.get("attrs", {}).items():
                entry[key] += value
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"missing": self.missing,
                                    "spans": self.spans}))


def count(obj, name: str) -> float:
    """A count read off a call's result, for span attributes."""
    return float(getattr(obj, name, 0) or 0)


def median_over_traces(summary: Dict[Optional[str], Dict[str, Dict[str, float]]],
                       name: str, field: str) -> float:
    """Median, over traces, of one span field; 0.0 when the span never
    ran (the layer is not on this workload's path)."""
    values = [spans[name][field] for spans in summary.values()
              if name in spans]
    return statistics.median(values) if values else 0.0
