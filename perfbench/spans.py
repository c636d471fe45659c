"""Benchmark-side spans around the program's public entry points.

The traced run wraps the callables listed in :data:`perfbench.api.
SPAN_TARGETS` — *before* the deployment is built, so the handlers every
peer registers get wrapped too — and records one span per call: name,
layer, start, end, parent span and the benchmark op it belongs to.
Nothing under ``src/`` changes; the wrappers sit on class attributes
and module globals and are removed again by :meth:`SpanRecorder.
uninstall`.

A span's *self time* is its duration minus the time its child spans
cover, accumulated per name while the run proceeds, so per-layer
``*_self_s`` numbers cover every call even though only the first
:data:`SPAN_CAP` spans are kept for the JSONL file.  Wrapping costs
about a microsecond per call, which is why end-to-end numbers always
come from an untraced run and ``host.span_overhead_ratio`` reports the
difference.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from types import MethodType
from typing import Any, Callable

from perfbench.api import PGRID_HANDLER_KINDS, SPAN_TARGETS

#: spans kept in memory for the trace file; aggregates cover all calls
SPAN_CAP = 100_000

#: spans whose result sizes are summed too (``storage.rows_per_match``)
SIZED_SPANS = frozenset({"storage.match"})


def resolve_target(path: str) -> tuple[Any, str, Any]:
    """``"module:Attr.path"`` -> ``(owner, attribute name, raw value)``.

    ``raw value`` is the entry in the owner's ``__dict__`` (so static
    and class methods come back still wrapped in their descriptor).
    """
    module_name, _, attr_path = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


class SpanRecorder:
    """Installs the wrappers and accumulates spans and self times."""

    def __init__(self, cap: int = SPAN_CAP) -> None:
        self.cap = cap
        #: kept spans: (id, parent id, name, layer, start, end, op)
        self.spans: list[tuple] = []
        #: spans seen (kept or not)
        self.count = 0
        #: open-span stack of [child seconds, span id]
        self._stack: list[list] = []
        #: "layer.name" -> [calls, total seconds, self seconds, and for
        #: :data:`SIZED_SPANS` the summed ``len()`` of the results]
        self.totals: dict[str, list] = {}
        #: the benchmark op currently running (set by the workload)
        self.op: int | None = None
        self._patched: list[tuple[Any, str, Any]] = []

    # -- wrapping --------------------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """A span-recording stand-in for ``fn``."""
        recorder = self
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        cap = self.cap
        key = f"{layer}.{name}"
        sized = key in SIZED_SPANS
        stats = self.totals.setdefault(key, [0, 0.0, 0.0, 0])

        def span_wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = recorder.count
            recorder.count = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    stats[3] += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span_id < cap:
                    spans.append((span_id, parent, name, layer, start, end,
                                  recorder.op))

        span_wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return span_wrapper

    def exclude(self, seconds: float) -> None:
        """Take the benchmark's own time out of the open span's self
        time (a calibration spin taken inside a program call)."""
        if self._stack:
            self._stack[-1][0] += seconds

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target; call before the deployment is built."""
        for span_name, layer, path in SPAN_TARGETS:
            owner, name, raw = resolve_target(path)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped: Any = type(raw)(
                    self.wrap(raw.__func__, span_name, layer))
                self._patch(owner, name, wrapped)
                continue
            wrapped = self.wrap(raw, span_name, layer)
            self._patch(owner, name, wrapped)
            if isinstance(owner, type):
                continue
            # A module function: also replace the copies other modules
            # (the program's and the benchmark's) bound with
            # ``from x import f``.
            for module_name, module in list(sys.modules.items()):
                if (module is None or module is owner or not
                        module_name.startswith(("repro", "perfbench"))):
                    continue
                for alias, bound in list(vars(module).items()):
                    if bound is raw:
                        self._patch(module, alias, wrapped)
        self._wrap_handlers()

    def _wrap_handlers(self) -> None:
        """Wrap every callable handed to ``Node.register_handler``."""
        owner, name, original = resolve_target(
            "repro.simnet.network:Node.register_handler")
        recorder = self
        #: (function, kind) -> wrapper; bound methods share one wrapper
        #: per underlying function — at 10k peers x 10 kinds a closure
        #: per registration would dominate the traced run
        shared: dict[tuple[Any, str], Callable] = {}

        def register_handler(node: Any, kind: str, handler: Callable) -> None:
            layer = "pgrid" if kind in PGRID_HANDLER_KINDS else "mediation"
            function = getattr(handler, "__func__", None)
            if function is None:
                wrapped = recorder.wrap(handler, f"handler:{kind}", layer)
            else:
                wrapper = shared.get((function, kind))
                if wrapper is None:
                    wrapper = shared[function, kind] = recorder.wrap(
                        function, f"handler:{kind}", layer)
                wrapped = MethodType(wrapper, handler.__self__)
            original(node, kind, wrapped)

        self._patch(owner, name, register_handler)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- reading ---------------------------------------------------------

    def end_phase(self) -> dict[str, tuple]:
        """Totals of the phase that just ended; starts the next phase
        with zeroed totals and an empty span buffer.

        Everything is reset in place — the wrappers hold on to the
        per-name lists and the span list.  Call between top-level
        calls only (no span may be open).
        """
        snapshot = {}
        for key, stats in self.totals.items():
            if stats[0]:
                snapshot[key] = tuple(stats)
            stats[:] = [0, 0.0, 0.0, 0]
        return snapshot

    def clear_spans(self) -> None:
        """Forget the kept spans, so the buffer holds one phase only."""
        self.spans.clear()
        self.count = 0

    def write_jsonl(self, path: str) -> int:
        """Write the kept spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, layer, start, end, op in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "layer": layer, "start": start, "end": end, "op": op,
                }) + "\n")
        return len(self.spans)
