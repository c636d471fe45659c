"""Unified metrics plane: one registry over the repo's stat bags.

Before this module the simulator had four disjoint, hand-rolled stat
containers — :class:`~repro.simnet.metrics.NetworkMetrics`,
:class:`~repro.engine.core.EngineStats`,
:class:`~repro.exec.stream.OperatorStats` and the bare
``failover_stats`` dict on :class:`~repro.pgrid.peer.PGridPeer` — each
with its own snapshot idiom.  The registry unifies them without
touching their hot paths:

* native **counters / gauges / histograms** with optional label
  tuples, for new instrumentation;
* **views** — lazily evaluated snapshot callables the existing bags
  register (``stats.register_into(registry)``).  The bags keep their
  plain-attribute increments (the inlined hot paths in
  ``simnet/network.py`` depend on them); the registry evaluates the
  view only when a snapshot is taken;
* a ``snapshot()`` / ``diff()`` API consumed by ``benchmarks/record.py``
  and the CLI.

:class:`CounterGroup` is the typed replacement for stringly-keyed
counter dicts: fields are declared once, and reads and increments are
attribute accesses (faster than dict item access on slot classes).
"""

from __future__ import annotations

from typing import Any, Callable


class CounterGroup:
    """A fixed set of named integer counters.

    Subclasses declare ``_fields`` (and normally mirror it in
    ``__slots__``); counters are read and incremented as attributes
    (``group.retries += 1``).
    """

    _fields: tuple[str, ...] = ()
    __slots__ = ()

    def __init__(self) -> None:
        for name in self._fields:
            setattr(self, name, 0)

    def items(self) -> list[tuple[str, int]]:
        return [(name, getattr(self, name)) for name in self._fields]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CounterGroup):
            return self.items() == other.items()
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.items())
        return f"{type(self).__name__}({inner})"

    def snapshot(self) -> dict:
        """A plain-dict copy (registry view / report payloads)."""
        return dict(self.items())

    def reset(self) -> None:
        for name in self._fields:
            setattr(self, name, 0)


class FailoverCounters(CounterGroup):
    """Typed counters of replica-failover activity on one peer
    (``PGridPeer.failover_stats``)."""

    _fields = ("failovers", "retries", "gave_up", "cancelled")
    __slots__ = _fields


def _series_key(name: str, labels: tuple) -> tuple:
    return (name, labels)


class MetricsRegistry:
    """Counters, gauges, histograms and registered snapshot views."""

    def __init__(self) -> None:
        self._counters: dict[tuple, int | float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, list[float]] = {}
        self._views: dict[str, Callable[[], Any]] = {}

    # -- native series -------------------------------------------------

    def inc(self, name: str, value: int | float = 1,
            labels: tuple = ()) -> None:
        """Increment a labeled counter series."""
        key = _series_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float,
                  labels: tuple = ()) -> None:
        """Set a labeled gauge to its current value."""
        self._gauges[_series_key(name, labels)] = value

    def observe(self, name: str, value: float,
                labels: tuple = ()) -> None:
        """Add one observation to a labeled histogram series."""
        self._histograms.setdefault(_series_key(name, labels),
                                    []).append(value)

    def counter_value(self, name: str, labels: tuple = ()) -> int | float:
        return self._counters.get(_series_key(name, labels), 0)

    # -- views over existing stat bags ---------------------------------

    def register_view(self, name: str,
                      snapshot_fn: Callable[[], Any]) -> None:
        """Register a lazily-evaluated snapshot under ``name``.

        The callable runs only when :meth:`snapshot` is taken, so
        registering a view costs the instrumented object nothing on
        its hot path.  Re-registering a name replaces the view (a
        rebuilt engine supersedes its predecessor).
        """
        self._views[name] = snapshot_fn

    def view_names(self) -> list[str]:
        return sorted(self._views)

    # -- snapshot / diff -----------------------------------------------

    @staticmethod
    def _render(series: dict) -> dict:
        rendered: dict[str, Any] = {}
        for (name, labels), value in sorted(series.items(),
                                            key=lambda kv: kv[0]):
            key = name if not labels else (
                name + "{" + ",".join(map(str, labels)) + "}")
            rendered[key] = value
        return rendered

    def snapshot(self) -> dict:
        """Full plain-data state: native series + evaluated views."""
        histograms = {}
        for (name, labels), values in sorted(self._histograms.items(),
                                             key=lambda kv: kv[0]):
            key = name if not labels else (
                name + "{" + ",".join(map(str, labels)) + "}")
            histograms[key] = {
                "count": len(values),
                "sum": sum(values),
                "min": min(values),
                "max": max(values),
            }
        return {
            "counters": self._render(self._counters),
            "gauges": self._render(self._gauges),
            "histograms": histograms,
            "views": {name: fn() for name, fn in
                      sorted(self._views.items())},
        }

    @staticmethod
    def diff(before: dict, after: dict) -> dict:
        """Structural numeric delta of two snapshots.

        Numeric leaves subtract (zero deltas dropped); non-numeric
        leaves keep the ``after`` value when it changed.  The shape
        mirrors the snapshots, so a diff can itself be recorded.
        """
        def walk(b: Any, a: Any) -> Any:
            if isinstance(b, dict) and isinstance(a, dict):
                out = {}
                for key in a:
                    if key in b:
                        delta = walk(b[key], a[key])
                        if delta not in (None, {}, 0):
                            out[key] = delta
                    else:
                        out[key] = a[key]
                return out
            if isinstance(b, bool) or isinstance(a, bool):
                return a if a != b else None
            if isinstance(b, (int, float)) and isinstance(a, (int, float)):
                delta = a - b
                return delta if delta else 0
            return a if a != b else None

        result = walk(before, after)
        return result if isinstance(result, dict) else {}
