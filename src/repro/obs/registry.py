"""The statistics plane: one way to declare a stat bag, one registry
of views over the live ones.

Every number the reproduction reports leaves the system through a
:class:`CounterGroup`.  A bag **declares** its names once — scalar
counters (``_fields``), per-key counts (``_keyed``, dicts of ``key ->
count``) and derived readings (``_derived``, properties computed from
the counters; ``_unreported`` names the counters only those readings
report) — and the three things every bag needs are written once,
here:

* ``snapshot()`` — a plain-data copy (reports, bench payloads);
* ``add(other)`` / ``total(bags)`` — field-wise sums (per-peer and
  per-shard bags into one deployment-wide bag, a batch's counters into
  its engine's lifetime ones);
* ``reset()`` — back to zero.

Increments stay plain attribute writes (``stats.retries += 1``) on
slotted instances, which is what the inlined hot paths in
``simnet/network.py`` rely on; zeroing and snapshotting are compiled
from the declaration, so they cost what hand-written bodies did.
``tests/test_public_surface.py::test_statistics_are_declared_once``
lists the bags and holds them to the idiom.

A bag reaches a report through a **view**: :class:`MetricsRegistry`
maps a name to a bag's ``snapshot`` (evaluated only when the registry
is snapshotted, so registering costs the hot path nothing), and
:meth:`MetricsRegistry.diff` turns two snapshots into the delta of an
interval — the form ``benchmarks/record.py``, the scenario runner and
the CLI consume.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable


class CounterGroup:
    """A stat bag: counters declared once, summed and reported alike.

    Subclasses declare ``_fields`` / ``_keyed`` / ``_derived`` and
    mirror the first two in ``__slots__`` (an undeclared counter is an
    ``AttributeError``, not a silent new key).  A subclass with
    something extra to report (a nested bag) extends ``snapshot()``
    through ``super()``.
    """

    #: scalar counters, read and incremented as attributes
    _fields: tuple[str, ...] = ()
    #: per-key counts: each a ``dict[str, int]``
    _keyed: tuple[str, ...] = ()
    #: reported beside the counters, never summed or reset: properties
    #: computed from them, or a label
    _derived: tuple[str, ...] = ()
    #: counters summed and reset like the rest but left out of
    #: ``snapshot()`` (read as attributes, or through a derived reading)
    _unreported: tuple[str, ...] = ()
    __slots__ = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Compile the declaration into straight-line zeroing and
        snapshot code, so a bag costs what a hand-written one did (an
        operator pipeline builds and snapshots one bag per operator)."""
        super().__init_subclass__(**kwargs)
        zero = ([f"self.{name} = 0" for name in cls._fields]
                + [f"self.{name} = {{}}" for name in cls._keyed])
        read = ([f"{name!r}: self.{name}" for name in cls._fields
                 if name not in cls._unreported]
                + [f"{name!r}: dict(self.{name})" for name in cls._keyed]
                + [f"{name!r}: self.{name}" for name in cls._derived])
        code: dict[str, Any] = {}
        exec("def zero(self):\n " + "\n ".join(zero or ["pass"])
             + "\ndef read(self):\n return {" + ", ".join(read) + "}", code)
        cls._zero, cls._read = code["zero"], code["read"]

    def __init__(self) -> None:
        self._zero()

    @classmethod
    def total(cls, bags: Iterable["CounterGroup"]) -> "CounterGroup":
        """A fresh bag holding the field-wise sum of ``bags``."""
        summed = cls()
        for bag in bags:
            summed.add(bag)
        return summed

    def items(self) -> list[tuple[str, Any]]:
        """``(name, value)`` of every counter, in declaration order."""
        return [(name, getattr(self, name))
                for name in self._fields + self._keyed]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CounterGroup):
            return self.items() == other.items()
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.items())
        return f"{type(self).__name__}({inner})"

    def snapshot(self) -> dict:
        """A plain-data copy: counters, per-key counts, derived."""
        return self._read()

    def add(self, other: "CounterGroup") -> None:
        """Sum ``other``'s counters into this bag.

        ``other`` may be a narrower bag: every name it declares must be
        declared here too (a batch's fetch counters into the engine's).
        """
        for name in other._fields:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in other._keyed:
            into = getattr(self, name)
            for key, count in getattr(other, name).items():
                into[key] = into.get(key, 0) + count

    def reset(self) -> None:
        """Zero every counter; per-key dicts are emptied in place."""
        for name in self._fields:
            setattr(self, name, 0)
        for name in self._keyed:
            getattr(self, name).clear()


class FailoverCounters(CounterGroup):
    """Replica-failover activity on one peer
    (``PGridPeer.failover_stats``)."""

    _fields = ("failovers", "retries", "gave_up", "cancelled")
    __slots__ = _fields


class MaintenanceCounters(CounterGroup):
    """Overlay-maintenance activity on one peer
    (``PGridPeer.maintenance_stats``; filled by
    :mod:`repro.pgrid.maintenance` and the peer's merge handlers)."""

    _fields = ("probes_sent", "refs_dropped", "refs_added",
               "sync_pushes", "values_repaired")
    __slots__ = _fields


class MetricsRegistry:
    """Named, lazily evaluated snapshot views over live stat bags."""

    def __init__(self) -> None:
        self._views: dict[str, Callable[[], Any]] = {}

    def register_view(self, name: str,
                      snapshot_fn: Callable[[], Any]) -> None:
        """Register a lazily-evaluated snapshot under ``name``
        (normally a bag's bound ``snapshot``).

        The callable runs only when :meth:`snapshot` is taken, so
        registering a view costs the instrumented object nothing on
        its hot path.  Re-registering a name replaces the view (a
        rebuilt engine supersedes its predecessor).
        """
        self._views[name] = snapshot_fn

    def view_names(self) -> list[str]:
        return sorted(self._views)

    def snapshot(self) -> dict:
        """Every view, evaluated now: ``{"views": {name: snapshot}}``."""
        return {"views": {name: fn() for name, fn in
                          sorted(self._views.items())}}

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
