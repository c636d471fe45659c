"""Declarative fault schedules: what to break, where, and when.

A :class:`FaultPlan` is an immutable, fully explicit description of
every fault a simulation run will suffer — the FoundationDB-style
premise that a failure is only worth finding if it can be replayed
bit-for-bit from its description.  A plan is a tuple of *clauses*,
each one small enough to print, diff and delete:

* :class:`MessageDrop` / :class:`MessageDuplicate` /
  :class:`MessageDelay` / :class:`MessageReorder` — per-message link
  faults matched by message kind, endpoints and a time window, fired
  with a clause-local seeded probability;
* :class:`Partition` — a symmetric or asymmetric cut between two node
  groups with a *scheduled heal* (messages crossing the cut inside
  the window vanish, exactly like a WAN partition);
* :class:`CrashRestart` — take one node offline at a scheduled time
  and bring it back later (composable with
  :class:`~repro.simnet.churn.ChurnProcess`, which never re-fails a
  node somebody else took down).

Determinism contract
--------------------
Every probabilistic clause draws from its **own** RNG, seeded from
``(plan.seed, clause identity)`` — see :func:`clause_seed`.  Removing
one clause therefore cannot reshuffle the decisions of the others,
which is what makes greedy schedule shrinking
(:mod:`repro.faultlab.explorer`) converge to minimal reproducers.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace

from repro.simnet.network import Message

#: sentinel horizon: "never heals inside any finite run"
FOREVER = math.inf


def _require(ok: bool, clause: object, field: str, accepted: str) -> None:
    """Reject a clause up front: a bad one would otherwise be accepted
    and silently never fire (or fire forever) mid-run."""
    if not ok:
        raise ValueError(
            f"{type(clause).__name__}.{field} must be {accepted}, "
            f"got {getattr(clause, field)!r}")


@dataclass(frozen=True)
class LinkFault:
    """Base matcher for per-message faults.

    ``kinds`` / ``src`` / ``dst`` restrict the matched messages
    (``None`` matches everything); ``start``/``until`` bound the
    active window in virtual seconds *relative to injector install*
    (i.e. to the start of the faulted run, however much virtual time
    deployment building consumed); ``probability`` is the
    per-matching-message firing chance drawn from the clause's own
    RNG.
    """

    kinds: tuple[str, ...] | None = None
    src: tuple[str, ...] | None = None
    dst: tuple[str, ...] | None = None
    start: float = 0.0
    until: float = FOREVER
    probability: float = 1.0

    def __post_init__(self) -> None:
        _require(0.0 <= self.probability <= 1.0, self, "probability",
                 "in [0, 1]")
        _require(self.start <= self.until, self, "start",
                 f"<= until ({self.until!r})")

    def matches(self, message: Message, now: float) -> bool:
        """Whether ``message`` sent at ``now`` falls under this clause."""
        if not (self.start <= now < self.until):
            return False
        if self.kinds is not None and message.kind not in self.kinds:
            return False
        if self.src is not None and message.src not in self.src:
            return False
        if self.dst is not None and message.dst not in self.dst:
            return False
        return True

    def _window(self) -> str:
        until = "forever" if self.until == FOREVER else f"{self.until:g}s"
        return f"[{self.start:g}s..{until})"

    def _scope(self) -> str:
        parts = []
        if self.kinds is not None:
            parts.append("kind " + "|".join(self.kinds))
        if self.src is not None:
            parts.append("src " + "|".join(self.src))
        if self.dst is not None:
            parts.append("dst " + "|".join(self.dst))
        return ", ".join(parts) if parts else "all messages"


@dataclass(frozen=True)
class MessageDrop(LinkFault):
    """Silently drop matching messages (lossy link)."""

    action = "drop"

    def describe(self) -> str:
        return (f"drop p={self.probability:g} {self._scope()} "
                f"{self._window()}")


@dataclass(frozen=True)
class MessageDuplicate(LinkFault):
    """Deliver ``copies`` extra copies of matching messages.

    Copies arrive ``spread`` seconds (uniform, clause RNG) after the
    original — the at-least-once delivery a retrying transport shows.
    """

    copies: int = 1
    spread: float = 5.0

    action = "duplicate"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.copies >= 1, self, "copies", ">= 1")

    def describe(self) -> str:
        return (f"duplicate x{self.copies} p={self.probability:g} "
                f"{self._scope()} {self._window()}")


@dataclass(frozen=True)
class MessageDelay(LinkFault):
    """Add uniform extra latency in ``[jitter_min, jitter_max)``."""

    jitter_min: float = 1.0
    jitter_max: float = 10.0

    action = "delay"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.jitter_min <= self.jitter_max, self, "jitter_min",
                 f"<= jitter_max ({self.jitter_max!r})")

    def describe(self) -> str:
        return (f"delay +[{self.jitter_min:g}s..{self.jitter_max:g}s) "
                f"p={self.probability:g} {self._scope()} {self._window()}")


@dataclass(frozen=True)
class MessageReorder(LinkFault):
    """Hold a message back so later traffic on its link overtakes it.

    The held message is released right after the *next* message sent
    on the same ``(src, dst)`` link is delivered — a genuine
    pairwise reordering, not just jitter — or after ``hold_max``
    seconds if the link stays quiet.
    """

    hold_max: float = 20.0

    action = "reorder"

    def describe(self) -> str:
        return (f"reorder (hold<= {self.hold_max:g}s) "
                f"p={self.probability:g} {self._scope()} {self._window()}")


@dataclass(frozen=True)
class Partition:
    """A network cut between two node groups with a scheduled heal.

    Messages from ``side_a`` to ``side_b`` sent in ``[start,
    heal_at)`` are dropped (and the reverse direction too when
    ``symmetric``).  Nodes in neither group are unaffected.  Both
    endpoints must be partitioned for a message to die — traffic
    inside one side always flows.
    """

    side_a: tuple[str, ...]
    side_b: tuple[str, ...]
    start: float = 0.0
    heal_at: float = FOREVER
    symmetric: bool = True

    action = "partition"

    def __post_init__(self) -> None:
        _require(self.start <= self.heal_at, self, "start",
                 f"<= heal_at ({self.heal_at!r})")
        for side in ("side_a", "side_b"):
            _require(len(getattr(self, side)) > 0, self, side, "non-empty")
        _require(not set(self.side_a) & set(self.side_b), self, "side_b",
                 "disjoint from side_a")

    def blocks(self, message: Message, now: float) -> bool:
        """Whether this cut kills ``message`` at time ``now``."""
        if not (self.start <= now < self.heal_at):
            return False
        if message.src in self.side_a and message.dst in self.side_b:
            return True
        return (self.symmetric
                and message.src in self.side_b
                and message.dst in self.side_a)

    def describe(self) -> str:
        arrow = "<-x->" if self.symmetric else "-x->"
        heal = "never heals" if self.heal_at == FOREVER \
            else f"heals {self.heal_at:g}s"
        return (f"partition {len(self.side_a)} {arrow} "
                f"{len(self.side_b)} peers [{self.start:g}s.., {heal}]")


@dataclass(frozen=True)
class CrashRestart:
    """Crash one node at ``at`` and restart it at ``restart_at``.

    ``restart_at=FOREVER`` leaves the node down for the whole run;
    the injector still restores it on uninstall, so no plan can leak a
    permanently dead node past its own simulation.
    """

    node: str
    at: float
    restart_at: float = FOREVER

    action = "crash"

    def __post_init__(self) -> None:
        _require(self.restart_at >= self.at, self, "restart_at",
                 f">= at ({self.at!r})")

    def describe(self) -> str:
        back = "for good" if self.restart_at == FOREVER \
            else f"back {self.restart_at:g}s"
        return f"crash {self.node} at {self.at:g}s ({back})"


#: all clause types a plan may carry (order = display order)
CLAUSE_TYPES = (MessageDrop, MessageDuplicate, MessageDelay,
                MessageReorder, Partition, CrashRestart)


def clause_seed(plan_seed: int, clause, ordinal: int = 0) -> int:
    """Deterministic per-clause RNG seed from the clause's identity.

    Seeding from ``repr`` (stable for frozen dataclasses of strings,
    ints and floats) instead of the clause's *position* means deleting
    a sibling clause never changes this clause's decisions — the
    property schedule shrinking relies on.  ``ordinal`` distinguishes
    repeated *identical* clauses in one plan (the n-th copy gets an
    independent stream, so stacking the same fault twice compounds
    instead of firing in lockstep); it is 0 for the first occurrence,
    keeping unique-clause plans byte-stable.
    """
    identity = repr(clause) if ordinal == 0 else f"{ordinal}:{clause!r}"
    return plan_seed ^ zlib.crc32(identity.encode("utf-8"))


@dataclass(frozen=True)
class FaultPlan:
    """One immutable fault schedule.

    ``seed`` feeds every probabilistic clause (via
    :func:`clause_seed`); ``faults`` is the clause tuple.  The empty
    plan is a strict no-op: installing it changes nothing observable.
    """

    seed: int = 0
    faults: tuple = ()

    def __len__(self) -> int:
        return len(self.faults)

    def without(self, index: int) -> "FaultPlan":
        """A copy with the ``index``-th clause removed (for shrinking)."""
        kept = self.faults[:index] + self.faults[index + 1:]
        return replace(self, faults=kept)

    def describe(self) -> list[str]:
        """Human-readable schedule, one line per clause."""
        if not self.faults:
            return ["(no faults)"]
        return [f"[{i}] {clause.describe()}"
                for i, clause in enumerate(self.faults)]


__all__ = [
    "CLAUSE_TYPES",
    "CrashRestart",
    "FOREVER",
    "FaultPlan",
    "LinkFault",
    "MessageDelay",
    "MessageDrop",
    "MessageDuplicate",
    "MessageReorder",
    "Partition",
    "clause_seed",
]
