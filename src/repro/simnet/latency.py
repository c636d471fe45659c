"""Latency models for the simulated wide-area network.

The paper's §2.3 deployment measured 340 machines "scattered around the
world": 40 % of triple-pattern queries answered within one second and
75 % within five seconds.  Those anchor points imply a heavy-tailed
per-hop latency distribution (median WAN RTTs of tens to a couple of
hundred milliseconds, with a straggler tail from loaded or distant
peers).  :class:`LogNormalWANLatency` models exactly that:

* a per-*pair* base one-way delay, log-normally distributed (geographic
  spread is sticky: the same pair of machines keeps roughly the same
  RTT across messages);
* per-message jitter on top of the base delay;
* a straggler mixture: with probability ``straggler_prob`` a node is
  "slow" (overloaded PlanetLab-style host) and every message it
  receives incurs an additional heavy service delay.

Simpler models (:class:`ConstantLatency`, :class:`UniformLatency`) are
provided for unit tests and hop-count benches where the latency value
itself is irrelevant.
"""

from __future__ import annotations

import math
import random
from typing import Protocol


class LatencyModel(Protocol):
    """Samples a one-way message delay between two nodes, in seconds."""

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        """Delay for one message from ``src`` to ``dst``."""
        ...

    def min_delay(self) -> float:
        """Lower bound on any sampled delay (the *lookahead* bound).

        A conservative parallel simulation may run shards independently
        for a window of this length: no message sent inside the window
        can arrive at another shard before the window closes.  Models
        with no positive lower bound return ``0.0`` and cannot be
        sharded: the sharded transport refuses them.
        """
        ...


class ConstantLatency:
    """Every message takes exactly ``delay`` seconds."""

    def __init__(self, delay: float = 0.05) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        return self.delay

    def min_delay(self) -> float:
        return self.delay


class UniformLatency:
    """Delay drawn uniformly from ``[low, high]`` per message."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ValueError("need 0 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def min_delay(self) -> float:
        return self.low


class LogNormalWANLatency:
    """Wide-area model: sticky per-pair base delay + jitter + stragglers.

    Parameters
    ----------
    median_ms:
        Median one-way base delay between a random pair of hosts.
    sigma:
        Log-normal shape parameter of the base delay (0.8 gives a
        realistic one-to-two-orders-of-magnitude WAN spread).
    jitter_ms:
        Mean of the exponential per-message jitter.
    straggler_prob:
        Probability that a given *destination* host is persistently
        slow (overloaded shared testbed machine).
    straggler_ms:
        Mean extra exponential service delay at a slow host.
    """

    def __init__(
        self,
        median_ms: float = 60.0,
        sigma: float = 0.8,
        jitter_ms: float = 10.0,
        straggler_prob: float = 0.12,
        straggler_ms: float = 2500.0,
    ) -> None:
        if median_ms <= 0 or jitter_ms < 0 or straggler_ms < 0:
            raise ValueError("latency parameters must be positive")
        if not 0 <= straggler_prob <= 1:
            raise ValueError("straggler_prob must be a probability")
        self.median_ms = median_ms
        self.sigma = sigma
        self.jitter_ms = jitter_ms
        self.straggler_prob = straggler_prob
        self.straggler_ms = straggler_ms
        self._pair_base: dict[tuple[str, str], float] = {}
        self._slow_hosts: dict[str, bool] = {}

    def _base_delay(self, src: str, dst: str, rng: random.Random) -> float:
        """Sticky log-normal base delay for an unordered host pair."""
        pair = (src, dst) if src <= dst else (dst, src)
        base = self._pair_base.get(pair)
        if base is None:
            mu = math.log(self.median_ms / 1000.0)
            base = rng.lognormvariate(mu, self.sigma)
            self._pair_base[pair] = base
        return base

    def _is_slow(self, host: str, rng: random.Random) -> bool:
        slow = self._slow_hosts.get(host)
        if slow is None:
            slow = rng.random() < self.straggler_prob
            self._slow_hosts[host] = slow
        return slow

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        delay = self._base_delay(src, dst, rng)
        if self.jitter_ms:
            delay += rng.expovariate(1000.0 / self.jitter_ms)
        if self._is_slow(dst, rng):
            delay += rng.expovariate(1000.0 / self.straggler_ms)
        return delay

    def min_delay(self) -> float:
        # The log-normal base has no positive lower bound.
        return 0.0
