"""Main-memory model: fixed latency plus rate-based bandwidth queueing.

The paper notes (§2) that contention further down the memory subsystem —
bus, memory controller, DRAM — "manifests as traffic off-chip and thus
shows up as misses in the last level cache".  We therefore model main
memory as the service point for L3 misses: every off-chip access pays a
base DRAM latency plus a queueing delay that grows with the *aggregate*
miss rate of all cores.  Two co-located streaming applications thus slow
each other both through L3 evictions *and* through memory-bandwidth
pressure, as on real hardware.

Because the engine interleaves cores at slice granularity (not per
access), per-request timestamps are only approximately ordered, so a
busy-until queue would charge phantom delays to whichever core happens
to be simulated second.  Instead the channel keeps an M/D/1-style
estimate: the engine reports the end of each probe period, the channel
computes last period's utilisation ``rho = arrivals * service /
period_cycles``, and every access in the next period pays the classic
mean waiting time ``service * rho / (2 * (1 - rho))``.  The estimate is
deterministic, identical for all cores, and one period behind — a fine
approximation at 40 K-cycle periods.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

#: Cap on modelled channel utilisation, bounding the queueing delay.
MAX_RHO = 0.95


class MainMemory:
    """Latency + bandwidth model for the off-chip memory path."""

    def __init__(
        self,
        latency: int = 200,
        service_cycles: float | None = 36.0,
        smoothing: float = 0.5,
    ):
        """Create a memory channel.

        ``service_cycles`` is the channel occupancy of one line transfer
        (the reciprocal of *sustained* bandwidth — lower than the DDR3
        peak because of bank conflicts and read/write turnarounds; the
        default was calibrated so one streaming core loads the channel
        to ~50% and a co-located streaming pair slows each other by
        ~20-40%, the lbm-with-lbm regime of the paper's Figure 1).
        Pass ``None`` to disable bandwidth modelling (infinite
        bandwidth).  ``smoothing`` is the EWMA weight of the newest
        period's utilisation — the damping keeps the one-period-lagged
        estimate from oscillating under heavy load.
        """
        if not 0.0 < smoothing <= 1.0:
            raise ConfigError(f"smoothing must be in (0, 1]: {smoothing}")
        self.smoothing = smoothing
        if latency <= 0:
            raise ConfigError(f"memory latency must be positive: {latency}")
        if service_cycles is not None and service_cycles <= 0:
            raise ConfigError(
                f"service_cycles must be positive or None: {service_cycles}"
            )
        self.latency = latency
        self.service_cycles = service_cycles or 0.0
        self.accesses = 0
        self.total_queue_cycles = 0.0
        self._arrivals_this_period = 0
        self._queue_delay = 0.0
        self._rho = 0.0
        #: per-period utilisation history (for tests and reports)
        self.rho_history: list[float] = []

    def access(self) -> float:
        """Cost in cycles of one off-chip access.

        The rate-based model prices every access in a period
        identically, so the cost does not depend on when it is issued.
        """
        self.accesses += 1
        self._arrivals_this_period += 1
        self.total_queue_cycles += self._queue_delay
        return self.latency + self._queue_delay

    def access_bulk(self, count: int) -> None:
        """Record ``count`` off-chip accesses issued by one batch.

        Bookkeeping-identical to ``count`` sequential :meth:`access`
        calls (the rate-based model prices every access in a period the
        same, so order inside a batch cannot matter): the queue-cycle
        total is accumulated with the same per-access float adds so a
        batched run stays bit-identical to a scalar one.
        """
        self.accesses += count
        self._arrivals_this_period += count
        delay = self._queue_delay
        if delay:
            if count >= 64:
                # np.add.accumulate is a sequential left-to-right fold,
                # so seeding slot 0 with the running total reproduces
                # the loop's add sequence bit for bit at C speed.
                fold = np.full(count + 1, delay, dtype=np.float64)
                fold[0] = self.total_queue_cycles
                self.total_queue_cycles = float(
                    np.add.accumulate(fold)[-1]
                )
            else:
                total = self.total_queue_cycles
                for _ in range(count):
                    total += delay
                self.total_queue_cycles = total

    def end_period(self, period_cycles: int) -> None:
        """Recompute the queueing delay from last period's arrivals."""
        if not self.service_cycles:
            self._arrivals_this_period = 0
            return
        raw = self._arrivals_this_period * self.service_cycles / period_cycles
        raw = min(raw, MAX_RHO)
        self._rho += self.smoothing * (raw - self._rho)
        self.rho_history.append(self._rho)
        # M/D/1 mean waiting time.
        self._queue_delay = (
            self.service_cycles * self._rho / (2.0 * (1.0 - self._rho))
        )
        self._arrivals_this_period = 0

    @property
    def current_queue_delay(self) -> float:
        """Queueing delay charged to accesses this period."""
        return self._queue_delay

    @property
    def mean_queue_cycles(self) -> float:
        """Average queueing delay per access so far."""
        return (
            self.total_queue_cycles / self.accesses if self.accesses else 0.0
        )

    def reset(self) -> None:
        """Clear all rate estimates and statistics."""
        self.accesses = 0
        self.total_queue_cycles = 0.0
        self._arrivals_this_period = 0
        self._queue_delay = 0.0
        self._rho = 0.0
        self.rho_history = []

    def __repr__(self) -> str:
        return (
            f"MainMemory(latency={self.latency}, "
            f"service={self.service_cycles}, "
            f"mean_queue={self.mean_queue_cycles:.2f})"
        )
