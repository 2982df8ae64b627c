"""Simulation time bookkeeping.

Time has two granularities: *cycles* (the core/cache/memory models) and
*periods* (the CAER probe quantum, ``MachineConfig.period_cycles`` long).
:class:`SimClock` keeps both in step.
"""

from __future__ import annotations

from ..errors import SimulationError


class SimClock:
    """Monotonic period/cycle clock for one simulation run."""

    def __init__(self, period_cycles: int):
        if period_cycles <= 0:
            raise SimulationError(
                f"period_cycles must be positive: {period_cycles}"
            )
        self.period_cycles = period_cycles
        self.period = 0

    @property
    def cycle(self) -> float:
        """Cycle count at the start of the current period."""
        return float(self.period) * self.period_cycles

    def advance_period(self) -> int:
        """Move to the next period; returns the new period index."""
        self.period += 1
        return self.period

    def __repr__(self) -> str:
        return f"SimClock(period={self.period}, cycle={self.cycle:.0f})"
