"""Simulation clock."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock


class TestClock:
    def test_starts_at_zero(self):
        clock = SimClock(1000)
        assert clock.period == 0
        assert clock.cycle == 0.0

    def test_advance(self):
        clock = SimClock(1000)
        assert clock.advance_period() == 1
        assert clock.cycle == 1000.0

    def test_positive_period_required(self):
        with pytest.raises(SimulationError):
            SimClock(0)
