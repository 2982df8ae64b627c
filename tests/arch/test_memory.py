"""Main-memory latency/bandwidth model."""

from __future__ import annotations

import pytest

from repro.arch.memory import MAX_RHO, MainMemory
from repro.errors import ConfigError


class TestBasics:
    def test_base_latency_with_idle_channel(self):
        mem = MainMemory(latency=200, service_cycles=20.0)
        assert mem.access() == 200.0

    def test_bandwidth_disabled(self):
        mem = MainMemory(latency=150, service_cycles=None)
        for _ in range(1000):
            assert mem.access() == 150.0
        mem.end_period(1_000)
        assert mem.access() == 150.0

    def test_queue_grows_with_load(self):
        mem = MainMemory(latency=200, service_cycles=20.0)
        for _ in range(40):  # rho = 40*20/1000 = 0.8
            mem.access()
        mem.end_period(1_000)
        loaded = mem.access()
        assert loaded > 200.0

    def test_queue_follows_mdi_formula(self):
        mem = MainMemory(latency=200, service_cycles=20.0, smoothing=1.0)
        for _ in range(25):  # rho = 0.5
            mem.access()
        mem.end_period(1_000)
        expected = 20.0 * 0.5 / (2 * 0.5)
        assert mem.current_queue_delay == pytest.approx(expected)

    def test_rho_capped(self):
        mem = MainMemory(latency=200, service_cycles=20.0, smoothing=1.0)
        for _ in range(10_000):
            mem.access()
        mem.end_period(1_000)
        assert mem.rho_history[-1] == pytest.approx(MAX_RHO)

    def test_smoothing_damps_jumps(self):
        fast = MainMemory(latency=200, service_cycles=20.0, smoothing=1.0)
        slow = MainMemory(latency=200, service_cycles=20.0, smoothing=0.25)
        for mem in (fast, slow):
            for _ in range(40):
                mem.access()
            mem.end_period(1_000)
        assert slow.current_queue_delay < fast.current_queue_delay

    def test_idle_period_decays_queue(self):
        mem = MainMemory(latency=200, service_cycles=20.0)
        for _ in range(40):
            mem.access()
        mem.end_period(1_000)
        busy = mem.current_queue_delay
        mem.end_period(1_000)  # no arrivals
        assert mem.current_queue_delay < busy

    def test_reset(self):
        mem = MainMemory()
        mem.access()
        mem.end_period(1_000)
        mem.reset()
        assert mem.accesses == 0
        assert mem.current_queue_delay == 0.0
        assert mem.rho_history == []

    def test_mean_queue_accounting(self):
        mem = MainMemory(latency=200, service_cycles=20.0, smoothing=1.0)
        for _ in range(25):
            mem.access()
        mem.end_period(1_000)
        mem.access()
        assert mem.mean_queue_cycles > 0.0


class TestValidation:
    def test_bad_latency(self):
        with pytest.raises(ConfigError):
            MainMemory(latency=0)

    def test_bad_service(self):
        with pytest.raises(ConfigError):
            MainMemory(service_cycles=-1.0)

    def test_bad_smoothing(self):
        with pytest.raises(ConfigError):
            MainMemory(smoothing=0.0)
        with pytest.raises(ConfigError):
            MainMemory(smoothing=1.5)
