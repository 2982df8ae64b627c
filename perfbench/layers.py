"""Harness-side layer spans: wrappers around each layer's public calls.

A :class:`LayerTracer` swaps wrappers in for the ``repro`` functions and
methods that form each layer boundary, records per-layer call counts,
inclusive time and self time (inclusive time minus the time of the
traced spans it called), and puts every original back on exit.  Nothing
under ``src/`` is edited: the wrappers live only for one traced pass.

Self time is kept on an explicit stack, so the self times of all spans
partition the time under the outermost span exactly.  Calls that are
too frequent to time without swamping the run (``CacheHierarchy.access``
and ``MainMemory.access``, one per scalar access) are counted only;
their time stays in the caller's self time (the scalar ladder in
``Core.run``).
"""

from __future__ import annotations

import hashlib
import pickle
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass
class LayerStat:
    """Counters and timers of one traced layer."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    depth: int = 0
    #: layer-specific counts (addresses, declines, bails, ...)
    extra: dict | None = None

    def add(self, key: str, amount: float = 1) -> None:
        if self.extra is None:
            self.extra = {}
        self.extra[key] = self.extra.get(key, 0) + amount

    def get(self, key: str) -> float:
        return (self.extra or {}).get(key, 0)


def _addresses_arg(_self, n, *_a, **_k):
    return n


def _len_arg(_self, _core, addrs, *_a, **_k):
    return len(addrs)


class LayerTracer:
    """Install span wrappers for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self._mrc_inputs: set[str] = set()
        #: (seconds, run seconds) of every warm-pool task settled
        self.dispatches: list[tuple[float, float]] = []
        #: wall seconds of every warm-pool batch
        self.batch_s: list[float] = []

    def stat(self, layer: str) -> LayerStat:
        stat = self.stats.get(layer)
        if stat is None:
            stat = self.stats[layer] = LayerStat()
        return stat

    # -- wrapper factories ---------------------------------------------

    def _timed(self, layer: str, fn, on_call=None):
        """Wrap ``fn`` in a span; ``on_call(stat, args, kwargs, result)``
        records layer counts after a successful outermost call."""
        stat = self.stat(layer)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stat.depth:
                # Re-entry into the same layer: the outer span owns it.
                return fn(*args, **kwargs)
            stat.depth += 1
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                children = stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if on_call is not None:
                on_call(stat, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, layer: str, fn):
        stat = self.stat(layer)

        def wrapper(*args):
            stat.calls += 1
            return fn(*args)

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch_attr(self, owner, name: str, make) -> None:
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, name, replacement)
        self._restore.append((owner, name, original))

    def _patch_function(self, module: str, name: str, make) -> None:
        """Swap a module-level function in every ``repro`` module that
        bound it by name (``from x import f`` copies the reference)."""
        original = getattr(sys.modules[module], name)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and \
                    mod.__dict__.get(name) is original:
                setattr(mod, name, replacement)
                self._restore.append((mod, name, original))

    def _count_addresses(self, key: str, extract):
        def on_call(stat, args, kwargs, _result):
            stat.add(key, extract(*args, **kwargs))
        return on_call

    def _on_mrc(self, stat, args, kwargs, _result) -> None:
        pattern = args[1]
        samples = args[2] if len(args) > 2 else kwargs.get("samples")
        # The pattern is pickled after profiling, so the key is its
        # post-sampling state: deterministic and equal exactly when the
        # input pattern state and sample count were equal.
        digest = hashlib.sha1(
            pickle.dumps((pattern, samples), protocol=4)
        ).hexdigest()
        self._mrc_inputs.add(digest)
        stat.extra = {"distinct_inputs": len(self._mrc_inputs)}

    def _on_classify(self, stat, _args, _kwargs, plan) -> None:
        if plan is None:
            stat.add("declines")

    def _on_commit(self, stat, args, kwargs, committed) -> None:
        if committed:
            n_exec = args[3] if len(args) > 3 else kwargs["n_exec"]
            stat.add("addresses", n_exec)
        else:
            stat.add("bails")

    def _on_engine(self, stat, _args, _kwargs, result) -> None:
        stat.add("periods", result.total_periods)

    def _wrap_map_specs(self, fn):
        """Collect dispatch-to-result spans of warm-pool tasks."""
        dispatches = self.dispatches
        batches = self.batch_s

        def map_specs(pool, tasks, timeout=None, on_result=None):
            def settle(key, value, seconds):
                run_s = getattr(value, "wall_seconds", 0.0)
                dispatches.append((seconds, run_s))
                if on_result is not None:
                    on_result(key, value, seconds)

            started = perf_counter()
            try:
                return fn(pool, tasks, timeout=timeout, on_result=settle)
            finally:
                batches.append(perf_counter() - started)

        return map_specs

    def __enter__(self) -> "LayerTracer":
        from repro.analytic.mrc import MissRateCurve
        from repro.arch.core import Core
        from repro.arch.hierarchy import CacheHierarchy
        from repro.arch.memory import MainMemory
        from repro.caer.runtime import CaerRuntime
        from repro.experiments.workerpool import SpecWorkerPool
        from repro.perfmon.session import PerfmonSession
        from repro.sim.engine import SimulationEngine
        from repro.statistical.engine import StatisticalEngine
        from repro.workloads.base import RuntimePhase

        timed = self._timed
        patch = self._patch_attr
        take = self._count_addresses("addresses", _addresses_arg)
        batch = self._count_addresses("addresses", _len_arg)
        bulk = self._count_addresses("accesses", _addresses_arg)
        try:
            self._patch_function(
                "repro.runspec.backends", "execute_run",
                lambda f: timed("runspec.execute_run", f),
            )
            self._patch_function(
                "repro.experiments.resilience", "_execute_spec_attempt",
                lambda f: timed("experiments.executor", f),
            )
            patch(SpecWorkerPool, "map_specs", self._wrap_map_specs)
            patch(SimulationEngine, "run", lambda f: timed(
                "sim.engine", f, self._on_engine))
            patch(StatisticalEngine, "run",
                  lambda f: timed("statistical.engine", f))
            patch(MissRateCurve, "from_pattern",
                  lambda f: timed("analytic.mrc", f, self._on_mrc))
            patch(Core, "run", lambda f: timed("arch.core.run", f))
            patch(RuntimePhase, "take_addresses",
                  lambda f: timed("workloads.take", f, take))
            patch(RuntimePhase, "take_addresses_array",
                  lambda f: timed("workloads.take", f, take))
            patch(CacheHierarchy, "access_many", lambda f: timed(
                "arch.hierarchy.access_many", f, batch))
            patch(CacheHierarchy, "access",
                  lambda f: self._counted("arch.hierarchy.access", f))
            patch(CacheHierarchy, "vector_classify", lambda f: timed(
                "arch.vector.classify", f, self._on_classify))
            patch(CacheHierarchy, "vector_commit", lambda f: timed(
                "arch.vector.commit", f, self._on_commit))
            patch(MainMemory, "access_bulk",
                  lambda f: timed("arch.memory", f, bulk))
            patch(MainMemory, "end_period",
                  lambda f: timed("arch.memory", f))
            patch(MainMemory, "access",
                  lambda f: self._counted("arch.memory.access", f))
            patch(PerfmonSession, "probe",
                  lambda f: timed("perfmon.probe", f))
            patch(CaerRuntime, "__call__",
                  lambda f: timed("caer.hook", f))
        except BaseException:
            self._uninstall()
            raise
        return self

    def _uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def self_seconds(self) -> float:
        """Σ self time over every timed layer."""
        return sum(s.self_s for s in self.stats.values())
