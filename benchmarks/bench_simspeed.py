"""Simulator throughput: the reference walk vs. the production path.

Measures raw access throughput (simulated memory accesses per wall
second) of one core driving the scaled-Nehalem hierarchy on three
execution paths:

* **generic** (``REPRO_FAST_LANE=0``) — the reference walk: per-set
  lists, virtual policy dispatch, the dict owner store;
* **kernel** (``REPRO_VECTOR_KERNEL=0``) — the production path with
  the numpy kernel off: flat-array set storage, the L3 owner-bitmask
  column and batched ``access_many`` walks;
* **vector** (the defaults) — the full production path: the above
  plus the numpy classify/commit kernel, with counter and stat deltas
  flushed once per batch.

All paths produce bit-identical results (the differential suites in
``tests/arch/test_bulk_kernel.py`` and
``tests/arch/test_owner_store.py`` prove it); only wall-clock differs.

The vector gates compare vector against kernel per workload at that
workload's amortisation budget: ``stream-llc`` at the default 40 K
cycles (large consecutive batches exist there already), and
``pointer-chase`` at a longer budget, kept for continuity with the
trajectory.  The generic gates compare the production path against
the reference walk at the standard 40 K budget: on ``stream-llc`` the
vector kernel engages on large consecutive batches, and on
``pointer-chase`` the ~200-access batches of a 40 K budget sit above
the kernel's engage floor.

Run standalone for the acceptance check::

    PYTHONPATH=src python benchmarks/bench_simspeed.py
    PYTHONPATH=src python benchmarks/bench_simspeed.py --smoke  # CI
    PYTHONPATH=src python benchmarks/bench_simspeed.py \
        --json BENCH_simspeed.json --append
    PYTHONPATH=src python benchmarks/bench_simspeed.py --profile

``--append`` accumulates a perf trajectory: the JSON file holds a
``points`` list and every run appends one comparable point (a
schema-1 single-point file is migrated in place).

or through pytest (smoke-sized, sanity ordering only)::

    pytest benchmarks/bench_simspeed.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a script without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import MachineConfig
from repro.workloads import synthetic

#: Version of the ``--json`` schema; bump when fields change meaning.
#: Schema 2 turned the file into a trajectory: a ``points`` list of
#: comparable measurement snapshots (schema 1 was one bare snapshot).
SCHEMA_VERSION = 2

#: Kernel gate, applied to the streaming benchmark (``stream-llc``).
KERNEL_OVER_GENERIC_TARGET = 3.0

#: Vector gates: vector over kernel, per workload, at the workload's
#: amortisation budget (see the module docstring).
VECTOR_OVER_KERNEL_STREAM_TARGET = 3.0
VECTOR_OVER_KERNEL_CHASE_TARGET = 1.5

#: Generic gates: the production path over the reference walk, per
#: workload, at the standard 40 K budget.
VECTOR_OVER_GENERIC_STREAM_TARGET = 18.0
VECTOR_OVER_GENERIC_CHASE_TARGET = 5.0

#: Maximum allowed slowdown of a fully traced engine run (ring-buffer
#: sink) over an untraced one.
TRACE_OVERHEAD_TARGET = 0.02

#: Maximum allowed slowdown of the full live-export stack — span
#: profiling armed, ``/metrics`` endpoint serving, a scraper hitting
#: it — over a bare run of the same workload.
EXPORT_OVERHEAD_TARGET = 0.02

#: Cycle budget of one ``core.run`` call in the main table.
DEFAULT_BUDGET = 40_000.0

#: Budget for the pointer-chase vector gate: long enough that one
#: period batches a few thousand dependent-chain addresses, which is
#: what the vectorized scatter fill needs to amortise its dispatch.
CHASE_GATE_BUDGET = 360_000.0

#: Environment variables a tier tuple maps onto, in order.
_ENV_KEYS = ("REPRO_FAST_LANE", "REPRO_VECTOR_KERNEL")

#: tier -> (REPRO_FAST_LANE, REPRO_VECTOR_KERNEL).
TIERS = {
    "generic": ("0", "0"),
    "kernel": ("1", "0"),
    "vector": ("1", "1"),
}

#: name -> (factory, kernel gate applies, vector gate spec or None,
#: generic gate spec or None).  ``stream-llc`` is *the* streaming
#: benchmark of the acceptance criteria: a cyclic sweep well past the
#: L3, every fourth access a fresh line.  ``stream-l2`` stresses the
#: L3-hit walk (informational: the walk is a handful of C-level
#: operations either way, so the batched win is structurally smaller
#: there).
WORKLOADS = {
    "stream-llc": (
        lambda: synthetic.streamer(lines=70_000, instructions=1e9),
        True,
        {"target": VECTOR_OVER_KERNEL_STREAM_TARGET,
         "budget": DEFAULT_BUDGET},
        {"target": VECTOR_OVER_GENERIC_STREAM_TARGET,
         "budget": DEFAULT_BUDGET},
    ),
    "stream-l2": (
        lambda: synthetic.streamer(lines=512, instructions=1e9),
        False,
        None,
        None,
    ),
    "pointer-chase": (
        lambda: synthetic.pointer_chaser(lines=70_000, instructions=1e9),
        False,
        {"target": VECTOR_OVER_KERNEL_CHASE_TARGET,
         "budget": CHASE_GATE_BUDGET},
        {"target": VECTOR_OVER_GENERIC_CHASE_TARGET,
         "budget": DEFAULT_BUDGET},
    ),
}


def _measure_once(
    env: tuple, factory, warm: int, timed: int, budget: float
) -> float:
    """One warm-up + timed measurement of one tier (accesses/second)."""
    for key, value in zip(_ENV_KEYS, env):
        os.environ[key] = value
    try:
        from repro.arch.chip import MulticoreChip

        chip = MulticoreChip(MachineConfig.scaled_nehalem(), seed=7)
        spec = factory()
        workload = spec.instantiate(seed=3, base=1 << 34)
        core = chip.core(0)
        for _ in range(warm):
            core.run(workload, budget)
            if workload.finished:
                workload = spec.instantiate(seed=3, base=1 << 34)
        start = time.perf_counter()
        accesses_before = core.accesses_issued
        for _ in range(timed):
            core.run(workload, budget)
            if workload.finished:
                workload = spec.instantiate(seed=3, base=1 << 34)
        elapsed = time.perf_counter() - start
        return (core.accesses_issued - accesses_before) / elapsed
    finally:
        for key in _ENV_KEYS:
            os.environ.pop(key, None)


def measure_tiers(
    tiers: tuple[str, ...],
    factory,
    warm: int,
    timed: int,
    budget: float = DEFAULT_BUDGET,
    reps: int = 3,
) -> dict[str, float]:
    """Best-of-``reps`` accesses/second per tier, reps round-robin.

    A gate that divides two throughputs is only as trustworthy as the
    measurement of both sides: taking all of tier A's reps, then all
    of tier B's, lets slow scheduler drift land entirely on one side
    of the ratio.  Cycling through the tiers once per rep exposes them
    all to the same noise environment, so best-of-N (only slowdowns
    are spurious) cancels drift instead of baking it into the
    comparison.
    """
    best = dict.fromkeys(tiers, 0.0)
    for _ in range(max(1, reps)):
        for tier in tiers:
            best[tier] = max(best[tier], _measure_once(
                TIERS[tier], factory, warm, timed, budget))
    return best


def run_suite(
    warm: int, timed: int, reps: int = 3, gates: bool = True
) -> list[dict]:
    """One row per workload: tier throughputs, ratios, gate data.

    The main table measures all three tiers round-robin per rep
    (:func:`measure_tiers`), so every ratio it feeds — gates at the
    default budget included — compares tiers that shared one noise
    environment.  ``gates=False`` (smoke runs) skips the gate rows and
    the longer-budget gate measurement.
    """
    rows = []
    for name, (factory, kernel_gated, vgate, ggate) in WORKLOADS.items():
        tiers = measure_tiers(tuple(TIERS), factory, warm, timed,
                              reps=reps)
        row = {
            "workload": name,
            "kernel_gated": kernel_gated,
            "tiers": tiers,
            "ratios": {
                "kernel_over_generic":
                    tiers["kernel"] / tiers["generic"],
                "vector_over_kernel":
                    tiers["vector"] / tiers["kernel"],
                "vector_over_generic":
                    tiers["vector"] / tiers["generic"],
            },
            "vector_gate": None,
            "generic_gate": None,
        }
        if ggate is not None and gates:
            if ggate["budget"] == DEFAULT_BUDGET:
                vector, generic = tiers["vector"], tiers["generic"]
            else:
                pair = measure_tiers(
                    ("vector", "generic"), factory, warm, timed,
                    budget=ggate["budget"], reps=reps,
                )
                vector, generic = pair["vector"], pair["generic"]
            row["generic_gate"] = {
                "budget": ggate["budget"],
                "target": ggate["target"],
                "generic": generic,
                "vector": vector,
                "vector_over_generic": vector / generic,
            }
        if vgate is not None and gates:
            if vgate["budget"] == DEFAULT_BUDGET:
                kernel, vector = tiers["kernel"], tiers["vector"]
            else:
                # A longer budget multiplies the work per run() call;
                # scale the counts down to keep wall time in check.
                scale = DEFAULT_BUDGET / vgate["budget"]
                gw = max(2, round(warm * scale))
                gt = max(4, round(timed * scale))
                pair = measure_tiers(
                    ("kernel", "vector"), factory, gw, gt,
                    budget=vgate["budget"], reps=reps,
                )
                kernel, vector = pair["kernel"], pair["vector"]
            row["vector_gate"] = {
                "budget": vgate["budget"],
                "target": vgate["target"],
                "kernel": kernel,
                "vector": vector,
                "vector_over_kernel": vector / kernel,
            }
        rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14} {'generic/s':>10} {'kernel/s':>10} "
        f"{'vector/s':>10} {'k/g':>6} {'v/k':>6} {'v/g':>6}"
    ]
    for row in rows:
        t, r = row["tiers"], row["ratios"]
        lines.append(
            f"{row['workload']:<14} {t['generic']:>10.0f} "
            f"{t['kernel']:>10.0f} {t['vector']:>10.0f} "
            f"{r['kernel_over_generic']:>5.2f}x "
            f"{r['vector_over_kernel']:>5.2f}x "
            f"{r['vector_over_generic']:>5.2f}x"
        )
        gate = row.get("vector_gate")
        if gate is not None and gate["budget"] != DEFAULT_BUDGET:
            lines.append(
                f"{'':<14} vector gate @ {gate['budget']:.0f} cycles: "
                f"kernel {gate['kernel']:.0f}/s, vector "
                f"{gate['vector']:.0f}/s "
                f"({gate['vector_over_kernel']:.2f}x, target "
                f"{gate['target']}x)"
            )
        ggate = row.get("generic_gate")
        if ggate is not None:
            lines.append(
                f"{'':<14} generic gate @ {ggate['budget']:.0f} "
                f"cycles: generic {ggate['generic']:.0f}/s, vector "
                f"{ggate['vector']:.0f}/s "
                f"({ggate['vector_over_generic']:.2f}x, target "
                f"{ggate['target']}x)"
            )
    return "\n".join(lines)


def check_gates(rows: list[dict], smoke: bool) -> list[str]:
    """Gate failures for the suite; empty when everything passes."""
    failures = []
    for row in rows:
        name, r = row["workload"], row["ratios"]
        if smoke:
            # CI machines are noisy: sanity ordering only, using the
            # ratios with structural (>= 2x) margin.
            if r["kernel_over_generic"] <= 1.0:
                failures.append(
                    f"{name}: kernel slower than generic "
                    f"({r['kernel_over_generic']:.2f}x)"
                )
            if r["vector_over_generic"] <= 1.0:
                failures.append(
                    f"{name}: vector slower than generic "
                    f"({r['vector_over_generic']:.2f}x)"
                )
            # vector-vs-kernel ordering is only structural where the
            # default budget amortises the batches (the kernel-gated
            # streaming benchmark); elsewhere the two sit near parity
            # at 40 K and parity-plus-noise may dip below 1.
            if row["kernel_gated"] and r["vector_over_kernel"] <= 1.0:
                failures.append(
                    f"{name}: vector slower than kernel "
                    f"({r['vector_over_kernel']:.2f}x)"
                )
            continue
        if row["kernel_gated"] and \
                r["kernel_over_generic"] < KERNEL_OVER_GENERIC_TARGET:
            failures.append(
                f"{name}: kernel {r['kernel_over_generic']:.2f}x "
                f"below the {KERNEL_OVER_GENERIC_TARGET}x "
                f"over-generic target"
            )
        gate = row.get("vector_gate")
        if gate is not None and \
                gate["vector_over_kernel"] < gate["target"]:
            failures.append(
                f"{name}: vector {gate['vector_over_kernel']:.2f}x "
                f"below the {gate['target']}x over-kernel target "
                f"(at {gate['budget']:.0f}-cycle budget)"
            )
        ggate = row.get("generic_gate")
        if ggate is not None and \
                ggate["vector_over_generic"] < ggate["target"]:
            failures.append(
                f"{name}: vector {ggate['vector_over_generic']:.2f}x "
                f"below the {ggate['target']}x over-generic target "
                f"(at {ggate['budget']:.0f}-cycle budget)"
            )
    return failures


def build_point(rows: list[dict], warm: int, timed: int,
                reps: int) -> dict:
    """One comparable trajectory point (see docs/performance.md)."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "machine_config": "scaled_nehalem",
            "budget_cycles": int(DEFAULT_BUDGET),
            "warm": warm,
            "timed": timed,
            "reps": reps,
        },
        "targets": {
            "kernel_over_generic": KERNEL_OVER_GENERIC_TARGET,
            "vector_over_kernel_stream":
                VECTOR_OVER_KERNEL_STREAM_TARGET,
            "vector_over_kernel_chase":
                VECTOR_OVER_KERNEL_CHASE_TARGET,
            "vector_over_generic_stream":
                VECTOR_OVER_GENERIC_STREAM_TARGET,
            "vector_over_generic_chase":
                VECTOR_OVER_GENERIC_CHASE_TARGET,
        },
        # Which REPRO_* execution gates each measured column ran
        # under — without this, trajectory points from different
        # builds are not comparable (earlier points measured more
        # gates and tiers).
        "kernel_gates": {
            name: dict(zip(
                ("fast_lane", "vector_kernel"),
                (value == "1" for value in env),
            ))
            for name, env in TIERS.items()
        },
        "workloads": {
            row["workload"]: {
                "kernel_gated": row["kernel_gated"],
                "tiers": row["tiers"],
                "ratios": row["ratios"],
                "vector_gate": row.get("vector_gate"),
                "generic_gate": row.get("generic_gate"),
            }
            for row in rows
        },
    }


def build_report(points: list[dict]) -> dict:
    """The ``--json`` payload: a trajectory of comparable points."""
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "bench_simspeed",
        "points": points,
    }


def migrate_points(report: dict) -> list[dict]:
    """Existing-file contents -> its trajectory points.

    Schema 1 was a single bare snapshot: it becomes point zero of the
    trajectory, its fields carried over untouched (the tier and ratio
    keys it lacks simply stay absent — consumers key off what is
    present).  Schema 2 files return their ``points`` list as is.
    """
    if report.get("schema_version") == SCHEMA_VERSION:
        return list(report["points"])
    point = {
        key: value for key, value in report.items()
        if key not in ("schema_version", "benchmark")
    }
    return [point]


def write_report(path: Path, rows: list[dict], warm: int, timed: int,
                 reps: int, append: bool) -> int:
    """Write (or extend) the trajectory file; return its point count."""
    point = build_point(rows, warm, timed, reps)
    points = [point]
    if append and path.exists():
        points = migrate_points(json.loads(path.read_text())) + [point]
    path.write_text(json.dumps(build_report(points), indent=2) + "\n")
    return len(points)


def profile_streaming_run(top: int = 20) -> None:
    """cProfile one production-path streaming run; print top ``top``
    by cumulative time — the shopping list for future hot-path work."""
    import cProfile
    import pstats

    for key, value in zip(_ENV_KEYS, TIERS["vector"]):
        os.environ[key] = value
    try:
        from repro.arch.chip import MulticoreChip

        chip = MulticoreChip(MachineConfig.scaled_nehalem(), seed=7)
        spec = WORKLOADS["stream-llc"][0]()
        workload = spec.instantiate(seed=3, base=1 << 34)
        core = chip.core(0)
        for _ in range(5):  # warm imports and caches outside the profile
            core.run(workload, 40_000.0)
        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(50):
            core.run(workload, 40_000.0)
            if workload.finished:
                workload = spec.instantiate(seed=3, base=1 << 34)
        profiler.disable()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(top)
    finally:
        for key in _ENV_KEYS:
            os.environ.pop(key, None)


def _timed_engine_run(tracer=None, length: float = 0.05) -> float:
    """Seconds for one traced or untraced mcf/shutter co-located run."""
    from repro.caer.runtime import CaerConfig, caer_factory
    from repro.sim import run_colocated
    from repro.workloads import benchmark

    machine = MachineConfig.scaled_nehalem()
    l3 = machine.l3.capacity_lines
    ls = benchmark("429.mcf", l3, length=length)
    batch = benchmark("470.lbm", l3, length=length)
    start = time.perf_counter()
    run_colocated(
        ls, batch, machine,
        caer_factory=caer_factory(CaerConfig.shutter()),
        tracer=tracer,
    )
    return time.perf_counter() - start


def measure_trace_overhead(
    repeats: int = 9, length: float = 0.05
) -> tuple[float, float, float]:
    """(untraced_s, traced_s, overhead_fraction), best-of-``repeats``.

    Tracing emits a handful of events per probe period against ~40 K
    simulated cycles of simulation work, so the true overhead is well
    under the 2% budget — but single-run wall times on a busy host
    jitter by far more than that.  Two noise defences: runs are
    interleaved (untraced, traced, untraced, ...) so scheduler and
    thermal drift hit both sides alike, and the reported overhead is
    the *lower* of two estimators — best-of-N ratio and median paired
    ratio.  Either alone can be inflated a few percent by one noisy
    window; a genuine emission-cost regression inflates both, so the
    gate still catches it.
    """
    from statistics import median

    from repro.obs import RingBufferSink, Tracer

    _timed_engine_run(None, length)  # warm caches and imports
    untraced_times = []
    traced_times = []
    for _ in range(repeats):
        untraced_times.append(_timed_engine_run(None, length))
        traced_times.append(
            _timed_engine_run(Tracer([RingBufferSink(1 << 20)]), length)
        )
    untraced = min(untraced_times)
    traced = min(traced_times)
    min_ratio = traced / untraced - 1.0
    median_pair = median(
        t / u for t, u in zip(traced_times, untraced_times)
    ) - 1.0
    return untraced, traced, min(min_ratio, median_pair)


def _timed_stream_run(
    registry=None, runs: int = 150, budget: float = DEFAULT_BUDGET
) -> float:
    """Seconds for ``runs`` vector-tier stream-llc ``core.run`` calls.

    With ``registry`` the run executes inside ``activate_profiling``,
    so the vector kernel's classify/commit spans are live — the
    per-batch cost the export gate must bound.
    """
    from contextlib import nullcontext

    from repro.arch.chip import MulticoreChip
    from repro.obs import activate_profiling

    chip = MulticoreChip(MachineConfig.scaled_nehalem(), seed=7)
    spec = WORKLOADS["stream-llc"][0]()
    workload = spec.instantiate(seed=3, base=1 << 34)
    core = chip.core(0)
    for _ in range(3):
        core.run(workload, budget)
        if workload.finished:
            workload = spec.instantiate(seed=3, base=1 << 34)
    scope = (
        activate_profiling(registry) if registry is not None
        else nullcontext()
    )
    with scope:
        start = time.perf_counter()
        for _ in range(runs):
            core.run(workload, budget)
            if workload.finished:
                workload = spec.instantiate(seed=3, base=1 << 34)
        return time.perf_counter() - start


def measure_export_overhead(
    repeats: int = 9, runs: int = 150
) -> tuple[float, float, float]:
    """(off_s, on_s, overhead_fraction) for the live-export stack.

    The "on" world is the whole subsystem at once: span profiling
    armed over the vector tier (classify/commit spans firing every
    batch), a ``/metrics`` endpoint serving the registry, and a
    background scraper polling it throughout — the worst realistic
    cost of watching a campaign live.  Noise defences as in
    :func:`measure_trace_overhead`: interleaved runs and the lower of
    the best-of-N and median-paired estimators.
    """
    import threading
    import urllib.request
    from statistics import median

    from repro.obs import MetricsExporter, MetricsRegistry

    for key, value in zip(_ENV_KEYS, TIERS["vector"]):
        os.environ[key] = value
    try:
        _timed_stream_run(runs=runs)  # warm caches and imports
        registry = MetricsRegistry()
        stop = threading.Event()
        with MetricsExporter(registry.snapshot, port=0) as exporter:

            def scraper() -> None:
                while not stop.is_set():
                    try:
                        urllib.request.urlopen(
                            exporter.url, timeout=2
                        ).read()
                    except OSError:
                        pass
                    stop.wait(0.05)

            thread = threading.Thread(target=scraper, daemon=True)
            thread.start()
            try:
                off_times = []
                on_times = []
                for _ in range(repeats):
                    off_times.append(_timed_stream_run(runs=runs))
                    on_times.append(
                        _timed_stream_run(registry, runs=runs)
                    )
            finally:
                stop.set()
                thread.join(timeout=2.0)
        off = min(off_times)
        on = min(on_times)
        min_ratio = on / off - 1.0
        median_pair = median(
            t / u for t, u in zip(on_times, off_times)
        ) - 1.0
        return off, on, min(min_ratio, median_pair)
    finally:
        for key in _ENV_KEYS:
            os.environ.pop(key, None)


def record_export_overhead(path: Path, payload: dict) -> bool:
    """Attach the export-overhead result to the trajectory's last point.

    The measurement annotates the most recent throughput point (it
    describes the same build) rather than appending a tier-less point
    of its own.  Returns ``False`` when the file is absent or empty.
    """
    if not path.exists():
        return False
    report = json.loads(path.read_text())
    points = migrate_points(report)
    if not points:
        return False
    points[-1]["export_overhead"] = payload
    path.write_text(json.dumps(build_report(points), indent=2) + "\n")
    return True


def bench_simspeed_smoke():
    """Pytest entry: tier ordering must hold (no absolute thresholds)."""
    rows = run_suite(warm=3, timed=10, reps=1, gates=False)
    print(render(rows))
    failures = check_gates(rows, smoke=True)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="simulator hot-path throughput benchmark"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short run: tier-ordering sanity only, no absolute gates",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the results as JSON to PATH "
             "(format: docs/performance.md)",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="append this run as a new point to the --json trajectory "
             "instead of overwriting it (schema-1 files are migrated)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="instead of the suite, cProfile one vector-tier streaming "
             "run and print the top-20 cumulative functions",
    )
    parser.add_argument(
        "--trace-overhead",
        action="store_true",
        help=(
            "instead of the throughput suite, measure the tracing "
            f"overhead of a full engine run (must be < "
            f"{TRACE_OVERHEAD_TARGET:.0%})"
        ),
    )
    parser.add_argument(
        "--export-overhead",
        action="store_true",
        help=(
            "instead of the throughput suite, measure the live-export "
            "overhead (span profiling + served + scraped /metrics) on "
            f"stream-llc (must be < {EXPORT_OVERHEAD_TARGET:.0%}); "
            "with --json, the result annotates the trajectory's last "
            "point"
        ),
    )
    parser.add_argument("--warm", type=int, default=None,
                        help="warm-up run() calls per measurement")
    parser.add_argument("--timed", type=int, default=None,
                        help="timed run() calls per measurement")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per measurement (best-of)")
    args = parser.parse_args(argv)

    if args.profile:
        profile_streaming_run()
        return 0

    if args.trace_overhead:
        untraced, traced, overhead = measure_trace_overhead()
        print(
            f"engine run: untraced {untraced * 1000:.1f} ms, traced "
            f"{traced * 1000:.1f} ms, overhead {overhead:+.2%}"
        )
        if overhead >= TRACE_OVERHEAD_TARGET:
            print(
                f"FAIL: tracing overhead {overhead:.2%} >= "
                f"{TRACE_OVERHEAD_TARGET:.0%} budget"
            )
            return 1
        print(f"OK: tracing overhead < {TRACE_OVERHEAD_TARGET:.0%}")
        return 0

    if args.export_overhead:
        off, on, overhead = measure_export_overhead()
        print(
            f"stream-llc vector tier: bare {off * 1000:.1f} ms, "
            f"live-export {on * 1000:.1f} ms, overhead {overhead:+.2%}"
        )
        if args.json:
            recorded = record_export_overhead(Path(args.json), {
                "workload": "stream-llc",
                "tier": "vector",
                "bare_seconds": off,
                "exported_seconds": on,
                "overhead_fraction": overhead,
                "target": EXPORT_OVERHEAD_TARGET,
            })
            print(
                f"annotated last point of {args.json}"
                if recorded
                else f"no trajectory at {args.json} to annotate"
            )
        if overhead >= EXPORT_OVERHEAD_TARGET:
            print(
                f"FAIL: live-export overhead {overhead:.2%} >= "
                f"{EXPORT_OVERHEAD_TARGET:.0%} budget"
            )
            return 1
        print(
            f"OK: live-export overhead < {EXPORT_OVERHEAD_TARGET:.0%}"
        )
        return 0

    warm = args.warm if args.warm is not None else (3 if args.smoke else 10)
    timed = (
        args.timed if args.timed is not None else (10 if args.smoke else 40)
    )
    reps = args.reps if args.reps is not None else (1 if args.smoke else 3)
    rows = run_suite(warm, timed, reps, gates=not args.smoke)
    print(render(rows))

    if args.json:
        count = write_report(
            Path(args.json), rows, warm, timed, reps, args.append
        )
        print(f"wrote {args.json} ({count} point(s))")

    failures = check_gates(rows, smoke=args.smoke)
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(
        "OK"
        if args.smoke
        else (
            f"OK: kernel >= {KERNEL_OVER_GENERIC_TARGET}x generic, "
            f"vector >= {VECTOR_OVER_KERNEL_STREAM_TARGET}x kernel on "
            f"streaming / {VECTOR_OVER_KERNEL_CHASE_TARGET}x on "
            f"pointer-chase, vector >= "
            f"{VECTOR_OVER_GENERIC_STREAM_TARGET}x generic on streaming "
            f"/ {VECTOR_OVER_GENERIC_CHASE_TARGET}x on pointer-chase"
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
