"""End-to-end benchmark of the paper's §6 matrix, with per-layer spans.

Drives named slices of the §6 matrix through the public
:class:`repro.experiments.campaign.Campaign` API from one process, each
pass on a fresh on-disk cache, and prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced pass
(``--trace 1``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload resident --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: Run length every workload uses (CampaignSettings scales the
#: instruction budget; 0.1 ≈ 100 probe periods per solo run).
DEFAULT_LENGTH = 0.1
#: Cold set-ups timed per run; setup_s is their median.
SETUP_TRIALS = 5
#: No further untraced pass starts once measuring has taken this long.
MAX_MEASURE_S = 120.0
#: Least share of a traced sim pass the layer spans must account for.
MIN_COVERAGE = 0.9


@dataclass(frozen=True)
class Workload:
    """One slice of the matrix (why each exists: BENCHMARK.json)."""

    victims: tuple[str, ...]
    configs: tuple[str, ...]
    backend: str
    jobs: int
    #: Untraced passes a run makes even when they outlast --seconds.
    #: 3 where a pass is about as long as a run: the count then does
    #: not flip with the host's speed, and the median drops a pass a
    #: noisy neighbour disturbed.
    min_passes: int = 1

    @property
    def size(self) -> int:
        return len(self.victims) * len(self.configs)


def _workloads() -> dict[str, Workload]:
    from repro.workloads import benchmark_names
    from repro.runspec import BATCH_BENCHMARK

    stat_victims = tuple(b for b in benchmark_names() if b != BATCH_BENCHMARK)
    return {
        "resident": Workload(
            ("444.namd", "453.povray", "454.calculix"),
            ("solo", "raw", "shutter", "rule"), "sim", 1,
        ),
        "sensitive": Workload(
            ("429.mcf", "471.omnetpp", "450.soplex"),
            ("solo", "raw", "shutter", "rule", "random"), "sim", 1,
            min_passes=3,
        ),
        "response": Workload(
            ("429.mcf", "450.soplex", "444.namd"),
            ("rule-based+partition", "shutter+dvfs"), "sim", 1,
            min_passes=3,
        ),
        "campaign-stat": Workload(
            stat_victims, ("solo", "raw", "shutter", "rule"),
            "statistical", 2,
        ),
    }


WORKLOAD_NAMES = ("resident", "sensitive", "response", "campaign-stat")

#: End-to-end metrics on the driver line.  run_s_p50, failed_frac
#: (as attempted/failed) and fig1_slowdown_mae are printed; README says
#: why they are not on it.
END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_periods_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics on the driver line, with their units.  Layer times
#: are shares of the traced pass wall clock: a layer a workload never
#: enters reads 0 as a share; its seconds are in the printed table.
PER_LAYER_UNITS = {
    "workloads.take.share": "frac",
    "workloads.take.calls": "count",
    "workloads.take.addresses": "count",
    "arch.core.run.calls": "count",
    "arch.core.run.self_share": "frac",
    "arch.hierarchy.access.calls": "count",
    "arch.hierarchy.access_many.share": "frac",
    "arch.hierarchy.access_many.calls": "count",
    "arch.hierarchy.access_many.addresses": "count",
    "arch.hierarchy.access_many.mean_batch": "count",
    "arch.vector.classify.share": "frac",
    "arch.vector.classify.calls": "count",
    "arch.vector.classify.declines": "count",
    "arch.vector.accept_ratio": "frac",
    "arch.vector.commit.share": "frac",
    "arch.vector.commit.calls": "count",
    "arch.vector.commit.bails": "count",
    "arch.vector.commit.addresses": "count",
    "arch.memory.share": "frac",
    "arch.memory.accesses": "count",
    "perfmon.probe.share": "frac",
    "perfmon.probe.calls": "count",
    "caer.hook.share": "frac",
    "caer.hook.calls": "count",
    "caer.batch_run_fraction": "frac",
    "sim.engine.self_share": "frac",
    "sim.periods": "count",
    "analytic.mrc.share": "frac",
    "analytic.mrc.calls": "count",
    "analytic.mrc.distinct_inputs": "count",
    "statistical.engine.self_share": "frac",
    "runspec.execute_run.self_s": "s",
    "experiments.executor.dispatch_s": "s",
    "experiments.executor.busy_frac": "frac",
    "experiments.campaign.overhead_s": "s",
    "experiments.campaign.replay_s": "s",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
}

#: (driver metric, layer, which time) for every layer-time share.
_SHARES = (
    ("workloads.take.share", "workloads.take", "total_s"),
    ("arch.core.run.self_share", "arch.core.run", "self_s"),
    ("arch.hierarchy.access_many.share", "arch.hierarchy.access_many",
     "total_s"),
    ("arch.vector.classify.share", "arch.vector.classify", "total_s"),
    ("arch.vector.commit.share", "arch.vector.commit", "total_s"),
    ("arch.memory.share", "arch.memory", "total_s"),
    ("perfmon.probe.share", "perfmon.probe", "total_s"),
    ("caer.hook.share", "caer.hook", "total_s"),
    ("sim.engine.self_share", "sim.engine", "self_s"),
    ("analytic.mrc.share", "analytic.mrc", "total_s"),
    ("statistical.engine.self_share", "statistical.engine", "self_s"),
)


class BenchError(Exception):
    """The benchmark cannot run (refused environment, missing program)."""


# -- environment guards ------------------------------------------------


def environment() -> dict:
    """What every result is recorded with."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "repro_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_")
        },
    }


def check_gates() -> None:
    """Refuse a timed pass on non-default execution gates or env hooks."""
    from repro.arch import cache
    from repro.experiments.workerpool import warm_pool_enabled
    from repro.obs.profiling import spans_enabled

    on = {
        "REPRO_FAST_LANE": cache.fast_lane_enabled(),
        "REPRO_BULK_KERNEL": cache.bulk_kernel_enabled(),
        "REPRO_VECTOR_KERNEL": cache.vector_kernel_enabled(),
        "REPRO_OWNER_ARRAYS": cache.owner_arrays_enabled(),
        "REPRO_VECTOR_FILLS": cache.vector_fills_enabled(),
        "REPRO_WARM_POOL": warm_pool_enabled(),
        "REPRO_PROFILE_SPANS": spans_enabled(),
    }
    bad = [name for name, enabled in on.items() if not enabled]
    if cache.debug_invariants_enabled():
        bad.append("REPRO_DEBUG_INVARIANTS")
    for name in ("REPRO_TRACE_DIR", "REPRO_CHAOS", "REPRO_BEACON_DIR"):
        if os.environ.get(name):
            bad.append(name)
    if bad:
        raise BenchError(
            f"refusing a timed pass with non-default settings: {bad}"
        )


# -- one pass ------------------------------------------------------------


def digest(summary) -> str:
    """Content digest of one run's simulated outcome."""
    payload = json.dumps([
        summary.completion_periods,
        summary.total_periods,
        summary.ls_total_llc_misses,
        repr(summary.utilization_gained),
        summary.miss_series,
        summary.instruction_series,
    ])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def invariant_errors(config: str, summary) -> list[str]:
    errors = []
    if config == "solo" and summary.utilization_gained != 0.0:
        errors.append(f"solo utilization {summary.utilization_gained}")
    if config == "raw" and summary.utilization_gained != 1.0:
        errors.append(f"raw utilization {summary.utilization_gained}")
    if sum(summary.miss_series) != summary.ls_total_llc_misses:
        errors.append("sum(miss_series) != ls_total_llc_misses")
    if summary.total_periods <= 0 or summary.completion_periods <= 0:
        errors.append("no periods simulated")
    return errors


def lookup(campaign, bench: str, config: str):
    """The memoised summary of one matrix cell (no simulation)."""
    from repro.runspec import CONFIGS

    if config == "solo":
        return campaign.solo(bench)
    if config in CONFIGS:
        return campaign.colocated(bench, config)
    # Response tags beyond the §6 four: read the memo the way
    # `repro stats` does (Campaign.colocated accepts only CONFIGS).
    summary = campaign._load(bench, config)
    if summary is None:
        raise BenchError(f"({bench}, {config}) missing after prefetch")
    return summary


@dataclass
class Pass:
    """One cold production of the matrix.  Seconds are rescaled to the
    reference host speed (see ``speed.py``); ``host_wall_s`` is raw."""

    host_wall_s: float
    slowness: float
    summaries: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    attempted: int = 0
    replay_s: float | None = None

    @property
    def wall_s(self) -> float:
        return self.host_wall_s / self.slowness

    @property
    def run_seconds(self) -> list[float]:
        return [s.wall_seconds / self.slowness
                for s in self.summaries.values()]

    @property
    def periods(self) -> int:
        return sum(s.total_periods for s in self.summaries.values())


def run_pass(workload: Workload, settings, scratch: Path, jobs: int,
             replay: bool = False) -> Pass:
    """Produce the workload's matrix from a cold, private cache."""
    from repro.experiments.campaign import Campaign
    from repro.experiments.resilience import RetryPolicy
    from speed import SpeedProbe

    cache_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    try:
        campaign = Campaign(settings, cache_dir=cache_dir, jobs=jobs,
                            retry=RetryPolicy())
        if campaign.cache_dir != cache_dir:
            raise BenchError(f"campaign cache escaped to "
                             f"{campaign.cache_dir}")
        with SpeedProbe() as probe:
            started = perf_counter()
            campaign.prefetch(workload.victims, workload.configs,
                              jobs=jobs)
            host_wall = perf_counter() - started
        result = Pass(host_wall_s=host_wall, slowness=probe.slowness)
        counters = campaign.metrics.snapshot()

        def count(name: str) -> int:
            entry = counters.get(name)
            return int(entry["value"]) if entry else 0

        simulated = count("campaign.runs_simulated")
        retries = count("executor.retries")
        result.attempted = workload.size + retries
        if simulated != workload.size:
            result.failures["matrix"] = (
                f"simulated {simulated} of {workload.size} runs")
        if retries:
            result.failures["retries"] = f"{retries} retried attempts"
        for bench in workload.victims:
            for config in workload.configs:
                key = f"{bench}/{config}"
                if campaign.spec_for(bench, config).digest in \
                        campaign.quarantined:
                    result.failures[key] = "quarantined"
                    continue
                summary = lookup(campaign, bench, config)
                result.summaries[key] = summary
                result.digests[key] = digest(summary)
                errors = invariant_errors(config, summary)
                if errors:
                    result.failures[key] = "; ".join(errors)
        if replay:
            started = perf_counter()
            fresh = Campaign(settings, cache_dir=cache_dir, jobs=jobs,
                             retry=RetryPolicy())
            fresh.prefetch(workload.victims, workload.configs, jobs=jobs)
            served = {
                f"{b}/{c}": lookup(fresh, b, c)
                for b in workload.victims for c in workload.configs
            }
            result.replay_s = (perf_counter() - started) / result.slowness
            counters = fresh.metrics.snapshot()
            if "campaign.runs_simulated" in counters:
                result.failures["replay"] = "replay re-simulated runs"
            for key, summary in served.items():
                if result.summaries.get(key) != summary:
                    result.failures[f"replay {key}"] = "replay differs"
        return result
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# -- metrics ------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live worker processes."""
    import multiprocessing

    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    if not total_kb:
        import resource
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def fig1_mae(workload: Workload, run: Pass) -> float | None:
    """Mean |raw/solo slowdown − paper Figure 1| over the workload."""
    from repro.experiments.paperdata import FIGURE1_SLOWDOWN

    errors = []
    for bench in workload.victims:
        solo = run.summaries.get(f"{bench}/solo")
        raw = run.summaries.get(f"{bench}/raw")
        if solo is None or raw is None or bench not in FIGURE1_SLOWDOWN:
            continue
        slowdown = raw.completion_periods / solo.completion_periods
        errors.append(abs(slowdown - FIGURE1_SLOWDOWN[bench]))
    return statistics.fmean(errors) if errors else None


def setup_seconds(workload: Workload, settings, scratch: Path,
                  trials: int) -> list[float]:
    times = []
    for _ in range(trials):
        cache_dir = tempfile.mkdtemp(prefix="setup-", dir=scratch)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"),
                 "--jobs", str(workload.jobs),
                 "--seed", str(settings.seed),
                 "--length", repr(settings.length),
                 "--backend", settings.backend,
                 "--cache-dir", cache_dir],
                capture_output=True, text=True, timeout=120, check=False,
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def layer_metrics(layers, layers_pass: Pass, dispatch, jobs1: Pass,
                  overhead_frac: float, jobs: int) -> dict:
    """Per-layer figures of one traced run, in seconds and counts.

    ``layers`` traced ``layers_pass`` in-process; ``dispatch`` traced
    the pass at the workload's own ``jobs`` (its warm-pool spans, when
    any); ``jobs1`` is the serial pass giving campaign overhead.
    """
    stat = layers.stat
    wall = layers_pass.host_wall_s
    slowness = layers_pass.slowness
    take = stat("workloads.take")
    many = stat("arch.hierarchy.access_many")
    classify = stat("arch.vector.classify")
    commit = stat("arch.vector.commit")
    memory = stat("arch.memory")
    mrc = stat("analytic.mrc")
    accepted = classify.calls - classify.get("declines") - commit.get("bails")
    fractions = [
        summary.telemetry["derived"]["batch_run_fraction"]
        for summary in layers_pass.summaries.values()
        if summary.telemetry and summary.telemetry["derived"]["verdicts"]
    ]
    if dispatch.dispatches:
        spans = sum(d for d, _ in dispatch.dispatches)
        busy = sum(r for _, r in dispatch.dispatches)
        dispatch_s = (spans - busy) / slowness
        busy_frac = busy / (jobs * sum(dispatch.batch_s))
    else:
        busy = stat("runspec.execute_run").total_s
        dispatch_s = (stat("experiments.executor").total_s - busy) / slowness
        busy_frac = busy / wall
    out = {
        "workloads.take.s": take.total_s,
        "workloads.take.calls": take.calls,
        "workloads.take.addresses": take.get("addresses"),
        "arch.core.run.calls": stat("arch.core.run").calls,
        "arch.core.run.self_s": stat("arch.core.run").self_s,
        "arch.hierarchy.access.calls": stat("arch.hierarchy.access").calls,
        "arch.hierarchy.access_many.s": many.total_s,
        "arch.hierarchy.access_many.calls": many.calls,
        "arch.hierarchy.access_many.addresses": many.get("addresses"),
        "arch.hierarchy.access_many.mean_batch": (
            many.get("addresses") / many.calls if many.calls else 0.0),
        "arch.vector.classify.s": classify.total_s,
        "arch.vector.classify.calls": classify.calls,
        "arch.vector.classify.declines": classify.get("declines"),
        "arch.vector.accept_ratio": (
            accepted / classify.calls if classify.calls else 0.0),
        "arch.vector.commit.s": commit.total_s,
        "arch.vector.commit.calls": commit.calls,
        "arch.vector.commit.bails": commit.get("bails"),
        "arch.vector.commit.addresses": commit.get("addresses"),
        "arch.memory.s": memory.total_s,
        "arch.memory.accesses": (
            memory.get("accesses") + stat("arch.memory.access").calls),
        "perfmon.probe.s": stat("perfmon.probe").total_s,
        "perfmon.probe.calls": stat("perfmon.probe").calls,
        "caer.hook.s": stat("caer.hook").total_s,
        "caer.hook.calls": stat("caer.hook").calls,
        "caer.batch_run_fraction": (
            statistics.fmean(fractions) if fractions else 1.0),
        "sim.engine.self_s": stat("sim.engine").self_s,
        "sim.periods": stat("sim.engine").get("periods"),
        "analytic.mrc.s": mrc.total_s,
        "analytic.mrc.calls": mrc.calls,
        "analytic.mrc.distinct_inputs": mrc.get("distinct_inputs"),
        "statistical.engine.self_s": stat("statistical.engine").self_s,
        "runspec.execute_run.self_s": stat("runspec.execute_run").self_s,
        "experiments.executor.dispatch_s": dispatch_s,
        "experiments.executor.busy_frac": busy_frac,
        "experiments.campaign.overhead_s": (
            jobs1.wall_s - sum(jobs1.run_seconds)),
        "experiments.campaign.replay_s": jobs1.replay_s,
        "trace.coverage": layers.self_seconds() / wall,
        "trace.overhead_frac": overhead_frac,
    }
    for metric, layer, which in _SHARES:
        out[metric] = getattr(stat(layer), which) / wall
    # Layer seconds at the reference host speed, like every timing.
    for name in out:
        if name.endswith(("_s", ".s")) and name not in (
                "experiments.executor.dispatch_s",
                "experiments.campaign.overhead_s",
                "experiments.campaign.replay_s"):
            out[name] /= slowness
    return out


#: Per-layer counts that a traced pass must reproduce exactly.
DETERMINISTIC = tuple(
    name for name, unit in PER_LAYER_UNITS.items()
    if unit == "count" and not name.endswith("mean_batch")
)


# -- the run -------------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict
    table: dict
    failures: dict
    attempted: int
    digests: dict


def compare(failures: dict, label: str, got: dict, want: dict) -> None:
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            failures[f"{label} {key}"] = (
                f"digest {got.get(key)} != {want.get(key)}")


def measure(workload: Workload, settings, scratch: Path, seconds: float,
            trace: bool) -> Outcome:
    """Set up, run the passes, check them and derive the metrics."""
    from layers import LayerTracer
    from repro.experiments.workerpool import get_pool

    setup = setup_seconds(workload, settings, scratch, SETUP_TRIALS)
    if workload.jobs > 1:
        # Forked before any wrapper exists, so workers run untraced.
        get_pool(workload.jobs)
    failures: dict = {}
    passes: list[Pass] = []
    table: dict = {}
    metrics: dict = {}
    rss = None
    started = perf_counter()
    while True:
        passes.append(run_pass(workload, settings, scratch, workload.jobs,
                               replay=trace and workload.jobs == 1))
        if rss is None:
            # After one pass, so the figure does not grow with the
            # number of passes the time budget allowed.
            rss = peak_rss_mb()
        elapsed = perf_counter() - started
        if trace or elapsed + passes[-1].host_wall_s > MAX_MEASURE_S:
            break
        if len(passes) >= workload.min_passes and elapsed >= seconds:
            break
    base = passes[0]
    if trace:
        with LayerTracer() as dispatch:
            traced = run_pass(workload, settings, scratch, workload.jobs)
        overhead = traced.wall_s / base.wall_s - 1.0
        passes.append(traced)
        if workload.jobs == 1:
            layers, layers_pass, jobs1 = dispatch, traced, base
        else:
            # In-worker layers are attributed on a serial traced replay.
            with LayerTracer() as layers:
                layers_pass = run_pass(workload, settings, scratch, 1,
                                       replay=True)
            jobs1 = layers_pass
            passes.append(layers_pass)
        table = layer_metrics(layers, layers_pass, dispatch, jobs1,
                              overhead, workload.jobs)
        metrics = {name: table[name] for name in PER_LAYER_UNITS}
        if workload.backend == "sim" and \
                table["trace.coverage"] < MIN_COVERAGE:
            failures["trace coverage"] = (
                f"layer spans cover {table['trace.coverage']:.3f} of the "
                f"traced pass, below {MIN_COVERAGE}")
    for index, run in enumerate(passes):
        for key, why in run.failures.items():
            failures[f"pass {index} {key}"] = why
        if index:
            compare(failures, f"pass {index} vs pass 0", run.digests,
                    base.digests)
    if not trace:
        walls = [p.wall_s for p in passes]
        runs = [s for p in passes for s in p.run_seconds]
        rates = [p.periods / p.wall_s for p in passes]
        mae = fig1_mae(workload, base)
        host = statistics.median(p.host_wall_s for p in passes)
        slow = statistics.median(p.slowness for p in passes)
        table = {
            "wall_s": (statistics.median(walls), "s", len(walls),
                       f"passes; host {host:.4g} s at slowness "
                       f"{slow:.3g}"),
            "run_s_p50": (statistics.median(runs), "s", len(runs), "runs"),
            "sim_periods_per_s": (statistics.median(rates), "1/s",
                                  len(rates), "passes"),
            "setup_s": (statistics.median(setup), "s", len(setup),
                        "cold set-ups"),
            "peak_rss_mb": (rss, "MB",
                            1 + (workload.jobs if workload.jobs > 1 else 0),
                            "processes"),
            "fig1_slowdown_mae": (mae, "1", len(workload.victims),
                                  "victims"),
        }
        metrics = {name: table[name][0] for name in END_TO_END_UNITS}
    attempted = sum(p.attempted for p in passes)
    return Outcome(metrics, table, failures, attempted, base.digests)


def reference_key(workload: str, seed: int, length: float) -> str:
    return f"{workload}/seed{seed}/length{length!r}"


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE) as handle:
        return json.load(handle)


def record_reference(key: str, digests: dict, counts: dict | None) -> None:
    data = load_reference()
    entry = data.setdefault(key, {})
    entry["digests"] = digests
    if counts is not None:
        entry["counts"] = counts
    tmp = REFERENCE.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, REFERENCE)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def print_table(name: str, outcome: Outcome, trace: bool) -> None:
    print(f"# {name}: environment {json.dumps(environment())}")
    failed = len(outcome.failures)
    print(f"# {name}: failed_frac = {failed}/{outcome.attempted} = "
          f"{failed / outcome.attempted:.3g} (n={outcome.attempted} runs)")
    for why in sorted(outcome.failures.items()):
        print(f"#   FAILED {why[0]}: {why[1]}")
    if not trace:
        for metric, (value, unit, n, what) in outcome.table.items():
            print(f"# {name}: {metric} = {_fmt(value)} {unit} "
                  f"(n={n} {what})")
        return
    for metric in sorted(outcome.table):
        # Names off the driver line are the layers' seconds.
        unit = PER_LAYER_UNITS.get(metric, "s")
        print(f"# {name}: {metric} = {_fmt(outcome.table[metric])} {unit}")


def run_one(args, name: str) -> dict:
    from repro.experiments.campaign import CampaignSettings
    from repro.experiments.workerpool import shutdown_pool
    from setup_probe import stop_resource_tracker

    check_gates()
    workload = _workloads()[name]
    settings = CampaignSettings(length=args.length, seed=args.seed,
                                backend=workload.backend)
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-",
                                    dir=ROOT / ".perfbench_tmp"))
    try:
        outcome = measure(workload, settings, scratch, args.seconds,
                          bool(args.trace))
    finally:
        shutdown_pool()
        stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)
    key = reference_key(name, args.seed, args.length)
    counts = None
    if args.trace:
        counts = {m: outcome.table[m] for m in DETERMINISTIC}
    reference = load_reference().get(key)
    if reference is not None and not args.record:
        compare(outcome.failures, "reference", outcome.digests,
                reference["digests"])
        for metric, value in (counts or {}).items():
            want = reference.get("counts", {}).get(metric)
            if want is not None and want != value:
                outcome.failures[f"reference count {metric}"] = (
                    f"{value} != {want}")
    if args.record and not outcome.failures:
        record_reference(key, outcome.digests, counts)
    print_table(name, outcome, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    return {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": min(len(outcome.failures), outcome.attempted),
        "metrics": {
            metric: {"value": outcome.metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
        "environment": environment(),
        "workload": name,
        "seed": args.seed,
        "length": args.length,
        "table": {k: (v if args.trace else list(v))
                  for k, v in outcome.table.items()},
    }


def run_all(args) -> dict:
    """Every workload, each in a fresh interpreter (own peak RSS)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--length", repr(args.length)]
        if args.record:
            command.append("--record")
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name} failed: {proc.stderr.strip()}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
        merged.setdefault("details", {})[name] = result
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="untraced passes repeat until this elapses")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--length", type=float, default=DEFAULT_LENGTH)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the reference")
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the repro package is not in src/ of this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_one(args, args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
    line = {key: result[key]
            for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
