"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric, prints the median, the
quartiles and the interquartile range as a share of the median, next to
a third of the metric's bound from ``BENCHMARK.json`` (the steadiness
target).  ``--out`` writes every run's result and the summary as one
JSON trajectory point, the "before" column later changes compare with;
``--trace-seeds`` adds traced runs (per-layer metrics) to it.

    python3 perfbench/spread.py --seeds 0-9
    python3 perfbench/spread.py --workloads response --seeds 0-4
    python3 perfbench/spread.py --seeds 0-9 --trace-seeds 0 --out point.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def run(workload: str, seed: int, seconds: int, trace: int,
        record: bool) -> dict:
    """One benchmark run in a fresh interpreter; its full record."""
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as tmp:
        out = Path(tmp) / "result.json"
        command = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", str(trace), "--out", str(out)]
        if record:
            command.append("--record")
        proc = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT, timeout=900, check=False)
        if proc.returncode != 0:
            raise SystemExit(
                f"{workload} seed {seed} failed:\n{proc.stderr}")
        return json.loads(out.read_text())


def summarise(results: list[dict], bounds: dict, label: str,
              check: bool) -> tuple[dict, bool]:
    """Per-metric spread of ``results``; ``check`` applies the target
    of a third of each metric's bound."""
    summary = {}
    steady = True
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        median, q1, q3, share = spread(values)
        summary[metric] = {"median": median, "q1": q1, "q3": q3,
                           "iqr_share": share, "values": values,
                           "unit": results[0]["metrics"][metric]["unit"]}
        verdict = ""
        bound = bounds.get(metric)
        if check and bound is not None:
            ok = share < bound / 3 or metric == "setup_s"
            steady &= ok
            verdict = f" target<{bound / 3:.3f} {'ok' if ok else 'WIDE'}"
        print(f"  {label} {metric}: median {median:.6g} q1 {q1:.6g} "
              f"q3 {q3:.6g} iqr/median {share:.4f}{verdict}", flush=True)
    return summary, steady


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="0-9",
                        help="seeds of the untraced runs ('' for none)")
    parser.add_argument("--trace-seeds", default="",
                        help="seeds of traced runs, after the untraced")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", action="store_true",
                        help="pass --record: store digests as reference")
    parser.add_argument("--out", help="write the trajectory point here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds) if args.seeds else []
    trace_seeds = parse_seeds(args.trace_seeds) if args.trace_seeds else []
    point: dict = {"seeds": seeds, "trace_seeds": trace_seeds,
                   "run_seconds": args.seconds, "workloads": {}}
    steady = True
    correct = True
    for workload in args.workloads.split(","):
        entry: dict = {}
        for trace, chosen in ((0, seeds), (1, trace_seeds)):
            if not chosen:
                continue
            results = []
            for seed in chosen:
                result = run(workload, seed, args.seconds, trace,
                             args.record)
                results.append(result)
                correct &= result["correct"]
                print(f"{workload} seed {seed} trace {trace}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      flush=True)
            summary, ok = summarise(results, bounds, workload, not trace)
            steady &= ok
            key = "per_layer" if trace else "end_to_end"
            entry[key] = summary
            entry[f"{key}_runs"] = results
        point["workloads"][workload] = entry
        point.setdefault("environment", entry[key + "_runs"][0]
                         ["environment"])
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(point, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(("steady" if steady else "NOT steady") + ", " +
          ("correct" if correct else "INCORRECT"))
    return 0 if steady and correct else 1


if __name__ == "__main__":
    sys.exit(main())
