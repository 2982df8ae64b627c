"""Smoke tests of the end-to-end benchmark at a tiny run length.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced at ``--length 0.01``;
the statistical workload still profiles its miss-rate curves at full
size, so the suite takes a couple of minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
TINY = "0.01"
SIM_WORKLOADS = ("resident", "sensitive", "response")


def bench(*args: str, env: dict | None = None, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
        env=env, check=False,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_within_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert 1 <= len(SPEC["paths"]) <= 16
    assert all(PATH.fullmatch(p) and ".." not in p for p in SPEC["paths"])
    assert len(SPEC["command"]) <= 32
    assert all(len(part) <= 200 for part in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run(workload):
    result = last_json(bench("--workload", workload, "--seed", "1",
                             "--seconds", "0", "--trace", "0",
                             "--length", TINY))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for name, entry in result["metrics"].items():
        assert entry == {"value": entry["value"],
                         "unit": run.END_TO_END_UNITS[name]}
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run(workload):
    args = ("--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", "1", "--length", TINY)
    result = last_json(bench(*args))
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0.5 < values["trace.coverage"] <= 1.0 + 1e-9
    if workload in SIM_WORKLOADS:
        assert values["sim.periods"] > 0
        assert values["arch.core.run.calls"] > 0
        assert values["analytic.mrc.calls"] == 0
        # Deterministic counts repeat exactly on a second traced run.
        again = last_json(bench(*args))["metrics"]
        for name in run.DETERMINISTIC:
            assert again[name]["value"] == values[name], name
    else:
        assert values["analytic.mrc.calls"] > 0
        assert values["sim.periods"] == 0
        assert 0 < values["analytic.mrc.distinct_inputs"] <= \
            values["analytic.mrc.calls"]


def test_refuses_nondefault_gate():
    env = dict(os.environ, REPRO_VECTOR_KERNEL="0")
    proc = bench("--workload", "response", "--seconds", "0",
                 "--length", TINY, env=env)
    assert proc.returncode != 0
    assert "REPRO_VECTOR_KERNEL" in proc.stderr
    assert not proc.stdout.strip()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "resident", "--seed", "0", "--seconds",
                 "10", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_digest_mismatch_is_a_failure():
    failures: dict = {}
    run.compare(failures, "reference", {"a/solo": "x", "b/raw": "y"},
                {"a/solo": "x", "b/raw": "z", "c/rule": "w"})
    assert set(failures) == {"reference b/raw", "reference c/rule"}
