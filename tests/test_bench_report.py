"""The bench_simspeed ``--json`` report: schema and gate logic.

``BENCH_simspeed.json`` is a perf *trajectory*: each full bench run
appends one comparable point (schema 2), and pre-trajectory schema-1
snapshots are migrated as point zero.  These tests pin the point
schema, the v1 -> v2 migration, the append semantics, and the gate
logic — including the per-workload vector and generic gates —
without running full-length measurements.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks"
    / "bench_simspeed.py"
)
_spec = importlib.util.spec_from_file_location("bench_simspeed", BENCH_PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

TIER_NAMES = {"generic", "kernel", "vector"}
RATIO_NAMES = {
    "kernel_over_generic",
    "vector_over_kernel",
    "vector_over_generic",
}


def fake_rows(
    kg: float = 4.0,
    vk: float = 6.0,
    gate_vk: float | None = None,
    gate_vg: float | None = None,
):
    """Synthetic suite rows with the given ratios on every workload.

    ``vk`` is the default-budget vector/kernel ratio; ``gate_vk``
    overrides the ratio measured at each workload's own vector-gate
    budget (defaults to comfortably above every target); ``gate_vg``
    overrides the generic gates' vector-over-generic ratio likewise.
    """
    rows = []
    for name, (_f, gated, vgate, ggate) in bench.WORKLOADS.items():
        generic = 100_000.0
        row = {
            "workload": name,
            "kernel_gated": gated,
            "tiers": {
                "generic": generic,
                "kernel": generic * kg,
                "vector": generic * kg * vk,
            },
            "ratios": {
                "kernel_over_generic": kg,
                "vector_over_kernel": vk,
                "vector_over_generic": kg * vk,
            },
            "vector_gate": None,
            "generic_gate": None,
        }
        if vgate is not None:
            ratio = gate_vk if gate_vk is not None else \
                vgate["target"] + 1.0
            row["vector_gate"] = {
                "budget": vgate["budget"],
                "target": vgate["target"],
                "kernel": generic * kg,
                "vector": generic * kg * ratio,
                "vector_over_kernel": ratio,
            }
        if ggate is not None:
            ratio = gate_vg if gate_vg is not None else \
                ggate["target"] + 0.5
            row["generic_gate"] = {
                "budget": ggate["budget"],
                "target": ggate["target"],
                "generic": generic,
                "vector": generic * ratio,
                "vector_over_generic": ratio,
            }
        rows.append(row)
    return rows


def fake_point():
    return bench.build_point(fake_rows(), warm=1, timed=2, reps=1)


class TestPointSchema:
    def test_point_has_contract_fields(self):
        point = fake_point()
        for key in ("platform", "python", "implementation", "cpu_count"):
            assert key in point["machine"]
        assert point["config"]["machine_config"] == "scaled_nehalem"
        for name in bench.WORKLOADS:
            wl = point["workloads"][name]
            assert set(wl["tiers"]) == TIER_NAMES
            assert set(wl["ratios"]) == RATIO_NAMES
        assert point["targets"]["kernel_over_generic"] == \
            bench.KERNEL_OVER_GENERIC_TARGET
        assert point["targets"]["vector_over_kernel_stream"] == \
            bench.VECTOR_OVER_KERNEL_STREAM_TARGET
        assert point["targets"]["vector_over_kernel_chase"] == \
            bench.VECTOR_OVER_KERNEL_CHASE_TARGET
        assert point["targets"]["vector_over_generic_stream"] == \
            bench.VECTOR_OVER_GENERIC_STREAM_TARGET
        assert point["targets"]["vector_over_generic_chase"] == \
            bench.VECTOR_OVER_GENERIC_CHASE_TARGET

    def test_point_records_kernel_gates_per_tier(self):
        # A trajectory point must say which REPRO_* execution gates
        # each measured column ran under.
        gates = fake_point()["kernel_gates"]
        assert set(gates) == set(bench.TIERS)
        for column in gates.values():
            assert set(column) == {"fast_lane", "vector_kernel"}
            assert all(isinstance(v, bool) for v in column.values())
        assert gates["vector"] == {"fast_lane": True, "vector_kernel": True}
        assert gates["kernel"] == {"fast_lane": True, "vector_kernel": False}
        assert not gates["generic"]["fast_lane"]

    def test_gated_workloads_record_their_gate_measurement(self):
        point = fake_point()
        gated = {
            name: vgate
            for name, (_f, _g, vgate, _gg) in bench.WORKLOADS.items()
            if vgate is not None
        }
        assert gated  # the suite must carry at least one vector gate
        for name, vgate in gated.items():
            gate = point["workloads"][name]["vector_gate"]
            assert gate["budget"] == vgate["budget"]
            assert gate["target"] == vgate["target"]
            assert gate["vector_over_kernel"] > gate["target"]
        ungated = set(bench.WORKLOADS) - set(gated)
        for name in ungated:
            assert point["workloads"][name]["vector_gate"] is None

    def test_generic_gated_workloads_record_their_measurement(self):
        point = fake_point()
        gated = {
            name: ggate
            for name, (_f, _g, _v, ggate) in bench.WORKLOADS.items()
            if ggate is not None
        }
        # Both acceptance workloads carry a generic gate.
        assert set(gated) == {"stream-llc", "pointer-chase"}
        for name, ggate in gated.items():
            gate = point["workloads"][name]["generic_gate"]
            assert gate["budget"] == ggate["budget"] == bench.DEFAULT_BUDGET
            assert gate["target"] == ggate["target"]
            assert gate["vector_over_generic"] > gate["target"]
        for name in set(bench.WORKLOADS) - set(gated):
            assert point["workloads"][name]["generic_gate"] is None

    def test_report_wraps_points(self):
        report = bench.build_report([fake_point()])
        assert report["schema_version"] == bench.SCHEMA_VERSION
        assert report["benchmark"] == "bench_simspeed"
        assert len(report["points"]) == 1

    def test_report_is_json_serialisable(self):
        report = bench.build_report([fake_point()])
        assert json.loads(json.dumps(report)) == report

    def test_checked_in_seed_matches_schema(self):
        seed_path = BENCH_PATH.parent.parent / "BENCH_simspeed.json"
        report = json.loads(seed_path.read_text())
        assert report["schema_version"] == bench.SCHEMA_VERSION
        assert report["points"]
        # Every point names the same workload set the suite runs.
        for point in report["points"]:
            assert set(point["workloads"]) == set(bench.WORKLOADS)


class TestTrajectory:
    def test_migrate_v1_snapshot_becomes_point_zero(self):
        v1 = {
            "schema_version": 1,
            "benchmark": "bench_simspeed",
            "timestamp": "2026-08-06T00:00:00",
            "machine": {},
            "config": {},
            "targets": {},
            "workloads": {},
        }
        points = bench.migrate_points(v1)
        assert len(points) == 1
        assert "schema_version" not in points[0]
        assert "benchmark" not in points[0]
        assert points[0]["timestamp"] == "2026-08-06T00:00:00"

    def test_migrate_v2_returns_points_as_is(self):
        report = bench.build_report([fake_point(), fake_point()])
        assert bench.migrate_points(report) == report["points"]

    def test_write_fresh_file_has_one_point(self, tmp_path):
        path = tmp_path / "bench.json"
        count = bench.write_report(
            path, fake_rows(), warm=1, timed=2, reps=1, append=True
        )
        assert count == 1
        report = json.loads(path.read_text())
        assert report["schema_version"] == bench.SCHEMA_VERSION
        assert len(report["points"]) == 1

    def test_append_accumulates_points(self, tmp_path):
        path = tmp_path / "bench.json"
        for expected in (1, 2, 3):
            count = bench.write_report(
                path, fake_rows(), warm=1, timed=2, reps=1, append=True
            )
            assert count == expected
        assert len(json.loads(path.read_text())["points"]) == 3

    def test_append_migrates_v1_file_in_place(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "benchmark": "bench_simspeed",
            "timestamp": "t0",
            "workloads": {},
        }))
        count = bench.write_report(
            path, fake_rows(), warm=1, timed=2, reps=1, append=True
        )
        assert count == 2
        report = json.loads(path.read_text())
        assert report["schema_version"] == bench.SCHEMA_VERSION
        assert report["points"][0]["timestamp"] == "t0"
        assert set(report["points"][1]["workloads"]) == \
            set(bench.WORKLOADS)

    def test_overwrite_without_append_keeps_one_point(self, tmp_path):
        path = tmp_path / "bench.json"
        bench.write_report(
            path, fake_rows(), warm=1, timed=2, reps=1, append=True
        )
        count = bench.write_report(
            path, fake_rows(), warm=1, timed=2, reps=1, append=False
        )
        assert count == 1
        assert len(json.loads(path.read_text())["points"]) == 1


class TestGateLogic:
    def test_passing_ratios_produce_no_failures(self):
        assert bench.check_gates(fake_rows(), smoke=False) == []
        assert bench.check_gates(fake_rows(), smoke=True) == []

    def test_kernel_below_generic_target_fails(self):
        failures = bench.check_gates(fake_rows(kg=2.0), smoke=False)
        assert any(f.startswith("stream-llc: kernel") and
                   "over-generic" in f for f in failures)
        # Only the gated streaming benchmark enforces the kernel gate.
        gated = [
            name for name, (_f, g, _v, _gg) in bench.WORKLOADS.items()
            if g
        ]
        kernel_failures = [f for f in failures if ": kernel" in f]
        assert all(f.split(":")[0] in gated for f in kernel_failures)

    def test_vector_below_gate_target_fails_each_gated_workload(self):
        failures = bench.check_gates(
            fake_rows(gate_vk=1.01), smoke=False
        )
        gated = [
            name for name, (_f, _g, v, _gg) in bench.WORKLOADS.items()
            if v is not None
        ]
        vector_failures = [f for f in failures if "over-kernel" in f]
        assert len(vector_failures) == len(gated)
        for f in vector_failures:
            assert "cycle budget" in f

    def test_vector_gate_passes_exactly_at_target(self):
        rows = fake_rows()
        for row in rows:
            if row["vector_gate"] is not None:
                row["vector_gate"]["vector_over_kernel"] = \
                    row["vector_gate"]["target"]
        assert bench.check_gates(rows, smoke=False) == []

    def test_generic_gate_below_target_fails_each_gated_workload(self):
        failures = bench.check_gates(fake_rows(gate_vg=4.0),
                                     smoke=False)
        generic_failures = [
            f for f in failures if ": vector" in f and "over-generic" in f
        ]
        gated = [
            name for name, (_f, _g, _v, gg) in bench.WORKLOADS.items()
            if gg is not None
        ]
        assert len(generic_failures) == len(gated)
        assert all(f.split(":")[0] in gated for f in generic_failures)

    def test_generic_gate_passes_exactly_at_target(self):
        rows = fake_rows()
        for row in rows:
            if row["generic_gate"] is not None:
                row["generic_gate"]["vector_over_generic"] = \
                    row["generic_gate"]["target"]
        assert bench.check_gates(rows, smoke=False) == []

    def test_smoke_checks_ordering_only(self):
        # Below absolute targets but correctly ordered: smoke passes.
        rows = fake_rows(kg=1.3, vk=1.1, gate_vk=1.1, gate_vg=1.2)
        assert bench.check_gates(rows, smoke=True) == []
        assert bench.check_gates(rows, smoke=False) != []
        # An inversion fails even the smoke run.
        inverted = fake_rows(kg=0.8, vk=0.9)
        assert bench.check_gates(inverted, smoke=True) != []

    def test_smoke_vector_ordering_applies_to_gated_rows_only(self):
        # Pointer-chase stands down to parity at the smoke budget, so
        # vector-below-kernel there must not fail the smoke run; the
        # amortised streaming benchmark still must stay ordered.
        rows = fake_rows(vk=0.9)
        failures = bench.check_gates(rows, smoke=True)
        slower = [f for f in failures if "vector slower than kernel" in f]
        gated = [
            name for name, (_f, g, _v, _gg) in bench.WORKLOADS.items()
            if g
        ]
        assert len(slower) == len(gated)
        assert all(f.split(":")[0] in gated for f in slower)

    def test_smoke_ignores_vector_gate_measurements(self):
        # Smoke rows carry no gate measurement at all; the checker
        # must not require one.
        rows = fake_rows()
        for row in rows:
            row["vector_gate"] = None
            row["generic_gate"] = None
        assert bench.check_gates(rows, smoke=True) == []
