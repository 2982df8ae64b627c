"""Golden result digests: the answers themselves, not tier agreement.

The differential suites prove every execution path agrees with the
reference walk; this module pins what they all agree *on*.  It runs a
small slice of the §6 matrix — four victims (two LLC-sensitive, two
cache-resident) under solo, raw, shutter and rule-based, at a short
length, on both backends — and compares each run's content digest
against the table below.  The digest hashes the same ``RunSummary``
fields as ``perfbench/run.py::digest``.

A mismatch means simulated answers moved.  If that is intended, bump
``CACHE_EPOCH`` in ``repro.experiments.campaign`` (stale cached runs
must not survive the change), add a CHANGES.md line saying why the
answers moved, and re-record the table with::

    PYTHONPATH=src python -m tests.test_golden_digests
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.campaign import (
    CACHE_EPOCH,
    CampaignSettings,
    produce_summary,
)

LENGTH = 0.02
VICTIMS = ("429.mcf", "450.soplex", "444.namd", "453.povray")
CONFIGS = ("solo", "raw", "shutter", "rule")
BACKENDS = ("sim", "statistical")

#: ``CACHE_EPOCH`` the table below was recorded under.
GOLDEN_EPOCH = 8

#: backend -> "victim/config" -> digest, at LENGTH and seed 0.
GOLDEN: dict[str, dict[str, str]] = {
    "sim": {
        "429.mcf/solo": "9af3d96db603166d",
        "429.mcf/raw": "1258931d186ef394",
        "429.mcf/shutter": "f91f7b9e659f9e29",
        "429.mcf/rule": "9c47df20249279e7",
        "450.soplex/solo": "0ec00875c09a0bf1",
        "450.soplex/raw": "be38449c37743658",
        "450.soplex/shutter": "dca685b6549e72d8",
        "450.soplex/rule": "a247bd566c3064e2",
        "444.namd/solo": "b78cd1b6daf4ed1f",
        "444.namd/raw": "9ea7e11249d8e490",
        "444.namd/shutter": "4d2827b0b93edf88",
        "444.namd/rule": "8312265c57be1839",
        "453.povray/solo": "2d1980c317046fb0",
        "453.povray/raw": "9511f9b9b3576636",
        "453.povray/shutter": "3c6dcf4085e40af4",
        "453.povray/rule": "3f23889fc5236691"
    },
    "statistical": {
        "429.mcf/solo": "b2e16a4e6474d99d",
        "429.mcf/raw": "135a868357d7dd2d",
        "429.mcf/shutter": "e497458efd47467f",
        "429.mcf/rule": "52ff503628b20f3e",
        "450.soplex/solo": "8448315b532c7e28",
        "450.soplex/raw": "c72d983d5e9e3ba5",
        "450.soplex/shutter": "723e3d503a5f0c84",
        "450.soplex/rule": "b6dddb117342e18f",
        "444.namd/solo": "06494e501a8139cd",
        "444.namd/raw": "4c4b122c87358098",
        "444.namd/shutter": "0de9f2c7d95d15e1",
        "444.namd/rule": "3f641943f88070a3",
        "453.povray/solo": "f2de9d8a2b015266",
        "453.povray/raw": "ef320c0843a27b0b",
        "453.povray/shutter": "79681c2424df6dd7",
        "453.povray/rule": "ef320c0843a27b0b"
    }
}

HOW_TO_UPDATE = (
    "simulated answers changed. If the change is intended, bump "
    "CACHE_EPOCH in repro.experiments.campaign, add a CHANGES.md line "
    "saying why the answers moved, and re-record the table with "
    "`PYTHONPATH=src python -m tests.test_golden_digests`."
)


def digest(summary) -> str:
    """Content digest of one run (the fields perfbench/run.py hashes)."""
    payload = json.dumps([
        summary.completion_periods,
        summary.total_periods,
        summary.ls_total_llc_misses,
        repr(summary.utilization_gained),
        summary.miss_series,
        summary.instruction_series,
    ])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def backend_digests(backend: str) -> dict[str, str]:
    settings = CampaignSettings(length=LENGTH, backend=backend)
    return {
        f"{bench}/{config}": digest(produce_summary(settings, bench, config))
        for bench in VICTIMS
        for config in CONFIGS
    }


def test_table_recorded_under_current_epoch():
    assert CACHE_EPOCH == GOLDEN_EPOCH, (
        f"CACHE_EPOCH is {CACHE_EPOCH} but the golden digests were "
        f"recorded under {GOLDEN_EPOCH}: re-record the table with "
        "`PYTHONPATH=src python -m tests.test_golden_digests`."
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_digests_match_golden(backend):
    got = backend_digests(backend)
    moved = {
        key: (GOLDEN[backend].get(key), value)
        for key, value in got.items()
        if GOLDEN[backend].get(key) != value
    }
    assert not moved, f"{backend}: {HOW_TO_UPDATE} Moved: {moved}"


if __name__ == "__main__":
    table = {backend: backend_digests(backend) for backend in BACKENDS}
    print(f"GOLDEN_EPOCH = {CACHE_EPOCH}")
    print(f"GOLDEN: dict[str, dict[str, str]] = "
          f"{json.dumps(table, indent=4)}")
