"""The production path vs. the scalar reference, differentially.

The production path (`CacheHierarchy.access_many` and the vector
kernel over flat-array LRU storage and the L3 owner column) is a pure
optimisation: for any address stream and any core interleaving it must
produce exactly the scalar walk's observables — serving levels,
per-core counters, cache stats, final cache contents, L3
ownership/occupancy, and back-invalidations.  These tests drive a
production-path hierarchy and a scalar reference with identical inputs
and compare everything, plus check that the routing predicate sends
every config the production path does not model to the reference walk.
"""

from __future__ import annotations

import dataclasses
import math
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import SetAssociativeCache, vector_kernel_enabled
from repro.arch.hierarchy import CacheHierarchy
from repro.arch.replacement import make_policy
from repro.config import CacheGeometry, MachineConfig


def tiny_machine(**overrides) -> MachineConfig:
    """A small machine whose caches thrash under ~64-line streams."""
    return dataclasses.replace(MachineConfig.tiny(), **overrides)


@contextmanager
def tier_env(fast: str = "1", vector: str = "0"):
    """Pin the execution-path env flags for the enclosed block.

    A context manager (not a fixture) so hypothesis-driven tests can
    re-enter it per generated input.  ``fast="0"`` selects the
    reference walk.  ``vector`` defaults off so the ``access_many``
    differentials stay pinned to the scalar batched walk; the vector
    kernel tests pass ``vector="1"`` explicitly.  The block also arms
    ``REPRO_DEBUG_INVARIANTS`` so every batch self-checks the
    ownership store on top of the differential comparison.
    """
    keys = ("REPRO_FAST_LANE", "REPRO_VECTOR_KERNEL",
            "REPRO_DEBUG_INVARIANTS")
    saved = {k: os.environ.get(k) for k in keys}
    os.environ["REPRO_FAST_LANE"] = fast
    os.environ["REPRO_VECTOR_KERNEL"] = vector
    os.environ["REPRO_DEBUG_INVARIANTS"] = "1"
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def hierarchy_pair(machine: MachineConfig):
    """Two identically seeded hierarchies: target + reference walk.

    The target is built under the caller's flags; the reference always
    under ``REPRO_FAST_LANE=0``, the oracle every path is checked
    against.
    """
    target = CacheHierarchy(machine, seed=11)
    with tier_env(fast="0"):
        ref = CacheHierarchy(machine, seed=11)
    return target, ref


def snapshot(h: CacheHierarchy) -> dict:
    caches = list(h.l1) + list(h.l2) + [h.l3]
    return {
        "contents": [
            [cache.set_contents(si) for si in range(cache._num_sets)]
            for cache in caches
        ],
        "stats": [
            (c.stats.hits, c.stats.misses, c.stats.fills,
             c.stats.evictions, c.stats.invalidations)
            for c in caches
        ],
        "counters": [c.as_dict() for c in h.counters],
        "occupancy": [
            h.l3_occupancy(core)
            for core in range(h.machine.num_cores)
        ],
        "owners": {
            addr: sorted(owners)
            for addr, owners in h.l3_owner_sets().items()
        },
    }


#: Any per-level cost table prices an unbudgeted walk; index = level.
UNIT_COSTS = (0.0, 1.0, 4.0, 12.0, 60.0)


def walk(h: CacheHierarchy, core: int, addrs) -> list[int]:
    """The serving levels of a whole batch: ``access_many`` unbudgeted."""
    levels, _ = h.access_many(core, addrs, UNIT_COSTS, 0.0, math.inf)
    assert len(levels) == len(addrs)
    return levels


def drive_and_compare(machine, batches):
    """Feed (core, addrs) batches to both paths; assert equality.

    The kernel hierarchy consumes whole batches through
    ``access_many``; the reference replays the same stream through
    scalar ``access`` calls.  Serving levels must match per address,
    and every piece of hierarchy state must match at the end.
    """
    kern, ref = hierarchy_pair(machine)
    for core, addrs in batches:
        got = walk(kern, core, addrs)
        want = [ref.access(core, a) for a in addrs]
        assert got == want
    assert snapshot(kern) == snapshot(ref)


#: Interleaved 2-core batches over a 64-line footprint, with runs of
#: consecutive repeats (the kernel collapses those) made likely.
BATCHES = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(1, 3)),
            min_size=1,
            max_size=40,
        ).map(lambda runs: [a for a, reps in runs for _ in range(reps)]),
    ),
    min_size=1,
    max_size=20,
)


class TestKernelDifferential:
    """access_many == scalar access loop, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(batches=BATCHES)
    def test_randomized_two_core_streams(self, batches):
        with tier_env():
            drive_and_compare(tiny_machine(), batches)

    @settings(max_examples=40, deadline=None)
    @given(batches=BATCHES)
    def test_non_inclusive_l3(self, batches):
        # Routed to the scalar walk over flat storage and the dict
        # store; the reference is the generic walk.
        with tier_env():
            drive_and_compare(tiny_machine(l3_inclusive=False), batches)

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random", "plru"])
    def test_every_policy_matches(self, policy):
        # Non-LRU policies take the scalar fallback inside access_many;
        # either way the observable behaviour must be identical.
        with tier_env():
            machine = tiny_machine(replacement=policy)
            stream = [(a * 7 + c) % 64 for a in range(200) for c in range(2)]
            drive_and_compare(
                machine,
                [(0, stream[:200]), (1, stream[200:]), (0, stream[::3])],
            )

    def test_co_located_thrash_with_back_invalidations(self):
        # Two cores fighting over an L3 smaller than their combined
        # footprint: evictions must steal lines and back-invalidate
        # the private caches of both the evicting and the foreign core.
        machine = tiny_machine()
        # Core 0 keeps a small set hot in its private caches; core 1
        # streams a footprint larger than the L3, evicting core 0's
        # (L3-cold but privately-resident) lines from behind it.
        # All addresses are multiples of 16, so they collide in L3 set
        # 0 (16 sets): core 1's 16-line sweep evicts core 0's hot
        # lines, which are still resident in core 0's L2.
        hot = [a * 16 for a in range(8)]
        sweep = [(8 + a) * 16 for a in range(16)]
        batches = []
        for _ in range(6):
            batches.append((0, hot * 3))
            batches.append((1, sweep))
        with tier_env():
            kern, ref = hierarchy_pair(machine)
            for core, addrs in batches:
                assert walk(kern, core, addrs) == [
                    ref.access(core, a) for a in addrs
                ]
        assert snapshot(kern) == snapshot(ref)
        # The scenario must actually exercise the interesting paths.
        assert any(c.back_invalidations > 0 for c in ref.counters)
        assert any(c.lines_stolen > 0 for c in ref.counters)


def priced_budget(oracle, core, addrs, costs, used, kind, pick):
    """A budget placing ``access_many``'s cutoff on a chosen position.

    Walks the prefix the budget lets execute on ``oracle`` (a third
    reference hierarchy in lockstep with the pair under test) to learn
    its levels, and returns ``(budget, levels, total)``: the cutoff
    the batch must honour, the executed prefix's levels and the
    running total after it.  ``kind`` picks the position: ``"mid"``
    cuts inside a run of repeats, ``"head"`` on the first access of a
    run (``pick`` chooses among the candidates; both set the budget
    exactly to the total the cut access starts at, the ``at or over``
    edge of the rule), ``"first"`` lands between ``used`` and the first
    access's cost (exactly one access executes), ``"none"`` at
    ``used`` itself (nothing executes) and ``"inf"`` never cuts.
    """
    n = len(addrs)
    cut = n
    if kind in ("mid", "head"):
        spots = [p for p in range(1, n)
                 if (addrs[p] == addrs[p - 1]) == (kind == "mid")]
        if spots:
            cut = spots[pick % len(spots)]
    elif kind == "first":
        cut = 1
    elif kind == "none":
        cut = 0
    levels = [oracle.access(core, a) for a in addrs[:cut]]
    total = used
    for level in levels:
        total += costs[level]
    if kind == "first":
        budget = used + costs[levels[0]] / 2
    elif cut == n:
        budget = math.inf
    else:
        budget = total
    return budget, levels, total


#: Per-level cost tables: level 1 is the cheapest, as on the core.
COSTS = st.tuples(
    st.floats(0.05, 3.0),
    st.floats(3.0, 20.0),
    st.floats(10.0, 60.0),
    st.floats(40.0, 400.0),
).map(lambda c: (0.0, *c))

#: Where each priced batch's budget lands (see priced_budget).
CUTS = st.lists(
    st.tuples(st.sampled_from(["mid", "head", "first", "none", "inf"]),
              st.integers(0, 1000), st.floats(0.0, 5000.0)),
    min_size=20, max_size=20,
)


class TestPricedBatches:
    """A priced ``access_many`` stops where the reference walk would."""

    @settings(max_examples=60, deadline=None)
    @given(batches=BATCHES, costs=COSTS, cuts=CUTS)
    def test_budget_cutoff_matches_reference(self, batches, costs, cuts):
        with tier_env():
            kern, ref = hierarchy_pair(tiny_machine())
            with tier_env(fast="0"):
                oracle = CacheHierarchy(tiny_machine(), seed=11)
            for (core, addrs), (kind, pick, used) in zip(batches, cuts):
                budget, want, total = priced_budget(
                    oracle, core, addrs, costs, used, kind, pick
                )
                got = kern.access_many(core, addrs, costs, used, budget)
                assert ref.access_many(core, addrs, costs, used,
                                       budget) == got
                assert got == (want, total)
                assert snapshot(kern) == snapshot(ref)
        assert snapshot(ref) == snapshot(oracle)

    @pytest.mark.parametrize("kind", ["mid", "head", "first", "none"])
    def test_each_cut_kind_truncates(self, kind):
        # A cold repeat-heavy batch, each line accessed three times.
        addrs = [a for a in range(40) for _ in range(3)]
        with tier_env():
            kern, ref = hierarchy_pair(tiny_machine())
            with tier_env(fast="0"):
                oracle = CacheHierarchy(tiny_machine(), seed=11)
            budget, want, total = priced_budget(
                oracle, 0, addrs, UNIT_COSTS, 10.0, kind, 17
            )
            for h in (kern, ref):
                levels, used = h.access_many(0, addrs, UNIT_COSTS, 10.0,
                                             budget)
                assert (levels, used) == (want, total)
                assert len(levels) == {"mid": 26, "head": 54,
                                       "first": 1, "none": 0}[kind]
            assert snapshot(kern) == snapshot(ref) == snapshot(oracle)


def resident_victim(seed: int = 0):
    """A namd-like repeat stream phase, then a Zipf phase, cycling."""
    from repro.sim.process import AppClass, SimProcess
    from repro.workloads.base import PhaseSpec, WorkloadSpec
    from repro.workloads.patterns import SequentialStreamSpec, ZipfSpec

    spec = WorkloadSpec(
        name="namd-zipf",
        phases=(
            PhaseSpec(pattern=SequentialStreamSpec(lines=48,
                                                   line_repeats=8),
                      duration_instructions=30_000.0, mem_ratio=0.22,
                      base_cpi=0.4, overlap=2.5),
            PhaseSpec(pattern=ZipfSpec(lines=160, alpha=1.1),
                      duration_instructions=20_000.0, mem_ratio=0.3,
                      base_cpi=0.5, overlap=1.5),
        ),
        total_instructions=1e9,
    )
    proc = SimProcess(spec, 0, AppClass.LATENCY_SENSITIVE, seed=seed)
    proc.launch()
    return proc


def streamer():
    """An lbm-like co-runner on core 1, sweeping past the tiny L3."""
    from repro.sim.process import AppClass, SimProcess
    from repro.workloads.base import PhaseSpec, WorkloadSpec
    from repro.workloads.patterns import SequentialStreamSpec

    spec = WorkloadSpec(
        name="sweep",
        phases=(PhaseSpec(pattern=SequentialStreamSpec(lines=400,
                                                       line_repeats=4),
                          duration_instructions=1e9, mem_ratio=0.4,
                          base_cpi=0.4, overlap=3.5),),
        total_instructions=1e9,
    )
    proc = SimProcess(spec, 1, AppClass.BATCH, seed=1)
    proc.launch()
    return proc


#: Core 0's budget sequence: full periods, slices, and budgets of a
#: few cycles that land below the stall debt a memory access carries.
RUN_BUDGETS = [40_000.0, 5_000.0, 0.5, 2.0, 1_234.5, 1.0, 40_000.0,
               3.25, 17.0, 250.0, 0.75, 9_999.0, 40_000.0, 6.0,
               40_000.0, 2_500.0, 1.5, 40_000.0]


#: Steps of RUN_BUDGETS at which the quota case caps core 0's L3
#: occupancy (CAER's partition response) and later lifts the cap.
QUOTA_ON, QUOTA_OFF = 3, 12


class TestCoreRunDifferential:
    """``Core.run`` on the production path == on the reference walk."""

    @pytest.mark.parametrize("vector, quota", [
        ("0", False), ("1", False), ("1", True),
    ], ids=["0", "1", "quota"])
    def test_budget_sequence_matches_reference(self, vector, quota):
        from repro.arch.chip import MulticoreChip

        calls = [0]
        own_evictions = [0, 0]
        with tier_env(vector=vector):
            prod = MulticoreChip(MachineConfig.tiny(), seed=5)
            assert prod.hierarchy.bulk_kernel_ok(0)
            original = prod.hierarchy.access

            def counted(core, addr):
                calls[0] += 1
                return original(core, addr)

            prod.hierarchy.access = counted
            with tier_env(fast="0"):
                ref = MulticoreChip(MachineConfig.tiny(), seed=5)
            for k, chip in enumerate((prod, ref)):
                evict = chip.hierarchy._evict_own_line

                def counted_evict(core, addr, k=k, evict=evict):
                    own_evictions[k] += 1
                    evict(core, addr)

                chip.hierarchy._evict_own_line = counted_evict
            runs = [(chip, resident_victim(), streamer())
                    for chip in (prod, ref)]
            below_debt = 0
            for step, budget in enumerate(RUN_BUDGETS):
                if quota and step in (QUOTA_ON, QUOTA_OFF):
                    for chip in (prod, ref):
                        chip.hierarchy.set_l3_quota(
                            0, 0.25 if step == QUOTA_ON else None
                        )
                if ref.core(0)._stall_debt > budget:
                    below_debt += 1
                got = []
                for chip, victim, sweep in runs:
                    got.append((chip.core(0).run(victim, budget),
                                chip.core(1).run(sweep, 3_000.0)))
                    if step % 4 == 3:
                        chip.memory.end_period(40_000)
                assert got[0] == got[1]
            for core_id in (0, 1):
                a, b = prod.core(core_id), ref.core(core_id)
                assert a.cycles_executed == b.cycles_executed
                assert a.instructions_retired == b.instructions_retired
                assert a.accesses_issued == b.accesses_issued
                assert a._stall_debt == b._stall_debt
            assert prod.memory.accesses == ref.memory.accesses
            assert prod.memory.total_queue_cycles == \
                ref.memory.total_queue_cycles
            assert snapshot(prod.hierarchy) == snapshot(ref.hierarchy)
        # The sequence must reach what it is meant to: budgets under a
        # carried debt, a non-zero queue delay, no scalar access
        # anywhere on the production path, and (quota case) own-line
        # pre-evictions on both walks.
        assert below_debt >= 2
        assert prod.memory.total_queue_cycles > 0.0
        assert calls[0] == 0
        assert own_evictions[0] == own_evictions[1]
        assert (own_evictions[0] > 0) == quota


def drive_vector(machine, batches):
    """Feed batches through the vector kernel; scalar replay must match.

    Each batch first tries the vector kernel (classify, then commit of
    the whole batch); if either declines, it re-routes through
    ``access_many`` — exactly the core's fallback.
    Serving levels must match the scalar reference per address, and all
    hierarchy state at the end.  Returns ``(committed, fallback)`` batch
    counts so callers can assert the path they meant to test actually
    ran.
    """
    kern, ref = hierarchy_pair(machine)
    committed = fallback = 0
    for core, addrs in batches:
        plan = None
        if kern.vector_kernel_ok(core):
            arr = np.asarray(addrs, dtype=np.int64)
            plan = kern.vector_classify(core, arr)
        if plan is not None and kern.vector_commit(
            core, plan, len(addrs)
        ):
            got = plan.levels.tolist()
            committed += 1
        else:
            got = walk(kern, core, addrs)
            fallback += 1
        want = [ref.access(core, a) for a in addrs]
        assert got == want
    assert snapshot(kern) == snapshot(ref)
    return committed, fallback


def _vector_stream(steps):
    """Turn (core, length, rewind, reps) steps into address batches.

    A cursor walks upward; ``rewind`` re-visits recently streamed lines
    (exercising the resident-line fallback, the L3 hit rotation and
    the hit-sharing-its-set decline) and ``reps`` expands each address
    into a consecutive repeat run (exercising run collapsing and the
    pure-MRU-repeat edge).
    """
    cur = 0
    batches = []
    for core, length, rewind, reps in steps:
        start = max(0, cur - rewind)
        batches.append(
            (core,
             [a for a in range(start, start + length)
              for _ in range(reps)])
        )
        cur = start + length
    return batches


#: Mostly-ascending streams with occasional rewinds and repeat runs:
#: the mix lands batches on every vector-kernel route (consecutive
#: all-miss fill, grouped fill, hit rotation, classify-declined,
#: commit-declined).
VECTOR_BATCHES = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(1, 120),
        st.integers(0, 60),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=10,
).map(_vector_stream)


class TestVectorDifferential:
    """Vector kernel (classify/commit) == scalar access loop, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(batches=VECTOR_BATCHES)
    def test_randomized_streams(self, batches):
        with tier_env(vector="1"):
            drive_vector(tiny_machine(), batches)

    @settings(max_examples=40, deadline=None)
    @given(batches=VECTOR_BATCHES)
    def test_non_inclusive_l3(self, batches):
        # The vector kernel declines (no owner column); the scalar
        # walk over array-backed L3 storage must match the generic one.
        with tier_env(vector="1"):
            drive_vector(tiny_machine(l3_inclusive=False), batches)

    @settings(max_examples=40, deadline=None)
    @given(batches=BATCHES)
    def test_small_footprint_streams_fall_back_correctly(self, batches):
        # The revisit-heavy access_many corpus: almost every batch is
        # classify-declined, so this pins the re-route through
        # access_many (and the scalar verbs over vector-backed L3
        # storage).
        with tier_env(vector="1"):
            drive_vector(tiny_machine(), batches)

    def test_streaming_batches_commit(self):
        # The bread-and-butter case — large consecutive batches — must
        # actually take the vector path, not silently fall back.  Each
        # batch spans 6 lines per tiny-L3 set, within its 8 ways (the
        # consec plan refuses batches whose own lines would evict each
        # other mid-stream).
        batches = [(0, list(range(base, base + 96)))
                   for base in range(0, 576, 96)]
        with tier_env(vector="1"):
            committed, fallback = drive_vector(tiny_machine(), batches)
        assert committed == len(batches)
        assert fallback == 0

    def test_dense_fill_strided_batches_commit(self):
        # Pointer-chase-shaped batches: non-consecutive strides far
        # larger than the private caches take the backward dense-fill
        # verb (only the surviving tail of each set's insertion stream
        # is written).  Five strided batches of 90 lines dwarf the tiny
        # L1 (4 lines) and L2 (16 lines) while spreading under 8 lines
        # per tiny-L3 set, so every batch must commit — and the scalar
        # replay in drive_vector proves the shortcut left tags, MRU,
        # resident sets and eviction counts bit-identical.
        batches, base = [], 0
        for stride in (3, 5, 7, 9, 11):
            batches.append(
                (0, [base + stride * i for i in range(90)])
            )
            base += stride * 90 + 1
        with tier_env(vector="1"):
            committed, fallback = drive_vector(tiny_machine(), batches)
        assert committed == len(batches)
        assert fallback == 0

    def test_mixed_hit_miss_batch_commits(self):
        # Re-streaming lines that fell out of the private caches but
        # still sit in the L3, one hit per L3 set, next to cold misses
        # into other sets: the hits rotate to MRU in bulk and the
        # misses take the grouped fill.
        with tier_env(vector="1"):
            kern, ref = hierarchy_pair(tiny_machine())
            warm = list(range(64))
            assert walk(kern, 0, warm) == [
                ref.access(0, a) for a in warm
            ]
            # 0..3 are L3 hits in sets 0..3 (48..63 still sit in
            # L1/L2); 200..203 are cold misses into sets 8..11.
            batch = [0, 1, 2, 3, 200, 201, 202, 203]
            plan = kern.vector_classify(0, np.asarray(batch, np.int64))
            assert plan is not None
            assert plan.hit is not None and plan.hit.any()
            assert kern.vector_commit(0, plan, len(batch))
            assert plan.levels.tolist() == [
                ref.access(0, a) for a in batch
            ]
            assert snapshot(kern) == snapshot(ref)

    def test_hit_sharing_its_set_declines_untouched(self):
        # A predicted hit whose L3 set also takes a miss: commit must
        # refuse with NO state mutated, and the scalar re-route must
        # then match the reference exactly.
        with tier_env(vector="1"):
            kern, ref = hierarchy_pair(tiny_machine())
            warm = list(range(64))
            assert walk(kern, 0, warm) == [
                ref.access(0, a) for a in warm
            ]
            # Line 0 is an L3 hit in set 0; 208 is a cold miss into
            # the same set.
            batch = [0, 208, 201]
            plan = kern.vector_classify(0, np.asarray(batch, np.int64))
            assert plan is not None
            assert plan.hit is not None and plan.hit.any()
            before = snapshot(kern)
            assert not kern.vector_commit(0, plan, len(batch))
            assert snapshot(kern) == before
            assert walk(kern, 0, batch) == [
                ref.access(0, a) for a in batch
            ]
            assert snapshot(kern) == snapshot(ref)

    def test_partial_prefix_commit(self):
        # The core's budget cutoff executes a prefix and pushes the
        # suffix back untouched: only the prefix may mutate state.
        addrs = list(range(200))
        cut = 90
        with tier_env(vector="1"):
            kern, ref = hierarchy_pair(tiny_machine())
            plan = kern.vector_classify(0, np.asarray(addrs, np.int64))
            assert plan is not None
            assert kern.vector_commit(0, plan, cut)
            assert plan.levels[:cut].tolist() == [
                ref.access(0, a) for a in addrs[:cut]
            ]
            assert snapshot(kern) == snapshot(ref)
            # The pushed-back suffix then re-enters as its own batch.
            suffix = addrs[cut:]
            plan2 = kern.vector_classify(
                0, np.asarray(suffix, np.int64)
            )
            assert plan2 is not None
            assert kern.vector_commit(0, plan2, len(suffix))
            assert plan2.levels.tolist() == [
                ref.access(0, a) for a in suffix
            ]
            assert snapshot(kern) == snapshot(ref)

    def test_mru_repeat_only_batch(self):
        # A batch that is nothing but repeats of the previous batch's
        # last line: zero collapsed accesses, pure L1-hit bookkeeping.
        with tier_env(vector="1"):
            kern, ref = hierarchy_pair(tiny_machine())
            first = list(range(8))
            drive = [(0, first), (0, [7] * 20), (0, [7, 8, 9])]
            for core, addrs in drive:
                plan = kern.vector_classify(
                    core, np.asarray(addrs, np.int64)
                )
                assert plan is not None
                assert kern.vector_commit(core, plan, len(addrs))
                assert plan.levels.tolist() == [
                    ref.access(core, a) for a in addrs
                ]
            assert snapshot(kern) == snapshot(ref)

    def test_overloaded_set_declines_untouched(self):
        # More lines into one L3 set than it has ways: commit must
        # refuse with NO state mutated, and the scalar re-route must
        # then match the reference exactly.
        with tier_env(vector="1"):
            kern, ref = hierarchy_pair(tiny_machine())
            nsets = kern.l3._num_sets
            assoc = kern.l3._assoc
            addrs = [i * nsets for i in range(2 * assoc)]
            plan = kern.vector_classify(0, np.asarray(addrs, np.int64))
            assert plan is not None
            before = snapshot(kern)
            assert not kern.vector_commit(0, plan, len(addrs))
            assert snapshot(kern) == before
            assert walk(kern, 0, addrs) == [
                ref.access(0, a) for a in addrs
            ]
            assert snapshot(kern) == snapshot(ref)

    def test_within_batch_revisit_declines(self):
        # Non-consecutive duplicates would hit lines the batch itself
        # fills; classification must refuse outright.
        with tier_env(vector="1"):
            kern, _ = hierarchy_pair(tiny_machine())
            addrs = np.asarray([5, 6, 7, 5], dtype=np.int64)
            assert kern.vector_classify(0, addrs) is None


class TestFallbackPredicate:
    """Configs the production path cannot model take the reference walk."""

    def test_kernel_allowed_on_plain_lru(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        h = CacheHierarchy(tiny_machine(), seed=1)
        assert h.bulk_kernel_ok(0)

    @pytest.mark.parametrize("overrides", [
        {"replacement": "fifo"},
        {"replacement": "plru"},
        {"model_writebacks": True},
        {"prefetch_degree": 1},
        {"l3_inclusive": False},
        {"num_cores": 64},
    ])
    def test_config_denies_kernel(self, overrides):
        with tier_env():
            h, ref = hierarchy_pair(tiny_machine(**overrides))
        assert not h.bulk_kernel_ok(0)
        assert not h.vector_kernel_ok(0)
        # The owner column marks the production path: a denied machine
        # carries the reference dict store instead.
        assert h.l3._owner_tags is None
        # Denied configs fall straight to the reference walk: the same
        # levels and the same end state as the REPRO_FAST_LANE=0 run.
        stream = [(a * 7) % 64 for a in range(300)]
        for core, addrs in ((0, stream[:150]), (1, stream[150:]),
                            (0, stream[::3])):
            assert walk(h, core, addrs) == \
                walk(ref, core, addrs)
        assert snapshot(h) == snapshot(ref)

    def test_quota_denies_only_vector_per_core(self, monkeypatch):
        # Quotas arrive mid-run (CAER's response hook).  access_many
        # models the quota's own-line pre-eviction, so the production
        # path keeps serving every core; only the vector commit, which
        # does not, flips off — for the capped core only, and back on
        # when the cap lifts.
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        monkeypatch.setenv("REPRO_VECTOR_KERNEL", "1")
        h = CacheHierarchy(tiny_machine(), seed=1)
        h.set_l3_quota(0, 0.5)
        assert h.bulk_kernel_ok(0)
        assert h.bulk_kernel_ok(1)
        assert not h.vector_kernel_ok(0)
        assert h.vector_kernel_ok(1)
        h.set_l3_quota(0, None)
        assert h.bulk_kernel_ok(0)
        assert h.vector_kernel_ok(0)

    def test_vector_allowed_on_plain_lru(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        monkeypatch.setenv("REPRO_VECTOR_KERNEL", "1")
        h = CacheHierarchy(tiny_machine(), seed=1)
        assert h.vector_kernel_ok(0)
        # Only the shared L3 carries vector storage; the private
        # levels stay list-backed (scalar fills win at their size).
        assert h.l3._vector
        assert not h.l1[0]._vector

    def test_vector_env_gate_denies_only_tier_four(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        monkeypatch.setenv("REPRO_VECTOR_KERNEL", "0")
        assert not vector_kernel_enabled()
        h = CacheHierarchy(tiny_machine(), seed=1)
        assert not h.vector_kernel_ok(0)
        assert not h.l3._vector
        # access_many keeps serving the production path.
        assert h.bulk_kernel_ok(0)

    def test_bulk_prerequisites_gate_vector(self, monkeypatch):
        # The vector kernel is part of the production path: a machine
        # access_many does not serve is denied the vector kernel too,
        # even though its L3 carries the vector storage.
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        monkeypatch.setenv("REPRO_VECTOR_KERNEL", "1")
        for overrides in ({"model_writebacks": True},
                          {"prefetch_degree": 1},
                          {"l3_inclusive": False}):
            h = CacheHierarchy(tiny_machine(**overrides), seed=1)
            assert h.l3._vector
            assert not h.bulk_kernel_ok(0)
            assert not h.vector_kernel_ok(0)

    @pytest.mark.parametrize("overrides", [
        {"model_writebacks": True},
        {"prefetch_degree": 2},
    ])
    def test_fallback_matches_scalar(self, overrides, monkeypatch):
        # The fallback literally is the reference walk; results and side
        # effects (store accumulator, prefetch fills) must match.
        monkeypatch.setenv("REPRO_FAST_LANE", "1")
        machine = tiny_machine(**overrides)
        kern, ref = hierarchy_pair(machine)
        kern.set_store_ratio(0, 0.3)
        ref.set_store_ratio(0, 0.3)
        stream = [(a * 5) % 48 for a in range(300)]
        assert walk(kern, 0, stream) == [
            ref.access(0, a) for a in stream
        ]
        assert snapshot(kern) == snapshot(ref)
        assert kern._store_accumulator == ref._store_accumulator


class TestFlatStorageInvariants:
    """The flat circular representation must stay self-consistent."""

    GEOMETRY = CacheGeometry(num_sets=4, associativity=4)

    def make_flat(self) -> SetAssociativeCache:
        with tier_env():
            cache = SetAssociativeCache(
                "flat", self.GEOMETRY, make_policy("lru", 4),
                specialize=True,
            )
        assert cache._flat
        return cache

    def check_invariants(self, cache: SetAssociativeCache) -> None:
        assoc = self.GEOMETRY.associativity
        resident = set()
        for si in range(self.GEOMETRY.num_sets):
            contents = cache.set_contents(si)
            assert len(contents) == len(set(contents))
            assert len(contents) == cache._fill_counts[si]
            if cache._fill_counts[si] < assoc:
                # Partially filled sets are never rotated.
                assert cache._heads[si] == 0
            if contents:
                # The MRU shadow is the logical tail.
                assert cache._mru[si] == contents[-1]
            resident.update(contents)
        assert resident == cache._resident

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 31)),
        min_size=1, max_size=200,
    ))
    def test_random_ops_preserve_invariants(self, ops):
        cache = self.make_flat()
        for op, addr in ops:
            if op == 0:
                cache.probe(addr)
            elif op == 1:
                cache.fill(addr)
            else:
                cache.invalidate(addr)
        self.check_invariants(cache)

    def test_flush_resets_flat_state(self):
        cache = self.make_flat()
        for addr in range(64):
            cache.fill(addr)
        cache.flush()
        self.check_invariants(cache)
        assert not cache._resident
        assert all(f == 0 for f in cache._fill_counts)

    def test_set_contents_roundtrip_when_rotated(self):
        cache = self.make_flat()
        # Fill past capacity so the set's circular window rotates.
        for addr in range(0, 6 * 4, 4):
            cache.fill(addr)
        before = cache.set_contents(0)
        assert cache.set_contents(0) == before
        self.check_invariants(cache)


class TestFlushStoreAccumulator:
    """Regression: flush() must reset the fractional store credit."""

    def test_two_flush_separated_runs_identical_writebacks(self):
        machine = tiny_machine(model_writebacks=True)
        h = CacheHierarchy(machine, seed=3)
        # A store ratio that leaves a fractional credit dangling after
        # an odd number of accesses.
        stream = [(a * 5) % 48 for a in range(301)]

        def one_run() -> int:
            before = h.counters[0].writebacks
            h.set_store_ratio(0, 0.35)
            for addr in stream:
                h.access(0, addr)
            return h.counters[0].writebacks - before

        first = one_run()
        h.flush()
        assert h._store_accumulator == [0.0] * machine.num_cores
        second = one_run()
        assert first == second


class TestEndToEndTiers:
    """Full engine runs must be identical on every execution path."""

    @staticmethod
    def _run(metrics=None, victim="429.mcf"):
        from repro.caer.runtime import caer_factory
        from repro.experiments.campaign import resolve_caer_config
        from repro.sim import run_colocated
        from repro.workloads import benchmark

        machine = MachineConfig.tiny()
        l3 = machine.l3.capacity_lines
        ls = benchmark(victim, l3, length=0.02)
        batch = benchmark("470.lbm", l3, length=0.02)
        return run_colocated(
            ls, batch, machine,
            caer_factory=caer_factory(resolve_caer_config("shutter")),
            seed=2, metrics=metrics,
        )

    def _check_across_tiers(self, victim):
        results = {}
        for name, env in [
            ("generic", ("0", "0")),
            ("kernel", ("1", "0")),
            ("vector", ("1", "1")),
        ]:
            with tier_env(*env):
                results[name] = self._run(victim=victim)
        assert results["kernel"] == results["generic"]
        assert results["vector"] == results["generic"]

    def test_run_result_identical_across_tiers(self):
        self._check_across_tiers("429.mcf")

    def test_resident_victim_identical_across_tiers(self):
        # namd's repeat runs are cheap L1 hits, so its batches end on
        # budget cutoffs, often inside a run.
        self._check_across_tiers("444.namd")

    def test_traced_run_identical_on_vector_tier(self, tmp_path):
        # Attaching metrics (and so the obs plumbing) must not perturb
        # the simulation: the vector kernel's RunResult has to be
        # bit-identical with and without telemetry.
        from repro.obs import MetricsRegistry

        with tier_env("1", "1"):
            bare = self._run()
            traced = self._run(metrics=MetricsRegistry())
        assert traced == bare

    def test_tier_recorded_in_metrics_gauges(self):
        from repro.obs import MetricsRegistry

        for fast, vector, wants in [
            ("0", "0", (0.0, 0.0, 0.0)),
            ("0", "1", (0.0, 0.0, 0.0)),
            ("1", "0", (1.0, 1.0, 0.0)),
            ("1", "1", (1.0, 1.0, 1.0)),
        ]:
            with tier_env(fast, vector):
                metrics = MetricsRegistry()
                self._run(metrics=metrics)
            snap = metrics.snapshot()
            assert snap["sim.fast_lane"]["value"] == wants[0]
            assert snap["sim.bulk_kernel"]["value"] == wants[1]
            assert snap["sim.vector_kernel"]["value"] == wants[2]
