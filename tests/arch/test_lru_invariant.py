"""An analytic LRU bound on the shared L3, checked on both walks.

The cache-contention analysis of WCET work (PAPERS.md, arXiv
2508.13863) rests on one property of LRU: a line can leave its set
between two of its references only if at least ``assoc`` distinct other
lines of that set were referenced in between.  In this model the L3's
recency changes only on an L3 reference (an access the private levels
did not serve: serving level 3 or 4) and its contents only on an L3
fill, so the property reads directly off the serving levels.  With no
quota (whose pre-eviction removes a line early) and no flush, it must
hold for any two-core interleaving — on the production path and on the
reference walk alike, so the oracle itself is checked against theory.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.arch.test_bulk_kernel import (
    hierarchy_pair,
    tier_env,
    tiny_machine,
    walk,
)


def check_lru_reuse_bound(h, batches) -> int:
    """Walk ``batches`` on ``h`` and assert the bound on every re-miss.

    For each L3 reference answered by memory, counts the distinct other
    lines of the same L3 set referenced since the line's previous L3
    reference, and asserts there are at least ``assoc``.  Returns how
    many re-misses were checked (a first reference is compulsory and
    bounds nothing).
    """
    mask = h.machine.l3.num_sets - 1
    assoc = h.machine.l3.associativity
    refs = defaultdict(list)  # L3 set -> its L3 references, in order
    last: dict[int, int] = {}  # line -> index of its latest reference
    checked = 0
    for core, addrs in batches:
        for addr, level in zip(addrs, walk(h, core, addrs)):
            if level < 3:
                continue
            set_refs = refs[addr & mask]
            prev = last.get(addr)
            if level == 4 and prev is not None:
                between = set(set_refs[prev + 1:])
                assert len(between) >= assoc, (
                    f"line {addr} left its set after only "
                    f"{len(between)} distinct references (assoc {assoc})"
                )
                checked += 1
            last[addr] = len(set_refs)
            set_refs.append(addr)
    return checked


#: Two-core interleavings over two L3 sets of the tiny machine (16 sets
#: x 8 ways), 24 candidate lines each, with consecutive repeats likely:
#: the private levels filter part of the stream and the L3 sets thrash.
CONTENDED_BATCHES = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.lists(
            st.tuples(st.integers(0, 23), st.integers(0, 1),
                      st.integers(1, 2)),
            min_size=1,
            max_size=40,
        ).map(lambda runs: [tag * 16 + si for tag, si, reps in runs
                            for _ in range(reps)]),
    ),
    min_size=1,
    max_size=24,
)


class TestLruReuseBound:
    """Under LRU, eviction needs ``assoc`` distinct intervening lines."""

    @settings(max_examples=60, deadline=None)
    @given(batches=CONTENDED_BATCHES)
    def test_two_core_interleavings_on_both_walks(self, batches):
        with tier_env():
            prod, ref = hierarchy_pair(tiny_machine())
        assert prod.bulk_kernel_ok(0)
        assert not ref.bulk_kernel_ok(0)
        assert check_lru_reuse_bound(prod, batches) == \
            check_lru_reuse_bound(ref, batches)

    def test_bound_rejects_fifo(self):
        # The check has teeth: line 0 is re-referenced at the L3 (a hit
        # once seven other lines pushed it out of the private levels),
        # and one more fill then evicts it under FIFO, which ignores
        # the hit, but not under LRU.
        lines = [tag * 16 for tag in range(8)]
        batches = [(0, lines), (0, [0]), (1, [8 * 16]), (0, [0])]
        with tier_env():
            for h in hierarchy_pair(tiny_machine()):
                assert check_lru_reuse_bound(h, batches) == 0
            fifo = tiny_machine(replacement="fifo")
            with pytest.raises(AssertionError, match="left its set"):
                check_lru_reuse_bound(hierarchy_pair(fifo)[0], batches)

    def test_bound_is_tight_on_a_cyclic_scan(self):
        # assoc + 1 lines cycling through one set, alternating cores:
        # every reference after the first lap misses with exactly
        # assoc distinct lines in between — the bound is attained.
        assoc = tiny_machine().l3.associativity
        lines = [tag * 16 for tag in range(assoc + 1)]
        batches = [(lap % 2, lines) for lap in range(4)]
        with tier_env():
            for h in hierarchy_pair(tiny_machine()):
                assert check_lru_reuse_bound(h, batches) == \
                    3 * len(lines)
