"""Reuse-distance profiling, checked against a naive reference."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.stack_distance import (
    COLD,
    reuse_distance_histogram,
    reuse_distances,
    reuse_profile,
)
from repro.errors import WorkloadError


class _Fenwick:
    """Binary indexed tree over ``n`` slots supporting prefix sums."""

    def __init__(self, n: int):
        self._n = n
        self._tree = [0] * (n + 1)

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        while i <= self._n:
            self._tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of slots [0, index]."""
        i = index + 1
        total = 0
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of slots [lo, hi]."""
        if lo > hi:
            return 0
        return self.prefix_sum(hi) - (self.prefix_sum(lo - 1) if lo else 0)


def fenwick_reuse_distances(trace):
    """The classic O(N log N) walk: previous uses in a dict, distinct
    counts from a Fenwick tree over access timestamps."""
    trace = list(trace)
    tree = _Fenwick(len(trace))
    last_use = {}
    distances = []
    for t, addr in enumerate(trace):
        prev = last_use.get(addr)
        if prev is None:
            distances.append(COLD)
        else:
            # Distinct lines touched strictly between prev and t: each
            # line's *latest* use in that window is marked in the tree.
            distances.append(tree.range_sum(prev + 1, t - 1))
            tree.add(prev, -1)
        tree.add(t, 1)
        last_use[addr] = t
    return distances


def singleton_count(trace):
    """Lines touched exactly once, counted in a dict."""
    counts = {}
    for addr in trace:
        counts[addr] = counts.get(addr, 0) + 1
    return sum(1 for c in counts.values() if c == 1)


def naive_reuse_distances(trace):
    """Textbook O(N^2) reference: distinct lines since previous use."""
    out = []
    last = {}
    for t, addr in enumerate(trace):
        if addr not in last:
            out.append(COLD)
        else:
            out.append(len(set(trace[last[addr] + 1:t])))
        last[addr] = t
    return out


class TestKnownTraces:
    def test_all_cold(self):
        assert reuse_distances([1, 2, 3]) == [COLD, COLD, COLD]

    def test_immediate_reuse_is_distance_zero(self):
        assert reuse_distances([1, 1]) == [COLD, 0]

    def test_one_intervening_line(self):
        assert reuse_distances([1, 2, 1]) == [COLD, COLD, 1]

    def test_repeats_do_not_double_count(self):
        # Between the two 1s: lines {2, 3} -> distance 2, not 3.
        assert reuse_distances([1, 2, 2, 3, 1]) == [
            COLD, COLD, 0, COLD, 2,
        ]

    def test_cyclic_scan_distance_is_footprint_minus_one(self):
        trace = [0, 1, 2, 3] * 3
        distances = reuse_distances(trace)
        assert distances[4:] == [3] * 8

    def test_histogram(self):
        histogram, cold = reuse_distance_histogram([1, 2, 1, 2, 1])
        assert cold == 2
        assert histogram == {1: 3}


class TestAgainstReference:
    @given(st.lists(st.integers(0, 12), min_size=0, max_size=150))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_model(self, trace):
        assert reuse_distances(trace) == naive_reuse_distances(trace)


class TestAgainstFenwick:
    """The vectorised profile == the Fenwick walk it replaced."""

    @given(st.lists(st.integers(0, 300), min_size=0, max_size=600))
    @settings(max_examples=80, deadline=None)
    def test_random_traces(self, trace):
        assert reuse_distances(trace) == fenwick_reuse_distances(trace)

    @given(st.lists(st.integers(-(2 ** 40), 2 ** 40), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_wide_addresses(self, trace):
        assert reuse_distances(trace) == fenwick_reuse_distances(trace)

    def test_empty_trace(self):
        assert reuse_distances([]) == fenwick_reuse_distances([]) == []
        assert reuse_distance_histogram([]) == ({}, 0)

    @pytest.mark.parametrize("name", ["429.mcf", "470.lbm", "454.calculix",
                                      "450.soplex", "453.povray"])
    def test_spec_traces(self, name):
        # Victim-shaped traces at every block width the merge visits
        # (a length that is not a power of two exercises the padding).
        import numpy as np

        from repro.analytic.stack_distance import sample_trace
        from repro.workloads import benchmark

        phase = benchmark(name, 2048).phases[0]
        pattern = phase.pattern.instantiate(np.random.default_rng(3), 0)
        trace = sample_trace(pattern, 5_000)
        assert reuse_distances(trace) == fenwick_reuse_distances(trace)


class TestSingletons:
    """The sort-derived singleton count == the dict-count oracle."""

    @given(st.lists(st.integers(0, 300), min_size=0, max_size=600))
    @settings(max_examples=80, deadline=None)
    def test_random_traces(self, trace):
        histogram, cold, singletons = reuse_profile(trace)
        assert singletons == singleton_count(trace)
        assert (histogram, cold) == reuse_distance_histogram(trace)

    @pytest.mark.parametrize("trace", [
        [], [5], [5, 5], [1, 2, 3], [1, 2, 1, 3], [3, 1, 2, 2, 1, 9],
    ])
    def test_edge_traces(self, trace):
        assert reuse_profile(trace)[2] == singleton_count(trace)

    def test_array_input(self):
        import numpy as np

        trace = [7, 3, 7, 1, 9, 9, 4]
        assert reuse_profile(np.array(trace, dtype=np.int64)) == \
            reuse_profile(trace)


class TestSampling:
    def test_sample_trace_length(self):
        import numpy as np

        from repro.analytic.stack_distance import sample_trace
        from repro.workloads.patterns import UniformRandomSpec

        pattern = UniformRandomSpec(lines=16).instantiate(
            np.random.default_rng(0), 0
        )
        assert len(sample_trace(pattern, 100)) == 100

    def test_sample_trace_is_the_pattern_stream(self):
        import numpy as np

        from repro.analytic.stack_distance import sample_trace
        from repro.workloads.patterns import ZipfSpec

        spec = ZipfSpec(lines=64, alpha=1.1)
        one = spec.instantiate(np.random.default_rng(5), 0)
        two = spec.instantiate(np.random.default_rng(5), 0)
        assert sample_trace(one, 300) == [two.next_address()
                                          for _ in range(300)]

    def test_sample_trace_validates_length(self):
        from repro.analytic.stack_distance import sample_trace

        with pytest.raises(WorkloadError):
            sample_trace(None, 0)
