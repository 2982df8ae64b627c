"""Reuse-distance (LRU stack distance) profiling.

The reuse distance of an access is the number of *distinct* lines
referenced since the previous access to the same line; under
fully-associative LRU, an access hits a cache of ``C`` lines iff its
reuse distance is less than ``C`` (Mattson's stack algorithm).  The
histogram of reuse distances therefore yields the whole miss-rate curve
in one pass.

The implementation is vectorised.  With ``prev[k]`` the index of the
previous access to the line that access ``k`` touches, the window
between them holds ``k - prev[k] - 1`` accesses, of which every
re-access of a line already seen in the window is a duplicate.  Those duplicates are exactly the
accesses ``m < k`` with ``prev[m] > prev[k]``, so

    d(k) = k - prev[k] - 1 - #{m < k : prev[m] > prev[k]}

and the count is an inversion count, taken by a bottom-up merge over
sorted blocks in O(N log^2 N) numpy work.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import WorkloadError

#: Bucket index used for first-time (cold) accesses.
COLD = -1


def _earlier_greater(values: np.ndarray) -> np.ndarray:
    """``out[k] = #{m < k : values[m] > values[k]}`` for int32 values.

    Bottom-up merge: at width ``w`` every right block of a block pair
    counts the greater elements of its (sorted) left block with one
    ``searchsorted`` over all pairs at once, their keys offset apart
    per pair.  Values must lie in ``[-1, len(values))``.
    """
    n = values.shape[0]
    size = 1 << (n - 1).bit_length()
    # Padding sits after every real access, so no count that is read
    # back ever includes it.
    padded = np.full(size, -1, dtype=np.int32)
    padded[:n] = values
    counts = np.zeros(size, dtype=np.int32)
    blocks = padded.copy()  # sorted within blocks of width w
    span = n + 1
    w = 1
    while w < size:
        pairs = size // (2 * w)
        offset = np.arange(pairs, dtype=np.int64)[:, None] * span
        left = blocks.reshape(pairs, 2, w)[:, 0, :] + offset
        right = padded.reshape(pairs, 2, w)[:, 1, :] + offset
        # Index of the first greater element in the flattened left
        # blocks; row j's block ends at (j + 1) * w.
        first = np.searchsorted(left.ravel(), right.ravel(), side="right")
        del left, right, offset
        ends = np.arange(w, size // 2 + 1, w, dtype=np.int64)
        greater = (ends[:, None] - first.reshape(pairs, w)).astype(np.int32)
        del first
        counts.reshape(pairs, 2, w)[:, 1, :] += greater
        del greater
        blocks = np.sort(blocks.reshape(pairs, 2 * w), axis=1,
                         kind="stable").ravel()
        w *= 2
    return counts[:n]


def _reuse_distance_array(lines: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-access reuse distances (int32) and the singleton-line count.

    Both come off one stable sort that groups each line's accesses in
    order: consecutive equal keys give ``prev``, and a line touched
    exactly once is a run of length one.
    """
    n = lines.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int32), 0
    # prev[k]: the previous access to line[k] (-1 for a first touch).
    order = np.argsort(lines, kind="stable").astype(np.int32)
    sorted_lines = lines[order]
    repeat = sorted_lines[1:] == sorted_lines[:-1]
    del sorted_lines
    # starts[i]: position i of the sort opens a run (the end closes
    # the last one); a singleton run opens and closes at once.
    starts = np.ones(n + 1, dtype=bool)
    np.logical_not(repeat, out=starts[1:n])
    singletons = int(np.count_nonzero(starts[:-1] & starts[1:]))
    del starts
    prev = np.full(n, -1, dtype=np.int32)
    prev[order[1:][repeat]] = order[:-1][repeat]
    del order, repeat
    distances = np.arange(n, dtype=np.int32)
    distances -= prev
    distances -= 1
    distances -= _earlier_greater(prev)
    distances[prev < 0] = COLD
    return distances, singletons


def _as_lines(trace: Iterable[int]) -> np.ndarray:
    if isinstance(trace, np.ndarray):
        return trace.astype(np.int64, copy=False)
    return np.fromiter(trace, dtype=np.int64)


def reuse_distances(trace: Iterable[int]) -> list[int]:
    """Per-access reuse distances (:data:`COLD` for first touches)."""
    return _reuse_distance_array(_as_lines(trace))[0].tolist()


def reuse_profile(
    trace: Iterable[int],
) -> tuple[dict[int, int], int, int]:
    """``(histogram, cold, singletons)`` of a trace, from one sort.

    ``histogram[d]`` counts accesses with reuse distance ``d`` and
    ``cold`` counts first touches.  ``singletons`` counts lines touched
    exactly once: such a line's only access misses at every cache size
    *every time the workload reaches it* — for cyclic workloads whose
    period exceeds the profiled window this is steady-state missing,
    not a one-off compulsory miss.  The complement
    (``cold - singletons``) counts genuinely transient first touches
    of lines the workload demonstrably revisits.
    """
    distances, singletons = _reuse_distance_array(_as_lines(trace))
    warm = distances[distances != COLD]
    values, counts = np.unique(warm, return_counts=True)
    histogram = dict(zip(values.tolist(), counts.tolist()))
    return histogram, int(distances.shape[0] - warm.shape[0]), singletons


def reuse_distance_histogram(
    trace: Iterable[int],
) -> tuple[dict[int, int], int]:
    """Histogram of reuse distances plus the cold-miss count.

    Returns ``(histogram, cold)``; see :func:`reuse_profile`.
    """
    histogram, cold, _singletons = reuse_profile(trace)
    return histogram, cold


def sample_trace(pattern: "object", length: int) -> list[int]:
    """Materialise ``length`` accesses from a live pattern.

    ``pattern`` is any :class:`repro.workloads.base.AccessPattern`.
    """
    if length <= 0:
        raise WorkloadError(f"trace length must be positive: {length}")
    return pattern.next_addresses(length)
