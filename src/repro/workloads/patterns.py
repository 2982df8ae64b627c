"""Access-pattern generators.

Each pattern is a (spec, runtime) pair: the frozen ``*Spec`` dataclass
validates parameters and states the footprint; ``instantiate`` builds a
stateful generator whose :meth:`next_address` is the simulator's hottest
call.  Random patterns therefore pre-draw numpy batches and serve them
as slices of an int64 array.

The patterns cover the behaviours the SPEC models need:

* :class:`SequentialStreamSpec` — cyclic streaming with per-line spatial
  locality (lbm, libquantum, milc, sphinx3);
* :class:`UniformRandomSpec` — uniform references over a working set;
* :class:`PointerChaseSpec` — a random-permutation cycle, the classic
  latency-bound dependent-load chain (mcf, omnetpp, xalancbmk);
* :class:`ZipfSpec` — skewed reuse (perlbench, gcc, gobmk);
* :class:`HotColdSpec` — a small hot structure plus a cold heap;
* :class:`StridedScanSpec` — strided sweeps (row-major numeric codes);
* :class:`MixtureSpec` — a probabilistic blend of the above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from .base import AccessPattern, PatternSpec

_BATCH = 4096
_EMPTY = np.empty(0, dtype=np.int64)


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise WorkloadError(f"{name} must be positive, got {value}")


class _BufferedPattern(AccessPattern):
    """Base for patterns that serve addresses from pre-drawn batches.

    ``_refill`` draws the next int64 batch (at least :data:`_BATCH`
    addresses) and is the pattern's only use of its generator after
    construction, so the generator is touched exactly when a draw
    finds the buffer empty.  :class:`_Mixture` relies on that to
    replay the scalar generator order in bulk.
    """

    def __init__(self) -> None:
        self._buffer = _EMPTY
        self._index = 0

    def _refill(self) -> np.ndarray:
        raise NotImplementedError

    def next_address(self) -> int:
        i = self._index
        buf = self._buffer
        if i >= buf.shape[0]:
            buf = self._buffer = self._refill()
            i = 0
        self._index = i + 1
        return buf.item(i)

    def next_addresses(self, n: int) -> list[int]:
        return self.next_addresses_array(n).tolist()

    def next_addresses_array(self, n: int) -> np.ndarray:
        # Batches are never written after _refill, so a batch that
        # fits is served as a view.
        i = self._index
        buf = self._buffer
        end = i + n
        if end <= buf.shape[0]:
            self._index = end
            return buf[i:end]
        pieces = [buf[i:]]
        n = end - buf.shape[0]
        while True:
            buf = self._buffer = self._refill()
            if buf.shape[0] >= n:
                self._index = n
                pieces.append(buf[:n])
                return np.concatenate(pieces)
            pieces.append(buf)
            n -= buf.shape[0]


# -- sequential streaming ----------------------------------------------


@dataclass(frozen=True)
class SequentialStreamSpec(PatternSpec):
    """Cyclic sequential walk over ``lines`` lines.

    ``line_repeats`` consecutive accesses hit the same line before
    advancing, modelling spatial locality within a 64-byte line (a
    double-precision stream touches a line 8 times).
    """

    lines: int
    line_repeats: int = 4

    def __post_init__(self) -> None:
        _require_positive("lines", self.lines)
        _require_positive("line_repeats", self.line_repeats)

    def footprint_lines(self) -> int:
        return self.lines

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _SequentialStream(self.lines, self.line_repeats, base)


class _SequentialStream(AccessPattern):
    __slots__ = ("_lines", "_repeats", "_base", "_line", "_count")

    def __init__(self, lines: int, repeats: int, base: int):
        self._lines = lines
        self._repeats = repeats
        self._base = base
        self._line = 0
        self._count = 0

    def next_address(self) -> int:
        addr = self._base + self._line
        self._count += 1
        if self._count >= self._repeats:
            self._count = 0
            self._line += 1
            if self._line >= self._lines:
                self._line = 0
        return addr

    def next_addresses(self, n: int) -> list[int]:
        # The stream is periodic with period lines*repeats; index the
        # next n ticks of that cycle in one vectorised step.  The
        # single ``tolist`` conversion is the only materialisation —
        # the batch is handed to the bulk kernel wholesale, so no
        # intermediate Python list is ever built.
        repeats = self._repeats
        period = self._lines * repeats
        start = self._line * repeats + self._count
        ticks = (start + np.arange(n, dtype=np.int64)) % period
        end = (start + n) % period
        self._line = end // repeats
        self._count = end % repeats
        return (ticks // repeats + self._base).tolist()

    def next_addresses_array(self, n: int) -> np.ndarray:
        # Same periodic indexing as next_addresses, minus the tolist:
        # the ndarray goes straight into the vector kernel.
        repeats = self._repeats
        period = self._lines * repeats
        start = self._line * repeats + self._count
        ticks = (start + np.arange(n, dtype=np.int64)) % period
        end = (start + n) % period
        self._line = end // repeats
        self._count = end % repeats
        return ticks // repeats + self._base

    def footprint_lines(self) -> int:
        return self._lines


# -- uniform random ----------------------------------------------------


@dataclass(frozen=True)
class UniformRandomSpec(PatternSpec):
    """Uniformly random references over ``lines`` lines."""

    lines: int
    line_repeats: int = 1

    def __post_init__(self) -> None:
        _require_positive("lines", self.lines)
        _require_positive("line_repeats", self.line_repeats)

    def footprint_lines(self) -> int:
        return self.lines

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _UniformRandom(rng, self.lines, self.line_repeats, base)


class _UniformRandom(_BufferedPattern):
    def __init__(
        self, rng: np.random.Generator, lines: int, repeats: int, base: int
    ):
        super().__init__()
        self._rng = rng
        self._lines = lines
        self._repeats = repeats
        self._base = base

    def _refill(self) -> np.ndarray:
        draws = self._rng.integers(
            0, self._lines, size=_BATCH, dtype=np.int64
        )
        if self._repeats > 1:
            draws = np.repeat(draws, self._repeats)
        return draws + self._base

    def footprint_lines(self) -> int:
        return self._lines


# -- pointer chasing ---------------------------------------------------


@dataclass(frozen=True)
class PointerChaseSpec(PatternSpec):
    """A dependent-load chain over a random permutation of ``lines``.

    This is the canonical latency-bound pattern: each address is only
    known once the previous load returns, so phases using it should run
    with ``overlap`` near 1.
    """

    lines: int

    def __post_init__(self) -> None:
        _require_positive("lines", self.lines)

    def footprint_lines(self) -> int:
        return self.lines

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _PointerChase(rng, self.lines, base)


class _PointerChase(AccessPattern):
    __slots__ = ("_cycle", "_cycle_arr", "_pos", "_n")

    def __init__(self, rng: np.random.Generator, lines: int, base: int):
        # One cycle covering all lines.  The successor chain built by
        # shuffled successor assignment (succ[order[i]] = order[i+1],
        # wrapping) visits the lines in exactly the shuffled ordering,
        # so the emitted address sequence IS that ordering repeated —
        # materialise it once and serve slices, instead of walking a
        # successor table one dependent load at a time.  The simulated
        # semantics are untouched (same addresses, and the *simulated*
        # chain is still dependent — that lives in the phase's
        # ``overlap``, not in how the generator produces the stream).
        order = rng.permutation(lines)
        arr = order.astype(np.int64) + base
        self._cycle = arr.tolist()
        self._cycle_arr = arr
        self._pos = 0
        self._n = lines

    def next_address(self) -> int:
        pos = self._pos
        self._pos = pos + 1 if pos + 1 < self._n else 0
        return self._cycle[pos]

    def next_addresses(self, n: int) -> list[int]:
        cycle = self._cycle
        ln = self._n
        pos = self._pos
        end = pos + n
        if end < ln:
            self._pos = end
            return cycle[pos:end]
        out = cycle[pos:]
        end -= ln
        while end >= ln:
            out += cycle
            end -= ln
        out += cycle[:end]
        self._pos = end
        return out

    def next_addresses_array(self, n: int) -> np.ndarray:
        arr = self._cycle_arr
        ln = self._n
        pos = self._pos
        end = pos + n
        if end < ln:
            self._pos = end
            # Copy: callers may hold the batch across later draws.
            return arr[pos:end].copy()
        out = np.empty(n, dtype=np.int64)
        k = ln - pos
        out[:k] = arr[pos:]
        end -= ln
        while end >= ln:
            out[k:k + ln] = arr
            k += ln
            end -= ln
        out[k:] = arr[:end]
        self._pos = end
        return out

    def footprint_lines(self) -> int:
        return self._n


# -- zipf --------------------------------------------------------------


@dataclass(frozen=True)
class ZipfSpec(PatternSpec):
    """Zipf-distributed references: rank ``i`` has weight 1/(i+1)^alpha.

    Hot ranks are scattered over the address range (random permutation)
    so popularity is decoupled from set index.
    """

    lines: int
    alpha: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("lines", self.lines)
        _require_positive("alpha", self.alpha)

    def footprint_lines(self) -> int:
        return self.lines

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _Zipf(rng, self.lines, self.alpha, base)


class _Zipf(_BufferedPattern):
    def __init__(
        self, rng: np.random.Generator, lines: int, alpha: float, base: int
    ):
        super().__init__()
        self._rng = rng
        self._base = base
        self._lines = lines
        weights = 1.0 / np.arange(1, lines + 1, dtype=np.float64) ** alpha
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._placement = rng.permutation(lines)

    def _refill(self) -> np.ndarray:
        u = self._rng.random(_BATCH)
        ranks = np.searchsorted(self._cdf, u)
        return self._placement[ranks] + self._base

    def footprint_lines(self) -> int:
        return self._lines


# -- hot/cold ----------------------------------------------------------


@dataclass(frozen=True)
class HotColdSpec(PatternSpec):
    """A hot region of ``hot_lines`` hit with ``hot_fraction`` probability,
    else a uniformly random cold region of ``cold_lines``."""

    hot_lines: int
    cold_lines: int
    hot_fraction: float = 0.9

    def __post_init__(self) -> None:
        _require_positive("hot_lines", self.hot_lines)
        _require_positive("cold_lines", self.cold_lines)
        if not 0.0 < self.hot_fraction < 1.0:
            raise WorkloadError(
                f"hot_fraction must be in (0, 1): {self.hot_fraction}"
            )

    def footprint_lines(self) -> int:
        return self.hot_lines + self.cold_lines

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _HotCold(
            rng, self.hot_lines, self.cold_lines, self.hot_fraction, base
        )


class _HotCold(_BufferedPattern):
    def __init__(
        self,
        rng: np.random.Generator,
        hot: int,
        cold: int,
        hot_fraction: float,
        base: int,
    ):
        super().__init__()
        self._rng = rng
        self._hot = hot
        self._cold = cold
        self._fraction = hot_fraction
        self._base = base

    def _refill(self) -> np.ndarray:
        rng = self._rng
        is_hot = rng.random(_BATCH) < self._fraction
        hot_draws = rng.integers(0, self._hot, size=_BATCH, dtype=np.int64)
        cold_draws = self._hot + rng.integers(
            0, self._cold, size=_BATCH, dtype=np.int64
        )
        draws = np.where(is_hot, hot_draws, cold_draws)
        return draws + self._base

    def footprint_lines(self) -> int:
        return self._hot + self._cold


# -- strided scan ------------------------------------------------------


@dataclass(frozen=True)
class StridedScanSpec(PatternSpec):
    """Cyclic walk touching every ``stride``-th line of a region.

    With a power-of-two stride this concentrates pressure on a subset of
    cache sets, modelling bad-stride numeric codes.
    """

    lines: int
    stride: int = 2
    line_repeats: int = 1

    def __post_init__(self) -> None:
        _require_positive("lines", self.lines)
        _require_positive("stride", self.stride)
        _require_positive("line_repeats", self.line_repeats)

    def footprint_lines(self) -> int:
        return (self.lines + self.stride - 1) // self.stride

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _StridedScan(self.lines, self.stride, self.line_repeats, base)


class _StridedScan(AccessPattern):
    __slots__ = ("_lines", "_stride", "_repeats", "_base", "_pos", "_count")

    def __init__(self, lines: int, stride: int, repeats: int, base: int):
        self._lines = lines
        self._stride = stride
        self._repeats = repeats
        self._base = base
        self._pos = 0
        self._count = 0

    def next_address(self) -> int:
        addr = self._base + self._pos
        self._count += 1
        if self._count >= self._repeats:
            self._count = 0
            self._pos += self._stride
            if self._pos >= self._lines:
                self._pos = 0
        return addr

    def next_addresses(self, n: int) -> list[int]:
        # Positions cycle through ceil(lines/stride) stride multiples;
        # index the next n ticks of that cycle vectorised, as in
        # _SequentialStream.
        repeats = self._repeats
        stride = self._stride
        npos = (self._lines + stride - 1) // stride
        period = npos * repeats
        start = (self._pos // stride) * repeats + self._count
        ticks = (start + np.arange(n, dtype=np.int64)) % period
        end = (start + n) % period
        self._pos = (end // repeats) * stride
        self._count = end % repeats
        return ((ticks // repeats) * stride + self._base).tolist()

    def next_addresses_array(self, n: int) -> np.ndarray:
        repeats = self._repeats
        stride = self._stride
        npos = (self._lines + stride - 1) // stride
        period = npos * repeats
        start = (self._pos // stride) * repeats + self._count
        ticks = (start + np.arange(n, dtype=np.int64)) % period
        end = (start + n) % period
        self._pos = (end // repeats) * stride
        self._count = end % repeats
        return (ticks // repeats) * stride + self._base

    def footprint_lines(self) -> int:
        return (self._lines + self._stride - 1) // self._stride


# -- mixture -----------------------------------------------------------


@dataclass(frozen=True)
class MixtureSpec(PatternSpec):
    """Probabilistic blend of component patterns.

    ``components`` is a tuple of ``(weight, spec)`` pairs; each access is
    drawn from one component with probability proportional to its
    weight.  Components receive disjoint address sub-ranges.
    """

    components: tuple[tuple[float, PatternSpec], ...]

    def __post_init__(self) -> None:
        if len(self.components) < 2:
            raise WorkloadError("a mixture needs at least two components")
        for weight, _spec in self.components:
            _require_positive("mixture weight", weight)

    def footprint_lines(self) -> int:
        return sum(spec.footprint_lines() for _w, spec in self.components)

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        parts: list[AccessPattern] = []
        offset = base
        weights = []
        for weight, spec in self.components:
            parts.append(spec.instantiate(rng, offset))
            offset += spec.footprint_lines()
            weights.append(weight)
        return _Mixture(rng, parts, weights)


class _Mixture(AccessPattern):
    __slots__ = ("_rng", "_parts", "_probs", "_choices", "_index",
                 "_batched", "_choice_dtype")

    def __init__(
        self,
        rng: np.random.Generator,
        parts: list[AccessPattern],
        weights: list[float],
    ):
        self._rng = rng
        self._parts = parts
        total = sum(weights)
        self._probs = [w / total for w in weights]
        self._choices = _EMPTY
        self._index = 0
        # Narrow choices argsort by radix in the batch path.
        self._choice_dtype = np.min_scalar_type(len(parts))
        # The batch path must know when each component touches the
        # shared generator: a buffered component exactly when it runs
        # dry, the rest never after construction.  Any other component
        # (a nested mixture) keeps the per-address loop.
        self._batched = all(
            isinstance(p, (_BufferedPattern, *_RNG_FREE)) for p in parts
        )

    def _draw_choices(self) -> np.ndarray:
        return self._rng.choice(
            len(self._parts), size=_BATCH, p=self._probs
        ).astype(self._choice_dtype)

    def next_address(self) -> int:
        i = self._index
        choices = self._choices
        if i >= choices.shape[0]:
            choices = self._choices = self._draw_choices()
            i = 0
        self._index = i + 1
        return self._parts[choices[i]].next_address()

    def next_addresses(self, n: int) -> list[int]:
        if not self._batched:
            return super().next_addresses(n)
        return self.next_addresses_array(n).tolist()

    def next_addresses_array(self, n: int) -> np.ndarray:
        if not self._batched:
            return np.asarray(super().next_addresses(n), dtype=np.int64)
        out = np.empty(n, dtype=np.int64)
        pos = 0
        while pos < n:
            # A window runs to the end of the choice buffer or of the
            # request; the choice refill opens it, as in next_address.
            i = self._index
            choices = self._choices
            if i >= choices.shape[0]:
                choices = self._choices = self._draw_choices()
                i = 0
            end = min(choices.shape[0], i + n - pos)
            self._index = end
            self._fill_window(choices[i:end], out[pos:pos + end - i])
            pos += end - i
        return out

    def _fill_window(self, chosen: np.ndarray, out: np.ndarray) -> None:
        """Serve one window of choices into ``out``, generator order kept.

        A component's addresses depend on the generator only through
        its refills, so drawing each component's whole share in one
        call is exact once the calls that refill run in the order of
        the positions where the scalar walk would refill them.  A
        refill holds at least as many addresses as a window, so no
        component refills twice in one.
        """
        parts = self._parts
        counts = np.bincount(chosen, minlength=len(parts)).tolist()
        # Window positions grouped by component, ascending in each.
        order = np.argsort(chosen, kind="stable")
        # (position of the refill, or -1 for none; component)
        calls: list[tuple[int, int]] = []
        start = 0
        for j, count in enumerate(counts):
            if not count:
                continue
            part = parts[j]
            refill_at = -1
            if isinstance(part, _BufferedPattern):
                held = part._buffer.shape[0] - part._index
                if count > held:
                    refill_at = int(order[start + held])
            calls.append((refill_at, j))
            start += count
        calls.sort()
        drawn: list[np.ndarray] = [_EMPTY] * len(parts)
        for _, j in calls:
            drawn[j] = parts[j].next_addresses_array(counts[j])
        out[order] = np.concatenate(drawn)

    def footprint_lines(self) -> int:
        return sum(p.footprint_lines() for p in self._parts)


# -- explicit trace replay ----------------------------------------------


@dataclass(frozen=True)
class TraceSpec(PatternSpec):
    """Replay an explicit line-address trace (cyclically).

    The bridge for users with real traces: any iterable of line numbers
    (e.g. from a binary-instrumentation tool, de-duplicated to cache
    lines) becomes a workload the simulator can co-locate and CAER can
    manage.  Addresses are offsets from the workload's base.
    """

    trace: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.trace:
            raise WorkloadError("an empty trace cannot be replayed")
        if any(a < 0 for a in self.trace):
            raise WorkloadError("trace addresses must be non-negative")

    def footprint_lines(self) -> int:
        return max(self.trace) + 1

    def instantiate(
        self, rng: np.random.Generator, base: int
    ) -> AccessPattern:
        return _TraceReplay(self.trace, base)


class _TraceReplay(AccessPattern):
    __slots__ = ("_addrs", "_index", "_footprint")

    def __init__(self, trace: tuple[int, ...], base: int):
        # Rebase once so replay serves precomputed absolute addresses.
        self._addrs = [base + a for a in trace]
        self._index = 0
        self._footprint = max(trace) + 1

    def next_address(self) -> int:
        addr = self._addrs[self._index]
        self._index += 1
        if self._index >= len(self._addrs):
            self._index = 0
        return addr

    def next_addresses(self, n: int) -> list[int]:
        addrs = self._addrs
        length = len(addrs)
        i = self._index
        out: list[int] = []
        while n > 0:
            take = min(n, length - i)
            out.extend(addrs[i:i + take])
            i += take
            if i >= length:
                i = 0
            n -= take
        self._index = i
        return out

    def footprint_lines(self) -> int:
        return self._footprint


#: Patterns that never touch the generator after construction.
_RNG_FREE = (_SequentialStream, _PointerChase, _StridedScan, _TraceReplay)
