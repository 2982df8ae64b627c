"""The production path's numpy vector kernel.

The production path's scalar batched walk
(:meth:`repro.arch.hierarchy.CacheHierarchy.access_many`) batches whole
address chunks through inlined flat-array LRU walks, pricing each
access as it goes, but still pays interpreted Python per address.

This module removes that cost for the batches it can prove uniform, by
splitting the walk in two:

:func:`classify`
    proves, without touching any state, that the batch belongs to the
    *uniform private-miss* class: a leading run of the L1 MRU line
    (the batch boundary may split a repeat run of the previous batch)
    is a guaranteed hit; consecutive duplicates collapse to one walk
    plus guaranteed L1 hits (exactly the scalar kernel's run
    handling); and the collapsed stream must be all-distinct and
    absent from this core's L1 and L2.  Every collapsed access then
    misses both private levels, and its serving level — 3 if the line
    sits in the shared L3, 4 if not — follows from a vectorized tag
    probe.  The per-address cycle costs are therefore known *before*
    anything is updated, which lets the core take large batches, find
    the exact cycle-budget cutoff, and push the unexecuted suffix back
    untouched.  Returns ``None`` (revisits, private-resident lines);
    the caller then runs the batch through ``access_many``.

:func:`commit`
    applies the updates for the executed prefix.  The private L1/L2
    fills are identical for level-3 and level-4 accesses (both missed
    there), so each level takes one list-backed fill verb:
    :func:`_fill_replace_py` when a consecutive run replaces the whole
    level, :func:`_fill_dense` when the stream dwarfs it, and
    :func:`_fill_scalar` otherwise.  The shared L3 takes two bulk
    verbs over its ``array('q')``-backed tag arrays.  The misses are
    one order-preserving fill: per set, the first ``max(0, fill + k -
    assoc)`` insertions evict pre-batch lines from the LRU head of the
    circular window, which the closed-form slot formula ``base + (head
    + fill + occurrence) % assoc`` scatters in one fancy-indexing pass
    (:func:`_plan_fill_g`; a *consecutive* all-miss run, the streaming
    steady state, skips even the argsort-based set grouping in
    :func:`_plan_l3_consec`).  The hits move their lines to MRU in one
    vectorized rotation (:func:`_rotate_hits`).  One decline rule keeps
    the hit predictions exact: a resident line can only be evicted if
    other lines enter its set, so a predicted hit whose set takes any
    other access in the executed prefix declines the batch.  Commit
    also declines when an L3 set receives more lines than it has ways
    (every L3 victim must be a pre-batch line with an exact owner
    record) and when a victim lives in this core's own L1/L2 (the L3
    is inclusive).  On a decline ``commit`` returns ``False`` with no
    state mutated and the caller re-routes the untouched batch through
    ``access_many``.  The L3 owner-bitmask column is gathered and
    scattered alongside the tag updates; occupancy, stolen-line and
    counter/stat deltas are flushed once per batch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["classify", "commit"]

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Shared 0..n-1 scratch, grown on demand (batches are a few thousand).
_AR_CACHE = np.arange(8192, dtype=np.int64)


def _ar(n: int) -> np.ndarray:
    global _AR_CACHE
    if n > _AR_CACHE.shape[0]:
        _AR_CACHE = np.arange(max(n, 2 * _AR_CACHE.shape[0]),
                              dtype=np.int64)
    return _AR_CACHE[:n]


class BatchPlan:
    """The no-mutation classification of one address batch."""

    __slots__ = ("addrs", "levels", "keep_raw", "c", "hit", "consec",
                 "c_list")

    def __init__(self, addrs, levels, keep_raw, c, hit, consec,
                 c_list=None):
        self.addrs = addrs
        #: per-address serving level (1, 3 or 4).  Exact for any
        #: executed prefix :func:`commit` accepts: miss predictions
        #: are unconditional (distinct + absent lines stay absent),
        #: and commit declines any hit whose set takes another access.
        self.levels = levels
        #: raw batch positions of the collapsed (walking) accesses
        self.keep_raw = keep_raw
        #: the collapsed stream itself (distinct, L1/L2-absent)
        self.c = c
        #: per-collapsed-access predicted L3 residency; ``None`` when
        #: the whole stream misses the L3 (the streaming fast path)
        self.hit = hit
        #: the collapsed stream is consecutive ascending (c[i]=c[0]+i)
        self.consec = consec
        #: ``c`` as a Python list when classification already paid the
        #: conversion (a membership scan); lets commit skip its own
        self.c_list = c_list


def classify(hierarchy, core: int, addrs: np.ndarray):
    """Prove the batch uniform and return its :class:`BatchPlan`.

    Pure read.  Returns ``None`` when the batch is not provably in the
    uniform private-miss class, in which case the caller must run it
    through the scalar kernel.
    """
    n = addrs.shape[0]
    l1 = hierarchy.l1[core]
    levels = np.ones(n, dtype=np.int64)
    lead = 0
    a0 = int(addrs[0])
    if l1._mru[a0 & l1._set_mask] == a0:
        # The previous batch ended mid-repeat-run: its line is this
        # core's L1 MRU, so the leading repeats are guaranteed hits.
        neq = np.nonzero(addrs != a0)[0]
        lead = int(neq[0]) if neq.size else n
        if lead == n:
            return BatchPlan(addrs, levels, _EMPTY_I64, _EMPTY_I64,
                             None, False)
    work = addrs[lead:]
    keep = np.empty(work.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(work[1:], work[:-1], out=keep[1:])
    keep_raw = lead + np.nonzero(keep)[0]
    c = addrs[keep_raw]
    m = c.shape[0]
    consec = False
    asc = m == 1
    if m > 1:
        # Revisits inside the batch would hit lines the batch itself
        # filled; the sequential order then matters and the scalar
        # kernel must run.  Ascending streams settle this in one pass
        # (and an ascending distinct run is consecutive exactly when
        # it spans m lines).
        if (c[1:] > c[:-1]).all():
            asc = True
            consec = int(c[-1]) - int(c[0]) == m - 1
        else:
            s = np.sort(c)
            if (s[1:] == s[:-1]).any():
                return None
    lo = int(c[0]) if asc else int(c.min())
    c_list = None
    l2 = hierarchy.l2[core]
    # A monotone stream moves past every line it ever filled, so one
    # comparison against the cache's fill bound proves disjointness
    # without hashing the batch (see SetAssociativeCache._max_tag).
    if l1._max_tag >= lo:
        c_list = c.tolist()
        if not l1._resident.isdisjoint(c_list):
            return None
    if l2._max_tag >= lo:
        if c_list is None:
            c_list = c.tolist()
        if not l2._resident.isdisjoint(c_list):
            return None
    l3 = hierarchy.l3
    l3_absent = l3._max_tag < lo
    if not l3_absent:
        if c_list is None:
            c_list = c.tolist()
        l3_absent = l3._resident.isdisjoint(c_list)
    if l3_absent:
        levels[keep_raw] = 4
        return BatchPlan(addrs, levels, keep_raw, c, None, consec,
                         c_list)
    # Some lines sit in the shared L3: predict hit levels with a
    # masked tag probe (slots past a partial set's fill are stale).
    a = l3._assoc
    si = c & l3._set_mask
    tags_np, fill_np, _heads_np = l3._vector_views()
    rows = tags_np.reshape(-1, a)[si]
    ways = _ar(a)
    hit = ((rows == c[:, None])
           & (ways[None, :] < fill_np[si][:, None])).any(axis=1)
    levels[keep_raw] = np.where(hit, 3, 4)
    return BatchPlan(addrs, levels, keep_raw, c, hit, False, c_list)


def _plan_fill_g(cache, c: np.ndarray, views):
    """Plan the L3's bulk fill of miss stream ``c`` (no mutation).

    The general, argsort-grouped form.  Returns ``None`` when a set
    receives more lines than it has ways: some victims would then be
    batch lines, whose mid-batch eviction the bulk update cannot
    replay.  Otherwise every insertion survives the batch, and the plan
    is ``(slots, victims, vslots, evictions, cs, u, h, total, last)``:
    each insertion's physical slot, the pre-batch lines evicted, the
    slots those victims occupied (where the owner-bitmask column holds
    their masks), the eviction count, the accesses stably sorted by set
    (so each set's insertions keep batch order), and per touched set
    ``u`` its pre-batch head, its fill plus insertions, and its last
    (MRU) insertion.
    """
    tags_np, fill_np, heads_np = views
    a = cache._assoc
    si = c & cache._set_mask
    order = si.argsort(kind="stable")
    ss = si[order]
    cs = c[order]
    nn = ss.shape[0]
    first = np.empty(nn, dtype=bool)
    first[0] = True
    np.not_equal(ss[1:], ss[:-1], out=first[1:])
    starts = np.nonzero(first)[0]
    g = starts.shape[0]
    counts = np.empty(g, dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:g - 1])
    counts[g - 1] = nn - starts[g - 1]
    if int(counts[counts.argmax()]) > a:
        return None
    u = ss[starts]
    # Occurrence rank of each insertion within its set's sub-stream.
    occ = _ar(nn) - np.repeat(starts, counts)
    f = fill_np[u]
    h = heads_np[u]
    occf = np.repeat(f, counts) + occ
    # Insertion ``occ`` of a set lands at the circular-window slot the
    # sequential evolution would use: the window advances one slot per
    # evict-and-insert, so slot = base + (head + fill + occ) % assoc.
    slots = ss * a + (np.repeat(h, counts) + occf) % a
    # With at most ``assoc`` insertions per set, every insertion past
    # the ways overwrites a pre-batch line: evictions == victims.
    vslots = slots[occf >= a]
    victims = tags_np[vslots]
    return (slots, victims, vslots, int(vslots.shape[0]), cs, u, h,
            f + counts, cs[starts + counts - 1])


def _apply_fill_g(cache, plan, views) -> None:
    """Commit a :func:`_plan_fill_g` plan's tag window updates."""
    slots, _victims, _vslots, _ev, cs, u, h, total, last = plan
    tags_np, fill_np, heads_np = views
    a = cache._assoc
    tags_np[slots] = cs
    # A set that wrapped keeps rotating (head advances once per
    # eviction); one that stayed partial keeps the head-0 invariant.
    heads_np[u] = np.where(total >= a, (h + total) % a, 0)
    fill_np[u] = np.minimum(a, total)
    mru = cache._mru
    for s, addr in zip(u.tolist(), last.tolist()):
        mru[s] = addr


def _fill_replace_py(cache, c_list: list, m: int) -> int:
    """Full-replacement fill of a private level by a consecutive run.

    Requires ``m >= num_sets * assoc``: every set then receives at
    least ``assoc`` insertions, so every pre-batch line is evicted and
    the survivors are exactly the last ``num_sets * assoc`` elements
    (any window of that many consecutive elements holds exactly
    ``assoc`` per set).  Only the surviving tail is written — ``m``
    can be arbitrarily large, the work is bounded by the capacity.
    Scalar on purpose: the private levels are list-backed and small,
    so item writes beat numpy's per-ufunc dispatch overhead.
    """
    a = cache._assoc
    nsets = cache._num_sets
    mask = cache._set_mask
    cap = nsets * a
    tags = cache._tags
    fills = cache._fill_counts
    heads = cache._heads
    mru = cache._mru
    c0 = c_list[0]
    evictions = sum(fills) + m - cap
    tail = c_list[m - cap:]
    i = m - cap
    for addr in tail:
        s = addr & mask
        tags[s * a + (heads[s] + fills[s] + i // nsets) % a] = addr
        i += 1
    kbase = m // nsets
    rem = m - kbase * nsets
    for s in range(nsets):
        k = kbase + 1 if (s - c0) % nsets < rem else kbase
        total = fills[s] + k
        heads[s] = (heads[s] + total) % a
        fills[s] = a
        mru[s] = c_list[(s - c0) % nsets + (k - 1) * nsets]
    resident = cache._resident
    resident.clear()
    resident.update(tail)
    return evictions


def _fill_scalar(cache, miss_list: list) -> int:
    """Fill a private level with a distinct all-miss stream, scalar.

    The general private-level fill verb: classify proved every element
    absent, so this is access_many's inlined fill loop without the
    probes.  Bounded by the batch length, which for the non-consecutive
    cases that reach it is at most one budget's worth of accesses —
    small enough that a Python loop over list storage beats the numpy
    plan/apply machinery and its dispatch overhead.  Returns the
    eviction delta.
    """
    a = cache._assoc
    mask = cache._set_mask
    tags = cache._tags
    fills = cache._fill_counts
    heads = cache._heads
    mru = cache._mru
    res_add = cache._resident.add
    res_discard = cache._resident.discard
    evictions = 0
    for addr in miss_list:
        si = addr & mask
        fill = fills[si]
        if fill >= a:
            head = heads[si]
            slot = si * a + head
            res_discard(tags[slot])
            tags[slot] = addr
            heads[si] = head + 1 if head + 1 < a else 0
            evictions += 1
        else:
            tags[si * a + fill] = addr
            fills[si] = fill + 1
        mru[si] = addr
        res_add(addr)
    return evictions


def _fill_dense(cache, c: np.ndarray, miss_list: list, m: int) -> int:
    """Fill a private level from a miss stream much larger than it.

    When ``m`` is a multiple of ``nsets * assoc``, almost every
    insertion of the forward walk is itself evicted by a later one, so
    :func:`_fill_scalar` spends most of its time writing lines that do
    not survive the batch.  This verb derives the final window geometry
    per set from the insertion counts alone (one ``bincount``), then
    walks the stream *backward*, writing only the surviving insertions
    — at most ``assoc`` per set — and rebuilds the resident set from
    the finished windows.  Tags, heads, fills, MRU, resident set and
    the returned eviction delta land bit-identical to the forward
    walk's.
    """
    a = cache._assoc
    nsets = cache._num_sets
    mask = cache._set_mask
    tags = cache._tags
    fills = cache._fill_counts
    heads = cache._heads
    mru = cache._mru
    counts = np.bincount(c & mask, minlength=nsets).tolist()
    evictions = 0
    # Per-set geometry: how many insertions survive (``want``), the
    # slot-formula origin ``offs = head + fill`` frozen before the
    # update, and the finished head/fill values.
    offs = [0] * nsets
    want = [0] * nsets
    remaining = 0
    for s in range(nsets):
        k = counts[s]
        if k == 0:
            continue
        fill = fills[s]
        total = fill + k
        offs[s] = heads[s] + fill
        w = k if k < a else a
        want[s] = w
        remaining += w
        if total >= a:
            evictions += total - a
            heads[s] = (heads[s] + total) % a
            fills[s] = a
        else:
            # Partial sets keep head == 0, so the window stays a
            # contiguous prefix of the row.
            fills[s] = total
    # The last ``want[s]`` insertions into each set are exactly the
    # surviving ones, and the first of them met walking backward is
    # the set's MRU line.  Insertion ``occ`` (its occurrence index
    # within the set's stream) lands at ``(offs + occ) % assoc`` —
    # the same slot the forward walk would have left it in.
    seen = [0] * nsets
    for addr in reversed(miss_list):
        s = addr & mask
        got = seen[s]
        if got < want[s]:
            occ = counts[s] - 1 - got
            tags[s * a + (offs[s] + occ) % a] = addr
            if got == 0:
                mru[s] = addr
            seen[s] = got + 1
            remaining -= 1
            if remaining == 0:
                break
    resident = cache._resident
    resident.clear()
    for s in range(nsets):
        base = s * a
        resident.update(tags[base:base + fills[s]])
    return evictions


def _plan_l3_consec(cache, c: np.ndarray, views):
    """Consecutive-run twin of :func:`_plan_fill_g` for the shared L3.

    Only valid when ``m >= num_sets``: element ``i`` of a consecutive
    run is its set's ``i // num_sets``-th insertion, so every per-set
    quantity reduces to positional arithmetic.  Same ``None`` contract
    and same first four fields as :func:`_plan_fill_g`; the rest is
    ``(total, last_i)``, per set its fill plus insertions and the
    position of its last (MRU) insertion in ``c``.
    """
    tags_np, fill_np, heads_np = views
    a = cache._assoc
    nsets = cache._num_sets
    mask = cache._set_mask
    m = c.shape[0]
    if m // nsets + (1 if m % nsets else 0) > a:
        return None
    c0 = int(c[0])
    si = c & mask
    occ = _ar(m) // nsets
    occf = fill_np[si] + occ
    slots = si * a + (heads_np[si] + occf) % a
    vslots = slots[occf >= a]
    victims = tags_np[vslots]
    counts = np.full(nsets, m // nsets, dtype=np.int64)
    rem = m - (m // nsets) * nsets
    if rem:
        counts[(c0 + _ar(rem)) & mask] += 1
    first_i = (_ar(nsets) - c0) % nsets
    last_i = first_i + (counts - 1) * nsets
    return (slots, victims, vslots, int(vslots.shape[0]),
            fill_np + counts, last_i)


def _apply_l3_consec(cache, c, plan, views) -> None:
    """Commit a :func:`_plan_l3_consec` plan's tag window updates."""
    slots, _victims, _vslots, _ev, total, last_i = plan
    tags_np, fill_np, heads_np = views
    a = cache._assoc
    tags_np[slots] = c
    cache._mru[:] = c[last_i].tolist()
    heads_np[:] = np.where(total >= a, (heads_np + total) % a, 0)
    fill_np[:] = np.minimum(a, total)


def _rotate_hits(cache, hit_c: np.ndarray, views, own_col: np.ndarray,
                 own_bit: int) -> int:
    """Move each hit line of ``hit_c`` to its set's MRU position.

    The sets are distinct (commit's decline rule), so one vectorized
    pass does every move: gather each set's window in LRU order,
    rotate everything at or after the hit line left by one, put the
    line at the logical tail, and scatter back.  Slots past a partial
    window keep their (stale) contents.  The owner-bitmask column
    ``own_col`` rolls in lockstep and each hit line gains ``own_bit``;
    returns how many lines gained it.
    """
    tags_np, fill_np, heads_np = views
    a = cache._assoc
    sets = hit_c & cache._set_mask
    k = sets.shape[0]
    h = heads_np[sets]
    length = fill_np[sets]
    ways = _ar(a)
    phys = sets[:, None] * a + (h[:, None] + ways[None, :]) % a
    logical = tags_np[phys]
    valid = ways[None, :] < length[:, None]
    p = ((logical == hit_c[:, None]) & valid).argmax(axis=1)
    rolled = np.empty_like(logical)
    rolled[:, :-1] = logical[:, 1:]
    rolled[:, -1] = logical[:, -1]
    roll_mask = (ways[None, :] >= p[:, None]) & valid
    out = np.where(roll_mask, rolled, logical)
    rows = _ar(k)
    out[rows, length - 1] = hit_c
    tags_np[phys.ravel()] = out.ravel()
    ologic = own_col[phys]
    ohit = ologic[rows, p]
    orolled = np.empty_like(ologic)
    orolled[:, :-1] = ologic[:, 1:]
    orolled[:, -1] = ologic[:, -1]
    oout = np.where(roll_mask, orolled, ologic)
    oout[rows, length - 1] = ohit | own_bit
    own_col[phys.ravel()] = oout.ravel()
    mru = cache._mru
    for s, addr in zip(sets.tolist(), hit_c.tolist()):
        mru[s] = addr
    return int(np.count_nonzero((ohit & own_bit) == 0))


def commit(hierarchy, core: int, plan: BatchPlan, n_exec: int) -> bool:
    """Apply the first ``n_exec`` accesses of a classified batch.

    Returns ``False`` — with **no state mutated** — when the bulk
    update cannot replay the sequential walk (an overloaded L3 set, a
    hit sharing its set with another access, or a back-invalidation
    into this core's own L1/L2); the caller must then re-route the
    whole untouched batch through ``access_many``.  On ``True``, every
    counter, stat, tag array, owner record, and occupancy figure is
    bit-identical to the scalar walk over that same prefix.
    """
    l1 = hierarchy.l1[core]
    counters_all = hierarchy.counters
    # Collapsed accesses whose raw position executed (keep_raw is
    # ascending, so the executable ones are a prefix).
    m = int(np.searchsorted(plan.keep_raw, n_exec, side="left"))
    if m == 0:
        # Only stripped MRU repeats executed: pure L1 hits.
        counters_all[core].l1_hits += n_exec
        l1.stats.hits += n_exec
        return True
    c = plan.c[:m]
    miss_c = c
    hit_c = None
    nh3 = 0
    l2 = hierarchy.l2[core]
    l3 = hierarchy.l3
    if plan.hit is not None:
        hit = plan.hit[:m]
        nh3 = int(np.count_nonzero(hit))
        if nh3:
            # A resident line only leaves its set when other lines
            # enter it, so a predicted hit is exact when its set takes
            # no other access in the executed prefix; decline otherwise.
            si3 = c & l3._set_mask
            if not (np.bincount(si3)[si3[hit]] == 1).all():
                return False
            hit_c = c[hit]
            miss_c = c[~hit]
    # Views are created here and die with this frame: a surviving view
    # would keep the array('q') buffers exported and break the scalar
    # verbs' slice assignments (see SetAssociativeCache._vector_views).
    views3 = l3._vector_views()
    # classify only marks all-miss streams consecutive.
    consec = plan.consec
    consec3 = consec and m >= l3._num_sets
    plan3 = None
    victims_list: list[int] = []
    if miss_c.size:
        plan3 = (_plan_l3_consec if consec3 else _plan_fill_g)(
            l3, miss_c, views3)
        if plan3 is None:
            return False
        victims3 = plan3[1]
        victims_list = victims3.tolist()
    if victims_list:
        # The L3 is inclusive (the owner column implies it), so every
        # victim is back-invalidated.  The L3 evicts its stalest lines
        # while the private caches hold the most recent ones, so in the
        # streaming steady state every victim precedes every
        # private-resident line: two min/max comparisons replace the
        # hash scans.
        res1 = l1._resident
        res2 = l2._resident
        vmax = int(victims3.max())
        if ((res1 and vmax >= min(res1))
                or (res2 and vmax >= min(res2))):
            if not (res1.isdisjoint(victims_list)
                    and res2.isdisjoint(victims_list)):
                # Back-invalidating our own private caches mid-batch
                # would change their evolution; fall back.
                return False
    # -- all checks passed: mutate -------------------------------------
    # The one python-list rendering of the executed collapsed stream,
    # shared by the private-level scalar fills and the L3 resident-set
    # update below.
    exec_list = plan.c_list
    if exec_list is None:
        exec_list = c.tolist()
    elif len(exec_list) != m:
        exec_list = exec_list[:m]
    # Private levels are list-backed (see SetAssociativeCache): every
    # executed collapsed access misses them (classify proved the batch
    # disjoint from both resident sets), and their capacities are small
    # enough that scalar fills beat the numpy dispatch overhead.
    cap1 = l1._num_sets * l1._assoc
    if consec and m >= cap1:
        ev1 = _fill_replace_py(l1, exec_list, m)
    elif m >= 2 * cap1:
        ev1 = _fill_dense(l1, c, exec_list, m)
    else:
        ev1 = _fill_scalar(l1, exec_list)
    cap2 = l2._num_sets * l2._assoc
    if consec and m >= cap2:
        ev2 = _fill_replace_py(l2, exec_list, m)
    elif m >= 2 * cap2:
        ev2 = _fill_dense(l2, c, exec_list, m)
    else:
        ev2 = _fill_scalar(l2, exec_list)
    own_bit = 1 << core
    own_col = l3._owner_view()
    ev3 = gained3 = 0
    if plan3 is not None:
        # The victims' owner masks sit in the slots the inserts
        # overwrite; gather before the scatter claims them.  Every
        # insertion survives, so the scatter covers all planned slots.
        vmasks3 = own_col[plan3[2]]
        if consec3:
            _apply_l3_consec(l3, c, plan3, views3)
        else:
            _apply_fill_g(l3, plan3, views3)
        own_col[plan3[0]] = own_bit
        ev3 = plan3[3]
        l3_resident = l3._resident
        l3_resident.difference_update(victims_list)
        l3_resident.update(exec_list if hit_c is None
                           else miss_c.tolist())
    if hit_c is not None:
        gained3 = _rotate_hits(l3, hit_c, views3, own_col, own_bit)
    del views3, own_col
    occupancy = hierarchy._occupancy
    nm3 = m - nh3
    # The scalar walk's linearization: hit sharers first, victim pops
    # second, miss inserts last (hits and misses touch disjoint sets,
    # so no hit line is a victim).  The bit scatters already happened
    # alongside the tag applies; what is left is the occupancy/steal/
    # back-invalidation fan-out.
    occupancy[core] += gained3 + nm3
    if victims_list:
        if not (vmasks3 & ~own_bit).any():
            # Every victim was solely ours: one aggregate occupancy
            # decrement, no steals, and — the check above proved our
            # own L1/L2 clean — no back-invalidations.
            occupancy[core] -= int(np.count_nonzero(vmasks3))
        else:
            l1_caches = hierarchy.l1
            l2_caches = hierarchy.l2
            for victim, mask in zip(victims_list, vmasks3.tolist()):
                owner = 0
                while mask:
                    if mask & 1:
                        occupancy[owner] -= 1
                        if owner != core:
                            counters_all[owner].lines_stolen += 1
                            # The owner's caches are untouched by this
                            # batch, so the scalar invalidations land
                            # on exactly the state the sequential walk
                            # would have seen.
                            invalidated = (l2_caches[owner]
                                           .invalidate(victim))
                            invalidated |= (l1_caches[owner]
                                            .invalidate(victim))
                            if invalidated:
                                counters_all[owner] \
                                    .back_invalidations += 1
                        # owner == core: only the decrement (the
                        # victim is absent from our own L1/L2).
                    mask >>= 1
                    owner += 1
    # -- flush batch-local deltas --------------------------------------
    nh1 = n_exec - m
    counters_core = counters_all[core]
    counters_core.l1_hits += nh1
    counters_core.l1_misses += m
    counters_core.l2_misses += m
    counters_core.l3_hits += nh3
    counters_core.l3_misses += nm3
    stats = l1.stats
    stats.hits += nh1
    stats.misses += m
    stats.fills += m
    stats.evictions += ev1
    stats = l2.stats
    stats.misses += m
    stats.fills += m
    stats.evictions += ev2
    stats = l3.stats
    stats.hits += nh3
    stats.misses += nm3
    stats.fills += nm3
    stats.evictions += ev3
    # Raise the monotone fill bounds (conservatively over the whole
    # executed stream; see SetAssociativeCache._max_tag).
    mx = exec_list[-1] if consec else int(c.max())
    if mx > l1._max_tag:
        l1._max_tag = mx
    if mx > l2._max_tag:
        l2._max_tag = mx
    if mx > l3._max_tag:
        l3._max_tag = mx
    return True
