"""The core execution model.

Each core runs one process at a time and is modelled as an in-order
engine whose progress is gated by memory stalls:

* every instruction costs the workload's ``base_cpi`` cycles of pipeline
  time (this folds in L1-hit latency, which real pipelines hide);
* every access that misses L1 additionally stalls the core for the extra
  latency of the level that served it, divided by the workload's
  ``overlap`` factor (memory-level parallelism: streaming codes overlap
  several outstanding misses, pointer chasers cannot).

The model advances one *memory access* at a time — between accesses the
workload retires ``1 / mem_ratio`` instructions — which is what makes a
whole-benchmark simulation tractable in Python while still reproducing
the paper's Figure 3 phenomenon: periods with many LLC misses are
periods with few instructions retired.
"""

from __future__ import annotations

import numpy as np

from ..config import MachineConfig
from .hierarchy import CacheHierarchy
from .memory import MainMemory

#: Upper bound on one address batch drawn from a pattern.
_MAX_BATCH = 4096

#: Shortest batch the vector kernel classifies; a shorter phase tail
#: goes to ``access_many``.
_VECTOR_MIN_BATCH = 8

#: Smallest per-budget access estimate for which the vector kernel's
#: fixed per-batch dispatch cost amortises (the measured engage
#: break-even on the pointer-chase shape sits between ~100 and ~150
#: accesses, so the ~200-access batches of a standard 40 K budget
#: profit).  Below it, ``access_many`` is the faster path, so the
#: vector kernel stands down; the estimate is refreshed from every
#: budget-limited run (whichever path executed it), so a later phase
#: change re-engages the vector kernel.
_VECTOR_MIN_EST = 128


class Core:
    """One core: executes a process against the shared hierarchy."""

    def __init__(
        self,
        core_id: int,
        machine: MachineConfig,
        hierarchy: CacheHierarchy,
        memory: MainMemory,
    ):
        self.core_id = core_id
        self.machine = machine
        self.hierarchy = hierarchy
        self.memory = memory
        #: cumulative cycles this core spent executing (not idling)
        self.cycles_executed = 0.0
        #: cumulative instructions retired on this core
        self.instructions_retired = 0.0
        #: cumulative memory accesses issued
        self.accesses_issued = 0
        lat = machine.latencies
        # Extra stall beyond an L1 hit, indexed by serving level (1..3);
        # level 4 is priced per run() by the memory channel.
        self._extra_stall = (0.0, 0.0, float(lat.l2 - lat.l1),
                             float(lat.l3 - lat.l1))
        self._l1_latency = float(lat.l1)
        # Cycles the in-flight access of the previous run() call owes
        # beyond its budget; deducted from the next budget so cycle
        # accounting never exceeds the sum of granted budgets.
        self._stall_debt = 0.0
        # Running estimate of how many accesses one cycle budget
        # executes, sizing the batches (see run()).
        self._budget_est = 512

    def run(self, process: "object", cycle_budget: float) -> float:
        """Execute ``process`` for up to ``cycle_budget`` cycles.

        ``process`` is a :class:`repro.sim.process.SimProcess` (duck
        typed to avoid a package cycle): it exposes ``finished``,
        ``current_phase()`` and ``account(accesses)``.

        Every configuration runs the same batch loop: address batches
        go through the vector kernel when
        :meth:`~repro.arch.hierarchy.CacheHierarchy.vector_kernel_ok`
        allows it, and through
        :meth:`~repro.arch.hierarchy.CacheHierarchy.access_many`
        otherwise — the production path's inlined walk, or the priced
        reference walk on a machine it does not model.

        Returns the cycles actually consumed — less than the budget only
        if the process ran to completion inside it.
        """
        if cycle_budget <= 0.0:
            return 0.0
        used = self._stall_debt
        if used >= cycle_budget:
            # Still stalled on the previous call's in-flight access:
            # the whole budget drains into the outstanding debt.
            self._stall_debt = used - cycle_budget
            self.cycles_executed += cycle_budget
            return cycle_budget
        self._stall_debt = 0.0
        total_accesses = 0
        total_instructions = 0.0
        hierarchy = self.hierarchy
        access_many = hierarchy.access_many
        memory = self.memory
        extra = self._extra_stall
        l1_lat = self._l1_latency
        cid = self.core_id

        while used < cycle_budget and not process.finished:
            phase = process.current_phase()
            hierarchy.set_store_ratio(cid, phase.store_ratio)
            take_addresses = phase.take_addresses
            push_back = phase.push_back
            ipa = phase.instructions_per_access
            cpa = phase.compute_cycles_per_access
            inv_overlap = 1.0 / phase.overlap
            chunk = process.accesses_left_in_phase()
            done = 0
            # Batches are priced from the per-level costs below: an L1
            # hit costs the compute cycles, a deeper level adds its
            # extra stall over the overlap, and the memory channel
            # prices every access in a period identically.  Both paths
            # accumulate them with left-to-right float adds and stop at
            # the first access that starts at or over the budget.  A
            # batch is sized from what one budget executed last time
            # (plus 25% for drift); whatever the cutoff leaves
            # unexecuted is pushed back untouched.
            c2 = cpa + extra[2] * inv_overlap
            c3 = cpa + extra[3] * inv_overlap
            mem_unit = memory.latency + memory.current_queue_delay
            c4 = cpa + (mem_unit - l1_lat) * inv_overlap
            costs = (0.0, cpa, c2, c3, c4)
            est = self._budget_est
            cap = est + (est >> 2)
            if cap < 64:
                cap = 64
            elif cap > _MAX_BATCH:
                cap = _MAX_BATCH
            vector = (hierarchy.vector_kernel_ok(cid)
                      and est >= _VECTOR_MIN_EST)
            if vector:
                take_array = phase.take_addresses_array
                vec_classify = hierarchy.vector_classify
                vec_commit = hierarchy.vector_commit
                costs_np = np.array(costs, dtype=np.float64)
                # The running total seeds slot 0 so the accumulate
                # replays the walk's exact left-to-right IEEE-754 add
                # sequence.
                fold = np.empty(_MAX_BATCH + 1, dtype=np.float64)
            while done < chunk and used < cycle_budget:
                batch = chunk - done
                if batch > cap:
                    batch = cap
                if vector and batch >= _VECTOR_MIN_BATCH:
                    # The vector kernel prices a batch before touching
                    # any state: find the exact budget cutoff, commit
                    # the executable prefix and push the rest back as a
                    # zero-copy view.
                    addr_arr = take_array(batch)
                    plan = vec_classify(cid, addr_arr)
                    if plan is None:
                        # Not provably uniform: return the batch
                        # untouched and finish this chunk on
                        # access_many.
                        phase.push_back_array(addr_arr, 0)
                        vector = False
                        continue
                    fold[0] = used
                    np.take(costs_np, plan.levels, out=fold[1:batch + 1])
                    np.add.accumulate(fold[:batch + 1],
                                      out=fold[:batch + 1])
                    # Access i executes iff the total before it is
                    # under budget — access_many's exact rule.
                    n_exec = int(np.searchsorted(
                        fold[:batch], cycle_budget, side="left"
                    ))
                    if not vec_commit(cid, plan, n_exec):
                        # Structural bail (overloaded L3 set, a hit
                        # sharing its set, an own-core
                        # back-invalidation): nothing was mutated and
                        # the pricing may be wrong, so hand the whole
                        # batch to access_many.
                        phase.push_back_array(addr_arr, 0)
                        vector = False
                        continue
                    if plan.hit is None:
                        # All-miss plan: every executed collapsed
                        # access went to memory.
                        n_mem = int(np.searchsorted(
                            plan.keep_raw, n_exec, side="left"
                        ))
                    else:
                        n_mem = int(np.count_nonzero(
                            plan.levels[:n_exec] == 4
                        ))
                    used = float(fold[n_exec])
                    if n_mem:
                        memory.access_bulk(n_mem)
                    done += n_exec
                    if n_exec < batch:
                        phase.push_back_array(addr_arr, n_exec)
                        break
                    continue
                addrs = take_addresses(batch)
                levels, used = access_many(cid, addrs, costs, used,
                                           cycle_budget)
                n_exec = len(levels)
                n_mem = levels.count(4)
                if n_mem:
                    memory.access_bulk(n_mem)
                done += n_exec
                if n_exec < batch:
                    push_back(addrs, n_exec)
                    break
            total_accesses += done
            total_instructions += done * ipa
            process.account(done)

        if used >= cycle_budget and total_accesses:
            # Budget-limited run: what it executed is what one budget
            # buys — the estimate the batch sizing (and the vector
            # kernel's stand-down) needs.
            self._budget_est = total_accesses
        if used > cycle_budget:
            # The final access overshot; carry the excess into the next
            # call so charged cycles never exceed granted budgets.
            self._stall_debt = used - cycle_budget
            used = cycle_budget
        self.cycles_executed += used
        self.accesses_issued += total_accesses
        self.instructions_retired += total_instructions
        return used

    def idle(self, cycles: float) -> None:
        """Account an idle stretch (no counters advance; hook for tests)."""

    def charge_overhead(self, cycles: float) -> None:
        """Charge runtime-overhead cycles to this core.

        Used by the perfmon layer to model the (small) cost of probing
        the PMU each period: the cycles are consumed but retire no
        instructions.
        """
        if cycles < 0:
            raise ValueError(f"overhead cycles must be >= 0, got {cycles}")
        self.cycles_executed += cycles

    def __repr__(self) -> str:
        return (
            f"Core({self.core_id}, cycles={self.cycles_executed:.0f}, "
            f"instructions={self.instructions_retired:.0f})"
        )
