"""Level 2 executor — dataflow + centroid (nk) partition, Algorithm 2.

``mgroup`` CPEs inside a core group form a *CPE group* that collectively
holds the centroid set, one slice per member.  Every member reads the same
sample, computes a partial nearest-centroid over its slice (a(i)'), and a
MINLOC reduction over the group produces the global a(i).  Accumulators are
sliced the same way; updating them needs an AllReduce per slice across all
CPE groups.

This reproduces the two-level-memory design of Bender et al. on Trinity —
including its failure mode: the full sample must still fit one CPE's LDM
(constraint C2), so d cannot scale past the scratchpad no matter how many
cores are added.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..machine.machine import Machine
from ..runtime.compute import distance_flops
from ..runtime.dma import DMAEngine
from ..runtime.mpi import SimComm
from ..runtime.regcomm import RegisterComm
from .block_tasks import StrictL2Task, strict_l2_assign, strict_l2_block
from .bounds import BlockBounds
from .driver import Sweep, map_blocks, sweep_blocks
from .executor_base import LevelExecutor
from .partition import Level2Plan, plan_level2
from .result import KMeansResult


class Level2Executor(LevelExecutor):
    """Simulated execution of the nk-partition algorithm."""

    level = 2

    def __init__(self, machine: Machine, plan: Optional[Level2Plan] = None,
                 mgroup: Optional[int] = None, streaming: bool = False,
                 **kwargs) -> None:
        super().__init__(machine, **kwargs)
        self._plan = plan
        self._mgroup_request = mgroup
        self._streaming = bool(streaming)
        self._itemsize = 8
        self._regcomm = RegisterComm(machine.spec.processor.cg, self.ledger,
                                     injector=self.injector)
        self._dma = DMAEngine(machine.spec.processor.cg, self.ledger,
                              injector=self.injector)
        self._comm: Optional[SimComm] = None
        self._groups_by_cg: Dict[int, List[int]] = {}

    @property
    def plan(self) -> Level2Plan:
        if self._plan is None:
            raise RuntimeError("executor has not been set up yet")
        return self._plan

    # -- setup ---------------------------------------------------------------

    def setup(self, X: np.ndarray, C: np.ndarray) -> None:
        n, d = X.shape
        k = C.shape[0]
        if self._plan is None:
            self._plan = plan_level2(self.machine, n, k, d,
                                     mgroup=self._mgroup_request,
                                     streaming=self._streaming,
                                     dtype=X.dtype)
        plan = self._plan
        self._itemsize = np.dtype(plan.dtype).itemsize

        by_cg: Dict[int, List[int]] = defaultdict(list)
        for g in range(plan.n_groups):
            by_cg[plan.cg_of_group[g]].append(g)
        self._groups_by_cg = dict(by_cg)

        active_cgs = sorted(self._groups_by_cg)
        self._comm = SimComm(self.machine, active_cgs, self.ledger,
                             self.collective_algorithm,
                             injector=self.injector)
        # Initial scatter of centroid slices to every group member.
        if self.model_costs:
            self.ledger.charge(
                "network", "l2.setup.scatter_centroids",
                self._comm.bcast_time(k * d * self._itemsize),
            )

    # -- one iteration ------------------------------------------------------------

    def _assign_block(self, block: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Assignment of one group's block, strict or fast path.

        Strict mode mirrors the hardware dataflow: each member CPE computes
        distances over its centroid slice and a slice-local argmin (line 9's
        a(i)'), then a MINLOC reduction (line 10) combines the mgroup partial
        winners.  Fast mode computes the same argmin in one vectorised pass.
        """
        if not self.strict_cpe:
            return self.kernel.assign(block, C)
        return self._strict_assign_block(block, C)[0]

    def _strict_assign_block(self, block: np.ndarray, C: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
        """Strict dataflow winner (index, squared distance) per sample.

        The math lives in :func:`repro.core.block_tasks.strict_l2_assign`
        (module-level so the process engine can ship it inside tasks);
        this method binds the executor's plan.
        """
        return strict_l2_assign(block, C, self.plan.centroid_slices)

    def iterate(self, X: np.ndarray, C: np.ndarray,
                bounds: Optional[BlockBounds]) -> Tuple[Sweep, np.ndarray]:
        plan = self.plan
        d = X.shape[1]
        k = C.shape[0]
        item = self._itemsize
        assert self._comm is not None
        widest_slice = max(hi - lo for lo, hi in plan.centroid_slices)

        # ---- Assign phase: numerics fan out over the execution engine ----
        # Module-level block tasks (picklable for the process engine;
        # operands travel by share()) return compact partials, merged in
        # fixed group order below, so the result is engine-independent;
        # labels scatter back in fixed group order.
        # The merge mirrors the hardware hierarchy: partials reduce within
        # each CG first, then across CGs in sorted-CG order — a grouped
        # topology whose schedule depends only on the group layout.  The
        # per-group partials also feed the accumulate cost model below.
        topology = self.reduce.for_groups(
            [self._groups_by_cg[cg] for cg in sorted(self._groups_by_cg)])
        if self.strict_cpe:
            # The strict-CPE dataflow keeps its own task (the kernel is
            # pinned to naive, so there are never bounds to carry).
            x_ref = self.engine.share("X", X)
            c_ref = self.engine.share("C", C)
            tasks = [StrictL2Task(x_ref, c_ref, lo, hi, k,
                                  plan.centroid_slices)
                     for lo, hi in plan.sample_blocks]
            sweep = map_blocks(self.engine, strict_l2_block, tasks,
                               topology, X)
        else:
            sweep = sweep_blocks(self.engine, self.kernel, X, C,
                                 plan.sample_blocks, topology, bounds)
        pruned = bounds is not None
        partials = sweep.partials

        # ---- cost model (fixed CG/group order, independent of the engine) ----
        if self.model_costs:
            dma_times: List[float] = []
            compute_times: List[float] = []
            accumulate_times: List[float] = []
            for cg_index, groups in sorted(self._groups_by_cg.items()):
                cg_bytes = 0
                for g in groups:
                    lo, hi = plan.sample_blocks[g]
                    b = hi - lo
                    # Every member CPE streams the whole block (the
                    # n*d*mgroup/m amplification of T'read) plus its centroid
                    # slice traffic (slice bytes once when resident,
                    # re-streamed per stage otherwise — see StreamingInfo).
                    cg_bytes += (b * d * plan.mgroup) * item \
                        + plan.mgroup * plan.cent_traffic_bytes_per_cpe()
                    # Member CPEs work concurrently, each over its slice.
                    if pruned:
                        # The group's actual evaluations split over the
                        # mgroup slice owners; each pays its widest-slice
                        # share plus 2 flops/sample of bound tests.  DMA
                        # is unchanged: the block still streams in full.
                        flops = (3.0 * partials[g].n_dist * d
                                 * widest_slice / k + 2.0 * b)
                    else:
                        flops = float(distance_flops(b, widest_slice, d))
                    compute_times.append(self.compute.time_for_flops(
                        flops, n_cpes=1))
                    # Accumulation load per member = samples assigned to its
                    # slice; the critical path is the most loaded member.
                    counts = partials[g].counts
                    slice_loads = [
                        int(counts[s_lo:s_hi].sum()) * d
                        for s_lo, s_hi in plan.centroid_slices
                    ]
                    accumulate_times.append(self.compute.time_for_flops(
                        max(slice_loads), n_cpes=1))
                dma_times.append(self._dma.transfer_time(cg_bytes))
            self.charge_stream_phases("l2.assign", dma_times, compute_times)

            # MINLOC over each CPE group (line 10): one (value, index) pair
            # per sample travels the mesh buses; groups operate concurrently.
            max_block = max(hi - lo for lo, hi in plan.sample_blocks)
            self.ledger.charge("regcomm", "l2.assign.minloc",
                               self._regcomm.allreduce_time(max_block * 16))

            self.ledger.charge_parallel("compute", "l2.update.accumulate",
                                        accumulate_times)

        # ---- Update phase: two-stage AllReduce of sliced accumulators ----
        # Both stages already ran (in this exact hierarchical order) inside
        # map_reduce; here each stage's modelled cost is charged.
        # allreduce_time fires the same fault-injection probe, with the
        # same label and payload, as the data-carrying collective it
        # prices.
        payload = (k * d + k) * item
        if self.model_costs:
            self.ledger.charge("regcomm", "l2.update.intra_cg_allreduce",
                               self._regcomm.allreduce_time(payload))
        if self._comm.size > 1:
            self.ledger.charge(
                "network", "l2.update.inter_cg_allreduce.sums",
                self._comm.allreduce_time(
                    sweep.sums.nbytes,
                    label="l2.update.inter_cg_allreduce.sums"))
            self.ledger.charge(
                "network", "l2.update.inter_cg_allreduce.counts",
                self._comm.allreduce_time(
                    sweep.counts.nbytes,
                    label="l2.update.inter_cg_allreduce.counts"))

        # Divide: each member CPE finishes its own slice.
        if self.model_costs:
            self.ledger.charge("compute", "l2.update.divide",
                               self.compute.time_for_flops(widest_slice * d,
                                                           n_cpes=1))
        new_C = self.update_step(sweep.sums, sweep.counts, C,
                                 X=X, best_d2=sweep.best_d2)
        return sweep, new_C


def run_level2(X: np.ndarray, centroids: np.ndarray, machine: Machine,
               mgroup: Optional[int] = None, max_iter: int = 100,
               tol: float = 0.0, **executor_kwargs: object) -> KMeansResult:
    """Convenience wrapper: plan, execute, and return the result."""
    executor = Level2Executor(machine, mgroup=mgroup, **executor_kwargs)
    return executor.run(X, centroids, max_iter=max_iter, tol=tol)
