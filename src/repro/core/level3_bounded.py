"""Level 3 + triangle-inequality bounds — the paper's future-work direction.

The paper explicitly scopes out "optimization of the underlying Lloyd
algorithm" and closes by proposing to "optimize this and potentially
similar algorithms" on the hierarchy.  This executor is that extension:
the nkd partition of Algorithm 3 combined with Hamerly-style bounds
[Hamerly 2010], so samples whose assignment provably cannot change skip
the distance computation, the mesh reduce, *and* the inter-CG MINLOC.

What changes relative to :class:`~repro.core.level3.Level3Executor`:

* per-sample state (upper bound to the assigned centroid, lower bound to
  the second-closest) survives across iterations, drifting with centroid
  movement — 2 extra LDM elements per resident sample, negligible;
* each iteration only *candidate* samples (bound test failed) pay the
  distance kernel and the a(i) communication; everything still streams
  for the Update accumulation, so DMA is unchanged;
* the trajectory is exactly Lloyd's (the bounds are conservative), which
  the tests assert against both serial Lloyd and the unbounded executor.

The ``extra_bounded`` experiment quantifies the modelled savings: late
iterations — where almost nothing moves — drop most of their compute and
MINLOC cost, which is exactly where long k-means runs spend their time.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..machine.machine import Machine
from ..runtime.compute import distance_flops
from .block_tasks import AccumulateTask, accumulate_block
from .bounds import (
    BlockBounds,
    apply_hamerly_drift,
    centroid_drift,
    centroid_separation,
)
from .driver import Sweep
from .level3 import Level3Executor
from .result import KMeansResult


class Level3BoundedExecutor(Level3Executor):
    """nkd-partitioned k-means with Hamerly bounds."""

    level = 3

    def __init__(self, machine: Machine, **kwargs) -> None:
        super().__init__(machine, **kwargs)
        self._ub: Optional[np.ndarray] = None
        self._lb: Optional[np.ndarray] = None
        self._assignments: Optional[np.ndarray] = None
        self._prev_C: Optional[np.ndarray] = None
        #: candidates examined per iteration (for tests/reports).
        self.candidates_per_iteration: List[int] = []

    def _reset_state_after_replan(self) -> None:
        # The restored checkpoint invalidates the persistent Hamerly state:
        # bounds drifted against centroids that no longer exist would be
        # unsound, so the next iterate re-establishes them exactly.  The
        # driver invalidates the pruned kernel's bound state the same way.
        super()._reset_state_after_replan()
        self._ub = None
        self._lb = None
        self._assignments = None
        self._prev_C = None

    # -- bound maintenance -------------------------------------------------------

    def _full_assign_with_bounds(self, X: np.ndarray, C: np.ndarray) -> None:
        """Exact assignment of every sample; establishes ub/lb."""
        n, k = X.shape[0], C.shape[0]
        dist = np.sqrt(np.maximum(self.kernel.pairwise_sq(X, C), 0.0))
        order = np.argsort(dist, axis=1)
        self._assignments = order[:, 0].astype(np.int64)
        self._ub = dist[np.arange(n), order[:, 0]]
        self._lb = (dist[np.arange(n), order[:, 1]] if k > 1
                    else np.full(n, np.inf))

    def _candidate_mask(self, C: np.ndarray) -> np.ndarray:
        """Samples whose assignment might change this iteration."""
        assert self._ub is not None and self._lb is not None
        # The kernel's pairwise form keeps this executor's historical
        # separation values bit-for-bit (the shared helper's default is
        # the direct form).
        _, s = centroid_separation(C, sq=self.kernel.pairwise_sq)
        threshold = np.maximum(s[self._assignments], self._lb)
        return self._ub > threshold

    def _reassign_candidates(self, X: np.ndarray, C: np.ndarray,
                             mask: np.ndarray) -> None:
        """Exact re-assignment (and bound refresh) of the masked samples."""
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return
        k = C.shape[0]
        dist = np.sqrt(np.maximum(self.kernel.pairwise_sq(X[idx], C), 0.0))
        order = np.argsort(dist, axis=1)
        self._assignments[idx] = order[:, 0]
        self._ub[idx] = dist[np.arange(idx.size), order[:, 0]]
        self._lb[idx] = (dist[np.arange(idx.size), order[:, 1]]
                         if k > 1 else np.inf)

    def _drift_bounds(self, old_C: np.ndarray, new_C: np.ndarray) -> None:
        apply_hamerly_drift(self._ub, self._lb,
                            centroid_drift(old_C, new_C),
                            self._assignments)

    # -- one iteration ------------------------------------------------------------

    def iterate(self, X: np.ndarray, C: np.ndarray,
                bounds: Optional[BlockBounds]) -> Tuple[Sweep, np.ndarray]:
        plan = self.plan
        n, d = X.shape
        k = C.shape[0]
        item = self._itemsize
        widest_k = max(hi - lo for lo, hi in plan.centroid_slices)
        widest_d = max(hi - lo for lo, hi in plan.dim_slices)

        # ---- Assign phase with bound filtering ----
        if self._ub is None:
            self._full_assign_with_bounds(X, C)
            candidate_mask = np.ones(n, dtype=bool)
        else:
            self._drift_bounds(self._prev_C, C)
            candidate_mask = self._candidate_mask(C)
            self._reassign_candidates(X, C, candidate_mask)
        assignments = self._assignments.copy()
        self.candidates_per_iteration.append(int(candidate_mask.sum()))

        # ---- per-group accumulation (fans out over the execution engine) ----
        # Module-level accumulate-only tasks: labels are already known, so
        # each block just sums its samples per centroid.  The labels array
        # is fresh each iteration, and share() rewrites its segment in
        # place for the process engine's workers.
        x_ref = self.engine.share("X", X)
        labels_ref = self.engine.share("labels", assignments)
        tasks = [AccumulateTask(x_ref, labels_ref, lo, hi, k)
                 for lo, hi in plan.sample_blocks]

        # The merge runs under the executor's reduction topology (schedule
        # a pure function of the group count, so engine-independent); the
        # per-group partials also feed the accumulate cost model below.
        merged, partials = self.engine.map_reduce(
            accumulate_block, tasks, topology=self.reduce,
            return_partials=True)
        global_sums, global_counts = merged.sums, merged.counts

        # ---- cost model, scaled by surviving candidates (fixed order) ----
        if self.model_costs:
            dma_times: List[float] = []
            compute_times: List[float] = []
            minloc_times: List[float] = []
            accumulate_times: List[float] = []
            for g, members in enumerate(plan.cg_groups):
                lo, hi = plan.sample_blocks[g]
                b = hi - lo
                n_cand = int(candidate_mask[lo:hi].sum())
                # The full block still streams (Update needs every sample);
                # bound state (2 scalars/sample) rides along.
                cg_bytes = (b * (d + 2)) * item \
                    + self.machine.cpes_per_cg \
                    * plan.cent_traffic_bytes_per_cpe()
                dma_times.append(self._dma.transfer_time(cg_bytes))
                # Only candidates pay the distance kernel; skipped samples
                # pay one bound comparison each (2 flops, negligible but
                # charged).
                compute_times.append(self.compute.time_for_flops(
                    distance_flops(n_cand, widest_k, widest_d)
                    + 2.0 * (b - n_cand), n_cpes=1))
                # Only candidates enter the MINLOC chain.
                minloc_times.append(
                    self._group_comms[g].allreduce_time(n_cand * 16))
                counts = partials[g].counts
                slice_loads = [
                    int(counts[s_lo:s_hi].sum()) * widest_d
                    for s_lo, s_hi in plan.centroid_slices
                ]
                accumulate_times.append(self.compute.time_for_flops(
                    max(slice_loads), n_cpes=1))
            self.charge_stream_phases("l3b.assign", dma_times, compute_times)
            max_cand_block = max(
                int(candidate_mask[lo:hi].sum())
                for lo, hi in plan.sample_blocks
            )
            self.ledger.charge("regcomm", "l3b.assign.dim_reduce",
                               self._regcomm.allreduce_time(
                                   max_cand_block * widest_k * item))
            self.ledger.charge_parallel("network", "l3b.assign.minloc",
                                        minloc_times)
            self.ledger.charge_parallel("compute", "l3b.update.accumulate",
                                        accumulate_times)

        # ---- Update phase (identical to the unbounded executor) ----
        # The cross-group merge already ran inside map_reduce; here each
        # slice's modelled allreduce is priced (allreduce_time fires the
        # same fault-injection probe as the data-carrying collective did).
        if plan.n_groups > 1:
            member_times: List[float] = []
            for j, (lo_k, hi_k) in enumerate(plan.centroid_slices):
                if self.model_costs:
                    comm = self._member_comms[j]
                    payload = ((hi_k - lo_k) * d + (hi_k - lo_k)) * item
                    member_times.append(comm.allreduce_time(payload))
            if self.model_costs:
                self.ledger.charge_parallel(
                    "network", "l3b.update.inter_group_allreduce",
                    member_times)

        if self.model_costs:
            self.ledger.charge("compute", "l3b.update.divide",
                               self.compute.time_for_flops(
                                   widest_k * widest_d, n_cpes=1))
        # No exact winning distances here — the Hamerly upper bounds are
        # drifted bounds, not distances — so reseed_farthest recomputes them
        # on the (rare) empty-cluster iteration.
        new_C = self.update_step(global_sums, global_counts, C, X=X)
        self._prev_C = C.copy()
        # No best_d2 and no lb: the driver pays an explicit inertia pass
        # and leaves the pruned kernel's bounds (unused here) uncommitted.
        return Sweep(global_sums, global_counts, partials, assignments), new_C


def run_level3_bounded(X: np.ndarray, centroids: np.ndarray,
                       machine: Machine, max_iter: int = 100,
                       tol: float = 0.0, **executor_kwargs: object) -> KMeansResult:
    """Convenience wrapper: bounded Level-3 run."""
    executor = Level3BoundedExecutor(machine, **executor_kwargs)
    return executor.run(X, centroids, max_iter=max_iter, tol=tol)
