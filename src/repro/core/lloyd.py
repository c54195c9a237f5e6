"""Serial Lloyd algorithm — the correctness reference for every level.

This is the textbook two-step iteration the paper builds on (section II.B.2):

1. **Assign**: ``a(i) = argmin_j dis(x_i, c_j)``
2. **Update**: ``c_j = mean of samples assigned to j``

The partitioned Level 1/2/3 executors must reproduce this trajectory exactly
(same assignments, same centroids within fp tolerance) for any feasible
configuration; the integration tests enforce it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..runtime.engine import EngineLike, ExecutionEngine, resolve_engine
from ..runtime.ledger import NullLedger
from ..runtime.reduce import ReduceLike, ReduceTopology, resolve_reduce
from ..runtime.supervisor import (
    RunSupervisor,
    SupervisorLike,
    resolve_supervisor,
)
from ._common import (
    DEFAULT_CHUNK_ELEMENTS,
    chunk_ranges,
    update_centroids,
    validate_data,
)
from .block_tasks import task_kernel
from .bounds import BlockBounds
from .checkpoint import CheckpointConfig, CheckpointStore
from .driver import DriverStep, Sweep, drive, sweep_blocks
from .kernels import KernelBackend, KernelLike, resolve_kernel
from .result import KMeansResult


class _LloydStep(DriverStep):
    """Serial Lloyd as a driver step: no partition plan, no time ledger.

    Blocks come from the backend's own chunk policy, so they are a
    function of the problem shape only, never of the engine or worker
    count; with a fixed reduction topology the sweep is bit-identical
    across engines and worker counts.
    """

    def __init__(self, kernel: KernelBackend, engine: ExecutionEngine,
                 topology: ReduceTopology, supervisor: RunSupervisor,
                 checkpoints: CheckpointStore, chunk_elements: int,
                 empty_action: str, resume: bool) -> None:
        super().__init__()
        self.kernel = kernel
        self.engine = engine
        self.topology = topology
        self.supervisor = supervisor
        self.checkpoints = checkpoints
        # The store's NullLedger still numbers the iterations.
        self.ledger = checkpoints.ledger
        self.chunk_elements = chunk_elements
        self.empty_action = empty_action
        self.resume = resume

    def iterate(self, X: np.ndarray, C: np.ndarray,
                bounds: Optional[BlockBounds]) -> Tuple[Sweep, np.ndarray]:
        n, k, d = X.shape[0], C.shape[0], X.shape[1]
        rows = self.kernel.chunk_rows(n, k, d, self.chunk_elements)
        sweep = sweep_blocks(self.engine, self.kernel, X, C,
                             list(chunk_ranges(n, rows)), self.topology,
                             bounds, self.chunk_elements)
        new_C = update_centroids(sweep.sums, sweep.counts, C,
                                 empty_action=self.empty_action,
                                 X=X, best_d2=sweep.best_d2)
        return sweep, new_C

    def label(self, X: np.ndarray, C: np.ndarray) -> np.ndarray:
        return task_kernel(self.kernel)._assign(X, C, self.chunk_elements)


def lloyd(X: np.ndarray, centroids: np.ndarray, max_iter: int = 100,
          tol: float = 0.0, chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
          kernel: Optional[KernelLike] = None, engine: EngineLike = None,
          workers: Optional[int] = None, reduce: ReduceLike = None,
          empty_action: str = "keep",
          deadline_s: Optional[float] = None,
          watchdog_s: Optional[float] = None,
          supervisor: SupervisorLike = None,
          checkpoint_every: Optional[int] = None,
          checkpoint_dir: Optional[str] = None,
          resume: bool = False,
          integrity: Optional[str] = None) -> KMeansResult:
    """Run serial Lloyd k-means from an explicit initial centroid set.

    Parameters
    ----------
    X:
        (n, d) samples.
    centroids:
        (k, d) initial centroids (not mutated).
    max_iter:
        Iteration cap.
    tol:
        Stop when the largest per-centroid L2 movement is <= tol.  The
        paper's loop runs "until each c_j is fixed", i.e. tol = 0.
    chunk_elements:
        Bound on the transient distance-matrix working set.
    kernel:
        Compute backend for the Assign step ("naive", "gemm", or
        "pruned"; see :mod:`repro.core.kernels`).  None consults
        ``REPRO_KERNEL``.  The pruned backend carries per-sample bounds
        across iterations (invalidated on resume) and is bit-identical
        to "gemm".
    engine:
        Host execution engine (``"serial"``, ``"thread"``, ``"process"``,
        or an :class:`~repro.runtime.engine.ExecutionEngine` instance),
        resolved by :func:`~repro.runtime.engine.resolve_engine`; None
        consults ``REPRO_ENGINE``.  Shards the fused Assign+Accumulate
        pass over the engine's workers without changing the numbers.
    workers:
        Worker count of the thread or process engine, resolved by
        :func:`~repro.runtime.engine.resolve_engine` (``workers > 1``
        alone implies ``engine="thread"``; None consults
        ``REPRO_WORKERS``).
    reduce:
        Reduction topology merging the per-shard partials (``"serial"``,
        ``"tree"``, or a :class:`~repro.runtime.reduce.ReduceTopology`
        instance; see :mod:`repro.runtime.reduce`).  None consults
        ``REPRO_REDUCE``.  The serial default folds in shard order —
        bit-identical to the historical loop; the tree runs pairwise
        combines as engine tasks, bit-identical across engines and worker
        counts for a fixed topology.
    empty_action:
        Empty-cluster rule for the Update step (``"keep"`` or
        ``"reseed_farthest"``; see
        :func:`~repro.core._common.update_centroids`).
    deadline_s:
        Wall-clock budget in *real* seconds; the run aborts with
        :class:`~repro.errors.DeadlineExceededError` at the first
        iteration boundary past it.  None consults ``REPRO_DEADLINE``.
    watchdog_s:
        Per-iteration real-time threshold; slower iterations are flagged
        as ``slow_iteration`` host events.
    supervisor:
        Full :class:`~repro.runtime.supervisor.RunSupervisor` instance
        overriding ``deadline_s``/``watchdog_s``.
    checkpoint_every:
        Snapshot ``(iteration, centroids)`` every this many iterations.
        Level 0 has no time ledger, so nothing is charged — the knob only
        matters together with ``checkpoint_dir``.
    checkpoint_dir:
        Persist every snapshot durably to ``checkpoint_dir/checkpoint.npz``
        (atomic write-tmp → fsync → rename) so a killed process can
        ``resume``.
    resume:
        Restart from the snapshot in ``checkpoint_dir`` (required) instead
        of ``centroids``; the continuation is bit-identical to the
        uninterrupted run.
    integrity:
        Data-integrity mode (``"off"``, ``"verify"``, or ``"repair"``;
        see :mod:`repro.runtime.integrity`).  None consults
        ``REPRO_INTEGRITY``.  ``verify`` detects silently corrupted
        reduction partials, shared operands, and checkpoint bytes
        (raising :class:`~repro.errors.IntegrityError`); ``repair``
        recomputes the corrupted unit so runs under bitflip chaos finish
        bit-identical to fault-free ones.

    Returns
    -------
    KMeansResult with level = 0 and no time ledger.
    """
    if resume and checkpoint_dir is None:
        raise ConfigurationError(
            "resume=True needs checkpoint_dir= (there is no on-disk "
            "snapshot to resume from otherwise)"
        )
    backend = resolve_kernel(kernel)
    exec_engine = resolve_engine(engine, workers, integrity=integrity)
    topology = resolve_reduce(reduce)
    run_supervisor = resolve_supervisor(supervisor, deadline_s, watchdog_s)
    # Level 0 has no time ledger: the NullLedger swallows the modelled
    # checkpoint charges, leaving only the durable host-side persistence.
    # The store shares the engine's chaos injector and integrity mode so
    # bitflip_checkpoint plans reach the durable writes and resumes verify.
    checkpoints = CheckpointStore(CheckpointConfig(every=checkpoint_every),
                                  NullLedger(), directory=checkpoint_dir,
                                  chaos=exec_engine.chaos,
                                  integrity=exec_engine.integrity,
                                  record=run_supervisor.record)
    step = _LloydStep(backend, exec_engine, topology, run_supervisor,
                      checkpoints, chunk_elements, empty_action, resume)
    return drive(step, X, centroids, max_iter=max_iter, tol=tol)


def lloyd_single_iteration(X: np.ndarray, centroids: np.ndarray,
                           chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
                           kernel: Optional[KernelLike] = None,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """One Assign+Update step; returns (assignments, new_centroids).

    Handy for comparing a parallel executor's single-iteration output
    against the reference without running to convergence.
    """
    X, C = validate_data(X, centroids)
    assignments, _, sums, counts = resolve_kernel(kernel).assign_accumulate(
        X, C, chunk_elements)
    return assignments, update_centroids(sums, counts, C)
