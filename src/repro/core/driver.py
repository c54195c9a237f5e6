"""The one convergence loop behind serial Lloyd and every partition level.

The paper's Level 1/2/3 algorithms are the same Lloyd iteration (section
II.B.2) under three data partitions, and serial Lloyd is that iteration
under none.  A caller therefore supplies only a :class:`DriverStep` — one
Assign+Update under its partition plus the run context it was built with
— and :func:`drive` owns everything around it:

* argument checks and :func:`~repro.core._common.validate_data`;
* resume from a durable snapshot, with the integrity cold-start fallback;
* the epoch-0 snapshot (or the ledger fast-forward of a resumed run);
* the supervisor hooks, the fault-retry loop, and the finite guards;
* the pruned kernel's bound state: created after any resume, dropped on
  every checkpoint restore, committed as the last act of a successful
  iteration;
* history, :class:`~repro.errors.ConvergenceWarning`, the final objective,
  and :class:`~repro.core.result.KMeansResult` assembly.

The fused-versus-pruned block sweep every step runs lives here too
(:func:`sweep_blocks`): one map/combine/reduce over a plan's sample blocks
under a reduction topology, with the labels scattered back in block order.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    ConfigurationError,
    ConvergenceWarning,
    FaultError,
    IntegrityError,
    NumericalFaultError,
)
from ..runtime.engine import ExecutionEngine
from ..runtime.faults import FaultInjector
from ..runtime.ledger import LedgerProtocol
from ..runtime.reduce import (
    BlockPartial,
    ReduceTopology,
    scatter_bounds,
    scatter_labels,
)
from ..runtime.supervisor import RunSupervisor
from ._common import inertia, max_centroid_shift, validate_data
from .block_tasks import (
    FusedAssignTask,
    build_pruned_tasks,
    fused_assign_block,
    kernel_token,
    pruned_assign_block,
)
from .bounds import BlockBounds
from .checkpoint import CheckpointStore, load_checkpoint
from .kernels import KernelBackend, PrunedKernel
from .result import IterationStats, KMeansResult


class Sweep(NamedTuple):
    """One Assign+Accumulate pass over a plan's sample blocks."""

    sums: np.ndarray
    counts: np.ndarray
    #: Per-block partials in block order (they feed the cost models).
    partials: Sequence[BlockPartial]
    assignments: np.ndarray
    #: Exact winning squared distances, or None when the step has none
    #: (the bounded executor's upper bounds are not distances).
    best_d2: Optional[np.ndarray] = None
    #: Fresh lower bounds of a pruned sweep, committed by the driver.
    lb: Optional[np.ndarray] = None


def map_blocks(engine: ExecutionEngine, block_fn: Callable[[Any], Any],
               tasks: Sequence[Any], topology: Optional[ReduceTopology],
               X: np.ndarray) -> Sweep:
    """Map block tasks, merge their partials, scatter labels in block order.

    The merge schedule is a pure function of the block count and the
    topology, and the labels scatter in submission order, so the sweep is
    bit-identical across engines and worker counts.
    """
    merged, partials = engine.map_reduce(block_fn, tasks, topology=topology,
                                         return_partials=True)
    n = X.shape[0]
    assignments = np.empty(n, dtype=np.int64)
    best_d2 = np.empty(n, dtype=X.dtype)
    scatter_labels(partials, assignments, best_d2)
    return Sweep(merged.sums, merged.counts, partials, assignments, best_d2)


def sweep_blocks(engine: ExecutionEngine, backend: KernelBackend,
                 X: np.ndarray, C: np.ndarray,
                 blocks: Sequence[Tuple[int, int]],
                 topology: Optional[ReduceTopology],
                 bounds: Optional[BlockBounds],
                 chunk_elements: Optional[int] = None) -> Sweep:
    """The fused sweep, or the bounds-carrying one when ``bounds`` is given.

    Both use the same block boundaries and topology, so the task-id stream
    (and with it every chaos plan and fault replay) and the numbers are
    the same; the pruned sweep only does less work per block as the
    bounds tighten.  It reads ``bounds`` but never writes them: the
    driver commits its lower bounds once the iteration has succeeded.
    """
    if bounds is not None:
        tasks: List[Any] = build_pruned_tasks(
            engine, backend, X, C, blocks, bounds,
            chunk_elements=chunk_elements)
        sweep = map_blocks(engine, pruned_assign_block, tasks, topology, X)
        lb = np.empty(X.shape[0], dtype=np.float64)
        scatter_bounds(sweep.partials, lb)
        return sweep._replace(lb=lb)
    # Under the in-process engines share() is the array itself; the
    # process engine publishes it (re-publishing the same X is free).
    x_ref = engine.share("X", X)
    c_ref = engine.share("C", C)
    token = kernel_token(backend)
    tasks = [FusedAssignTask(x_ref, c_ref, lo, hi, token, chunk_elements)
             for lo, hi in blocks]
    return map_blocks(engine, fused_assign_block, tasks, topology, X)


class DriverStep(ABC):
    """One Lloyd iteration under some partition, plus its run context.

    Subclasses set the context attributes (typically in ``__init__``) and
    implement :meth:`iterate` and :meth:`label`; the other hooks default
    to serial Lloyd's (no plan, no recovery, no state of its own).
    """

    #: Partition level reported in the result (0 = serial Lloyd).
    level: int = 0
    kernel: KernelBackend
    engine: ExecutionEngine
    ledger: LedgerProtocol
    supervisor: RunSupervisor
    checkpoints: CheckpointStore
    injector: Optional[FaultInjector] = None
    resume: bool = False

    def __init__(self) -> None:
        #: Distance evaluations of every committed pruned iteration (n*k
        #: on establishment sweeps); the pruning telemetry.
        self.pruned_evals_per_iteration: List[int] = []

    @property
    def name(self) -> str:
        """How the convergence warning names the run."""
        return "lloyd"

    def setup(self, X: np.ndarray, C: np.ndarray) -> None:
        """Plan against (X, C) and charge one-time costs; none by default."""

    @abstractmethod
    def iterate(self, X: np.ndarray, C: np.ndarray,
                bounds: Optional[BlockBounds]) -> Tuple[Sweep, np.ndarray]:
        """One Assign+Update from ``C``; returns ``(sweep, new_C)``.

        ``bounds`` is the pruned kernel's carried state (None under the
        other kernels): pass it to :func:`sweep_blocks` and leave the
        commit to the driver.  A step with a time ledger charges every
        phase of the iteration (every fault-prone charge) in here.
        """

    @abstractmethod
    def label(self, X: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Nearest-centroid labels under ``C``, outside the loop.

        The final objective's relabelling pass: the kernel's labels over
        the step's own blocks, so the pass needs no more scratch memory
        than an iteration, with no engine tasks and no ledger charges.
        """

    def recover(self, exc: FaultError, attempt: int, X: np.ndarray,
                C: np.ndarray) -> Optional[np.ndarray]:
        """Handle a fault raised by attempt ``attempt`` of an iteration.

        Return None to re-run the iteration from the same centroids, or
        the centroids of a restored checkpoint; raise to give up.  Serial
        Lloyd has no recovery policy, so the default gives up at once.
        """
        raise exc

    def _reset_state_after_replan(self) -> None:
        """Drop the step's own state tied to pre-restore centroids.

        Called by the driver after every checkpoint restore (replan and
        rollback), next to its own invalidation of the pruned bounds.
        Steps that carry acceleration state across iterations override it
        and chain to ``super()``.
        """


def _resume(step: DriverStep, C: np.ndarray) -> Tuple[np.ndarray, int]:
    """Centroids and iteration to start a ``resume=True`` run from.

    Returns ``(C, 0)`` — a cold start — when the directory holds no
    snapshot yet, or under ``integrity="repair"`` when the snapshot fails
    verification; ``verify`` and ``off`` surface the damage instead, since
    a wrong-bytes resume would silently diverge.
    """
    directory = step.checkpoints.directory
    try:
        snapshot = load_checkpoint(directory, integrity=step.engine.integrity)
    except IntegrityError as exc:
        if step.engine.integrity != "repair":
            raise
        step.supervisor.record(
            "integrity",
            f"durable snapshot failed verification ({exc}); cold start")
        return C, 0
    if snapshot is None:
        step.supervisor.record(
            "resume", f"no snapshot in {directory!r}; cold start")
        return C, 0
    if snapshot.centroids.shape != C.shape:
        raise ConfigurationError(
            f"checkpoint in {directory!r} holds centroids of shape "
            f"{snapshot.centroids.shape}, but this run uses {C.shape}"
        )
    step.checkpoints.adopt(snapshot)
    step.supervisor.record(
        "resume",
        f"resumed from {directory!r} at iteration {snapshot.iteration}")
    restored = np.array(snapshot.centroids, copy=True).astype(
        C.dtype, copy=False)
    return restored, int(snapshot.iteration)


def _reset_after_restore(step: DriverStep,
                         bounds: Optional[BlockBounds]) -> None:
    """Drop every piece of state anchored to pre-restore centroids.

    A restored checkpoint rewinds the centroids, so bounds drifted along
    the abandoned trajectory would be unsound: the next iteration
    re-establishes them from scratch (reprolint rule D107).
    """
    if bounds is not None:
        bounds.invalidate()
    step._reset_state_after_replan()


def _check_finite(new_C: np.ndarray, objective: float,
                  iteration: int) -> None:
    """Per-iteration numerical guard.

    A NaN/Inf in the fresh centroids or in the iteration's inertia means
    a partial was corrupted — e.g. host-side bit rot injected at the
    engine seam — and every later iteration would silently converge to
    garbage.  The transient :class:`~repro.errors.NumericalFaultError`
    lets a recovery policy re-run the iteration or roll back.
    """
    if not np.isfinite(new_C).all():
        raise NumericalFaultError(
            f"non-finite centroids after the iteration {iteration} "
            f"Update step", iteration=iteration,
        )
    if not np.isfinite(objective):
        raise NumericalFaultError(
            f"non-finite inertia at iteration {iteration}",
            iteration=iteration,
        )


def _attempt(step: DriverStep, X: np.ndarray, C: np.ndarray,
             bounds: Optional[BlockBounds], it: int
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Iteration ``it`` with its fault retries.

    Returns ``(C, labels, new_C, objective)``: the centroids the
    successful attempt started from (a restore replaces them), its
    labels, the updated centroids, and the mean winning squared distance
    under ``C``.  The sweep's partials die with this frame.
    """
    attempt = 0
    while True:
        try:
            if step.injector is not None:
                step.injector.begin_iteration(it)
            sweep, new_C = step.iterate(X, C, bounds)
            # Only a step without exact distances pays an extra pass.
            objective = (float(sweep.best_d2.sum() / X.shape[0])
                         if sweep.best_d2 is not None
                         else inertia(X, C, sweep.assignments))
            _check_finite(new_C, objective, it)
            break
        except FaultError as exc:
            attempt += 1
            # Partial charges from the failed attempt stay on the ledger as
            # wasted work, exactly as on the real machine.
            restored = step.recover(exc, attempt, X, C)
            if restored is not None:
                C = restored
                _reset_after_restore(step, bounds)
        finally:
            step.supervisor.absorb(step.engine)
    if bounds is not None and sweep.lb is not None:
        # Last act of a successful iteration, so a faulted attempt never
        # half-commits: a retry re-runs from the previous state.
        bounds.commit(C, sweep.assignments, sweep.best_d2, sweep.lb)
        step.pruned_evals_per_iteration.append(
            sum(int(p.n_dist) for p in sweep.partials))
    return C, sweep.assignments, new_C, objective


def drive(step: DriverStep, X: np.ndarray, centroids: np.ndarray,
          max_iter: int = 100, tol: float = 0.0) -> KMeansResult:
    """Run ``step`` to convergence (or ``max_iter``) from ``centroids``."""
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    if tol < 0:
        raise ConfigurationError(f"tol must be >= 0, got {tol}")
    X, C = validate_data(X, np.array(centroids, copy=True))
    n = X.shape[0]

    start_iteration = 0
    if step.resume:
        C, start_iteration = _resume(step, C)
    step.setup(X, C)
    if start_iteration > 0:
        # Epoch numbering continues where the killed run left off, so the
        # resumed trajectory's telemetry lines up with the uninterrupted
        # run's.
        step.ledger.skip_to(start_iteration)
    else:
        step.checkpoints.save_initial(C)
    # Created after any resume restore: the carrier starts invalid, so the
    # first (possibly resumed) iteration establishes the bounds from
    # scratch and nothing stale survives a restart.
    bounds = BlockBounds() if isinstance(step.kernel, PrunedKernel) else None

    supervisor = step.supervisor
    supervisor.start()
    history: List[IterationStats] = []
    assignments = np.full(n, -1, dtype=np.int64)
    converged = False
    shift = np.inf
    it = start_iteration
    for _ in range(start_iteration, max_iter):
        it = step.ledger.next_iteration()
        supervisor.begin_iteration(it)
        t_before = step.ledger.total()
        C, labels, new_C, objective = _attempt(step, X, C, bounds, it)
        shift = max_centroid_shift(C, new_C)
        history.append(IterationStats(
            iteration=it,
            inertia=objective,
            centroid_shift=shift,
            n_reassigned=int((labels != assignments).sum()),
            modelled_seconds=step.ledger.total() - t_before,
        ))
        assignments = labels
        C = new_C
        supervisor.end_iteration(it)
        if shift <= tol:
            converged = True
            break
        step.checkpoints.maybe_save(it, C)

    if not converged and history:
        warnings.warn(
            f"{step.name} did not converge in {max_iter} iterations (last "
            f"centroid shift {history[-1].centroid_shift:.3g} > tol "
            f"{tol:g}); consider raising max_iter",
            ConvergenceWarning,
            stacklevel=3,
        )
    supervisor.absorb(step.engine)

    # Final objective under the final C.  At an exact fixed point the held
    # assignments *are* the nearest-centroid labels for the final C.  A
    # tol > 0 stop or max_iter exhaustion halts one Update past the last
    # Assign, so the held labels may be stale: relabel for the objective
    # only.  result.assignments stays the last-Assign labels, except after
    # a resume past max_iter, which ran no Assign at all.
    labels = assignments
    if not (converged and shift == 0.0):
        labels = step.label(X, C)
    if not history:
        assignments = labels
    return KMeansResult(
        centroids=C,
        assignments=assignments,
        inertia=inertia(X, C, labels),
        n_iter=it,
        converged=converged,
        history=history,
        # Pure-numerics runs report no ledger, like serial Lloyd.
        ledger=step.ledger if step.ledger.enabled else None,
        level=step.level,
        fault_events=list(step.injector.events)
        if step.injector is not None else [],
        host_events=list(supervisor.events),
    )
