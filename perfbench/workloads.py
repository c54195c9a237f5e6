"""The benchmark's workloads: seeded inputs, set-up, one fit, reference, check.

Every workload drives the public API in one process as a closed loop: one
caller, and the next fit starts when the last one returns.  Inputs come
from the package's seeded generators in :mod:`repro.data`; making them is
never timed.  Each workload also knows its untimed reference, computed
through a path the package guarantees bit-identical to the timed one, and
how to compare a timed fit against it.

Per-iteration wall times come from the supervisor's public watchdog hook:
a threshold far below any iteration makes every iteration a
``slow_iteration`` host event carrying its measured seconds.
"""

from __future__ import annotations

import os
import shutil
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import HierarchicalKMeans, lloyd, sunway_machine
from repro.core.checkpoint import load_checkpoint
from repro.data import gaussian_blobs, uniform_cloud
from repro.errors import ConvergenceWarning
from repro.runtime.engine import resolve_engine, shutdown_pools
from repro.runtime.process_engine import ProcessEngine

#: Watchdog threshold below any real iteration time, so every iteration is
#: reported with its seconds.
EVERY_ITERATION_S = 1e-9

#: Flagship shape of the paper's evaluation (ROADMAP aim 1).
FLAGSHIP = dict(n=100_000, k=256, d=64)
FLAGSHIP_ITERS = 10

#: Small shape for the convergence loop.
SMALL = dict(n=200_000, k=32, d=16)
#: Iteration cap of the small shape.  Its data is a structureless uniform
#: cloud, not Gaussian blobs: on blobs the k-means trajectory, and with it
#: the work pruning saves, is a chaotic function of the seed.  Measured on
#: 2 CPUs, the median fit time over seeds spread by 13-16% (quartile
#: distance over median) and the 90th-percentile iteration by 25-30%, with
#: the iterations to an exact fixed point ranging from 4 to 125 at the
#: generator's default blob spread.  On the uniform cloud no seed converges
#: within the cap, every iteration still runs the tol=0 convergence test,
#: and the two spreads fall to about 7% and 8%.
SMALL_MAX_ITER = 40


def cpu_workers() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass
class Inputs:
    X: np.ndarray
    #: Explicit starting centroids, or None for the model's own kmeans++.
    C0: Optional[np.ndarray]
    seed: int


@dataclass
class FitOutcome:
    result: Any
    #: Seconds of every iteration, from the watchdog events.
    iteration_s: List[float]


def _iteration_seconds(result: Any) -> List[float]:
    return [e.seconds for e in result.host_events
            if e.kind == "slow_iteration"]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def compare_numerics(result: Any, ref: Any) -> List[str]:
    """Centroids, labels and inertia must match the reference bit for bit."""
    problems = []
    if not _same_bits(result.centroids, ref.centroids):
        problems.append("centroids differ from the reference")
    if not _same_bits(result.assignments, ref.assignments):
        problems.append("labels differ from the reference")
    if np.float64(result.inertia).tobytes() != \
            np.float64(ref.inertia).tobytes():
        problems.append(
            f"inertia {result.inertia!r} != reference {ref.inertia!r}")
    if result.n_iter != ref.n_iter:
        problems.append(
            f"n_iter {result.n_iter} != reference {ref.n_iter}")
    return problems + fallback_problems(result)


def fallback_problems(result: Any) -> List[str]:
    """A fit that fell back to another engine did not run the named one."""
    return [f"engine_fallback: {e.detail}" for e in result.host_events
            if e.kind == "engine_fallback"]


def ledger_total(result: Any) -> Optional[float]:
    return None if result.ledger is None else result.ledger.total()


class Workload:
    """One benchmark workload; subclasses fill in the API calls."""

    name = ""
    why = ""
    #: Samples, centroids, dimensions.
    shape: Dict[str, int] = {}

    def __init__(self, workdir: str) -> None:
        #: Directory the workload may write to (checkpoints).
        self.workdir = workdir

    def inputs(self, seed: int) -> Inputs:
        X, _ = gaussian_blobs(self.shape["n"], self.shape["k"],
                              self.shape["d"], seed=seed)
        rng = np.random.default_rng([seed, 1])
        pick = np.sort(rng.choice(X.shape[0], self.shape["k"],
                                  replace=False))
        return Inputs(X=X, C0=np.array(X[pick], copy=True), seed=seed)

    def build(self, inputs: Inputs) -> Any:
        """Model construction: everything a fit needs besides the data."""
        raise NotImplementedError

    def fit(self, model: Any, inputs: Inputs, max_iter: int) -> FitOutcome:
        raise NotImplementedError

    def warmup(self, model: Any, inputs: Inputs) -> List[str]:
        """The one-iteration fit that set-up includes; its problems."""
        return fallback_problems(self.fit(model, inputs, max_iter=1).result)

    def reference(self, inputs: Inputs) -> Any:
        raise NotImplementedError

    def check(self, outcome: FitOutcome, ref: Any,
              first: Optional[Any]) -> List[str]:
        """Problems with one timed fit; ``first`` is the run's first fit."""
        problems = compare_numerics(outcome.result, ref)
        if len(outcome.iteration_s) != outcome.result.n_iter:
            problems.append(
                f"{len(outcome.iteration_s)} iteration times for "
                f"{outcome.result.n_iter} iterations")
        if first is not None and (ledger_total(outcome.result)
                                  != ledger_total(first)):
            problems.append(
                f"ledger total {ledger_total(outcome.result)!r} differs "
                f"from the run's first fit {ledger_total(first)!r}")
        return problems

    def close(self) -> None:
        """Release what :meth:`build` acquired (process pools)."""


class FacadeWorkload(Workload):
    """A workload fitted through :class:`HierarchicalKMeans`."""

    def _model(self, inputs: Inputs, max_iter: int,
               **overrides: Any) -> HierarchicalKMeans:
        raise NotImplementedError

    def build(self, inputs: Inputs) -> Callable[[int], HierarchicalKMeans]:
        # The facade fixes max_iter at construction, so the built "model"
        # is its constructor; the warm-up and the timed fits each call it.
        self._model(inputs, self.max_iter)
        return lambda max_iter: self._model(inputs, max_iter)

    def fit(self, model: Any, inputs: Inputs, max_iter: int) -> FitOutcome:
        result = model(max_iter).fit(inputs.X)
        return FitOutcome(result, _iteration_seconds(result))


class FlagshipL2Serial(FacadeWorkload):
    """The paper's flagship on Level 2 with modelled costs, serial engine."""

    name = "flagship-l2-serial"
    why = ("flagship n=100k k=256 d=64 on Level 2 with the ledger; GEMM "
           "and accumulate dominate, no engine, integrity or checkpoint work")
    shape = FLAGSHIP
    max_iter = FLAGSHIP_ITERS

    def _model(self, inputs: Inputs, max_iter: int,
               **overrides: Any) -> HierarchicalKMeans:
        kwargs: Dict[str, Any] = dict(
            machine=sunway_machine(1), level=2, init=inputs.C0,
            max_iter=max_iter, tol=0.0, kernel="gemm", engine="serial",
            integrity="off", model_costs=True,
            watchdog_s=EVERY_ITERATION_S)
        kwargs.update(overrides)
        return HierarchicalKMeans(self.shape["k"], **kwargs)

    def reference(self, inputs: Inputs) -> Any:
        # model_costs=False runs the same numerics against a NullLedger.
        return self._model(inputs, self.max_iter, model_costs=False,
                           watchdog_s=None).fit(inputs.X)

    def check(self, outcome: FitOutcome, ref: Any,
              first: Optional[Any]) -> List[str]:
        problems = super().check(outcome, ref, first)
        total = ledger_total(outcome.result)
        if total is None or not total > 0.0:
            problems.append(f"modelled ledger total is {total!r}")
        return problems


class FlagshipL0Process(Workload):
    """Serial Lloyd on the process engine with integrity and checkpoints."""

    name = "flagship-l0-process"
    why = ("flagship shape through lloyd on the process engine with "
           "integrity=verify and a durable checkpoint every iteration")
    shape = FLAGSHIP
    max_iter = FLAGSHIP_ITERS

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        self.checkpoint_dir = os.path.join(workdir, "checkpoints")
        self.engine: Any = None

    def build(self, inputs: Inputs) -> Any:
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
        os.makedirs(self.checkpoint_dir)
        # With fewer than two CPUs, or without fork, resolve_engine falls
        # back to the serial engine.  Its engine_fallback event goes to the
        # warm-up fit; every timed fit on that engine fails its check.
        self.engine = resolve_engine("process", cpu_workers(),
                                     integrity="verify")
        return self.engine

    def fit(self, model: Any, inputs: Inputs, max_iter: int) -> FitOutcome:
        result = lloyd(inputs.X, inputs.C0, max_iter=max_iter, tol=0.0,
                       kernel="gemm", engine=model, integrity="verify",
                       checkpoint_every=1,
                       checkpoint_dir=self.checkpoint_dir,
                       watchdog_s=EVERY_ITERATION_S)
        return FitOutcome(result, _iteration_seconds(result))

    def reference(self, inputs: Inputs) -> Any:
        return lloyd(inputs.X, inputs.C0, max_iter=self.max_iter, tol=0.0,
                     kernel="gemm", engine="serial", integrity="off")

    def check(self, outcome: FitOutcome, ref: Any,
              first: Optional[Any]) -> List[str]:
        problems = super().check(outcome, ref, first)
        snapshot = load_checkpoint(self.checkpoint_dir, integrity="verify")
        if snapshot is None:
            problems.append("no durable checkpoint was written")
        elif (snapshot.iteration != outcome.result.n_iter
              or not _same_bits(snapshot.centroids,
                                outcome.result.centroids)):
            problems.append(
                f"durable checkpoint at iteration {snapshot.iteration} "
                f"does not hold the final centroids")
        if outcome.result.ledger is not None:
            problems.append("level 0 returned a ledger")
        if not isinstance(self.engine, ProcessEngine):
            problems.append(
                f"engine_fallback: ran on {type(self.engine).__name__}, "
                f"not the process engine")
        return problems

    def close(self) -> None:
        shutdown_pools(wait=True)


class ConvergeL3Pruned(FacadeWorkload):
    """Level 3 with the pruned kernel and the default kmeans++ init."""

    name = "converge-l3-pruned"
    why = ("small n=200k k=32 d=16 uniform cloud on Level 3, pruned kernel, "
           "kmeans++ init, 40-iteration cap: bound tests, accumulate and "
           "kmeans++ lead, GEMM is a minor share")
    shape = SMALL
    max_iter = SMALL_MAX_ITER

    def inputs(self, seed: int) -> Inputs:
        X = uniform_cloud(self.shape["n"], self.shape["d"], seed=seed)
        return Inputs(X=X, C0=None, seed=seed)

    def _model(self, inputs: Inputs, max_iter: int,
               **overrides: Any) -> HierarchicalKMeans:
        kwargs: Dict[str, Any] = dict(
            machine=sunway_machine(1), level=3, seed=inputs.seed,
            max_iter=max_iter, tol=0.0, kernel="pruned", engine="serial",
            integrity="off", watchdog_s=EVERY_ITERATION_S)
        kwargs.update(overrides)
        return HierarchicalKMeans(self.shape["k"], **kwargs)

    def reference(self, inputs: Inputs) -> Any:
        # The pruned kernel is bit-identical to gemm in every executor.
        return self._model(inputs, self.max_iter, kernel="gemm",
                           watchdog_s=None).fit(inputs.X)

    def check(self, outcome: FitOutcome, ref: Any,
              first: Optional[Any]) -> List[str]:
        problems = super().check(outcome, ref, first)
        got = outcome.result.ledger.total_by_category()
        want = ref.ledger.total_by_category()
        # Pruning charges work done: only the compute row may differ, and
        # it must be smaller.
        for category in sorted(want):
            if category == "compute":
                if not got[category] < want[category]:
                    problems.append(
                        f"pruned compute charge {got[category]!r} is not "
                        f"below gemm's {want[category]!r}")
            elif got[category] != want[category]:
                problems.append(
                    f"ledger category {category!r}: {got[category]!r} != "
                    f"gemm reference {want[category]!r}")
        return problems


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (FlagshipL2Serial, FlagshipL0Process,
                              ConvergeL3Pruned)
}


def quiet_convergence_warnings() -> None:
    """Capped runs warn by design; the check compares n_iter instead."""
    warnings.simplefilter("ignore", ConvergenceWarning)
