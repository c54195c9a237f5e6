"""Host wall-clock benchmark of the repro package, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload flagship-l2-serial --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped: the
median fit time, per-iteration times, throughput, set-up time and peak
memory.  ``--trace 1`` is a separate run that alternates untraced fits with
fits under the outside-in tracer (:mod:`tracer`) and reports the per-layer
metrics.  Both modes compare every fit against an untimed reference and
print, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units are the ones
``BENCHMARK.json`` declares, and ``perfbench/layers.json`` records which
end-to-end metric on which workload each per-layer metric should move.

The BLAS thread count is recorded, never set: pinning it would hide the
contention between engine workers and BLAS threads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from metrics import (TimedRun, TracedRun, check_declared, end_to_end,
                     per_layer)
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Fewest timed fits per run, whatever ``--seconds`` says.
MIN_FITS = 3
#: Fewest fits of each kind (traced, untraced) in a traced run.
MIN_TRACED_FITS = 2
#: Seconds the matmul calibration runs.
CALIBRATION_S = 0.3


def declared_metrics() -> Dict[str, List[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"0": spec["end_to_end"], "1": spec["per_layer"]}


def blas_threads() -> Tuple[int, str]:
    """OpenBLAS's thread count via the bundled library (0 if not found)."""
    import numpy as np

    libs = sorted(glob.glob(os.path.join(
        os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*.so")))
    if not libs:
        return 0, ""
    lib = ctypes.CDLL(libs[0])
    get = lib.scipy_openblas_get_num_threads64_
    get.argtypes = []
    get.restype = ctypes.c_int
    return int(get()), os.path.basename(libs[0])


def environment(workers: int) -> Dict[str, Any]:
    import numpy as np

    threads, library = blas_threads()
    return {"cpu_count": os.cpu_count() or 1, "workers": workers,
            "blas_threads": threads, "blas_library": library,
            "numpy": np.__version__, "python": platform.python_version()}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child.

    ``RUSAGE_CHILDREN`` reports the peak of the single largest reaped
    descendant, not a sum over the workers.  A sum would not be the
    memory in use either: forked workers share the parent's pages
    copy-on-write and the published operands through shared memory, and
    each worker's resident set counts those pages again.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def calibrate_gflops(shape: Tuple[int, int, int]) -> float:
    """Plain matmul rate at one GEMM block shape (rows, k, d)."""
    import numpy as np

    rows, k, d = shape
    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, d))
    b = rng.standard_normal((k, d))
    out = np.empty((rows, k))
    np.matmul(a, b.T, out=out)
    times = []
    end = time.perf_counter() + CALIBRATION_S
    while time.perf_counter() < end or len(times) < 5:
        t0 = time.perf_counter()
        np.matmul(a, b.T, out=out)
        times.append(time.perf_counter() - t0)
    times.sort()
    return 2.0 * rows * k * d / times[len(times) // 2] / 1e9


def child_pids() -> List[int]:
    """Processes this one started that have not been reaped yet."""
    pids: List[int] = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path, encoding="ascii") as fh:
            pids.extend(int(pid) for pid in fh.read().split())
    return pids


def stop_children() -> List[str]:
    """Stop and reap every child process; a problem for each unexpected one.

    The first shared-memory segment starts the stdlib's resource tracker,
    a child meant to outlive this process; it is stopped here, after the
    pools and arenas are released.  Any other child still alive is a
    worker the package failed to stop: it is killed and reported.
    """
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is not None:
        tracker = tracker_module._resource_tracker
        if getattr(tracker, "_pid", None) is not None:
            tracker._stop()
    problems = []
    for pid in child_pids():
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
        problems.append(f"child process {pid} outlived the run")
    return problems


class Loop:
    """The closed loop's bookkeeping: attempts, failures, problems."""

    def __init__(self, workload: Any, inputs: Any, ref: Any) -> None:
        self.workload = workload
        self.inputs = inputs
        self.ref = ref
        #: What the workload's last set-up built.
        self.model: Any = None
        self.first: Optional[Any] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fit(self, tracer: Optional[Tracer] = None
            ) -> Optional[Tuple[float, Any]]:
        """One checked fit; (seconds, outcome) unless it raised.

        With ``tracer`` the fit alone runs under it: the check is the
        benchmark's own work and records no spans.
        """
        gc.collect()
        self.attempted += 1
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                outcome = self.workload.fit(self.model, self.inputs,
                                            self.workload.max_iter)
                took = time.perf_counter() - t0
        except Exception as exc:  # a failed fit is counted, not fatal
            self.failed += 1
            self.problems.append(f"fit raised {type(exc).__name__}: {exc}")
            return None
        problems = self.workload.check(outcome, self.ref, self.first)
        if self.first is None:
            self.first = outcome.result
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return took, outcome

    def setup(self) -> List[float]:
        """Build and warm up SETUPS times; keeps the last model."""
        times = []
        for i in range(SETUPS):
            if i:
                # Release the previous pool so every set-up pays its fork.
                self.workload.close()
            gc.collect()
            t0 = time.perf_counter()
            self.model = self.workload.build(self.inputs)
            problems = self.workload.warmup(self.model, self.inputs)
            times.append(time.perf_counter() - t0)
            self.problems.extend(problems)
        return times


def run_untraced(loop: Loop, seconds: float, n: int) -> Dict[str, Any]:
    run = TimedRun(n=n, setup_s=loop.setup())
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or loop.attempted < MIN_FITS:
        done = loop.fit()
        if done is not None:
            took, outcome = done
            run.fit_s.append(took)
            run.n_iter.append(outcome.result.n_iter)
            run.iteration_s.extend(outcome.iteration_s)
    loop.workload.close()
    run.peak_rss_mb = peak_rss_mb()
    print(f"fits {len(run.fit_s)}, iterations {len(run.iteration_s)}, "
          f"set-ups {len(run.setup_s)}")
    return end_to_end(run) if run.fit_s else {}


def run_traced(loop: Loop, seconds: float, env: Dict[str, Any]
               ) -> Dict[str, Any]:
    loop.setup()
    tracer = Tracer()
    originals = [(owner, key, fn) for owner, key, fn, _ in tracer.targets()]
    untraced: List[float] = []
    traced: List[float] = []
    deadline = time.perf_counter() + seconds
    # Alternate so drift on the host hits both sides alike.
    while (time.perf_counter() < deadline or len(traced) < MIN_TRACED_FITS
           or len(untraced) < MIN_TRACED_FITS):
        done = loop.fit()
        if done is not None:
            untraced.append(done[0])
        done = loop.fit(tracer)
        if done is not None:
            traced.append(done[0])
    loop.workload.close()
    restored = all(getattr(owner, key) is fn for owner, key, fn in originals)
    if not restored:
        loop.failed += 1
        loop.problems.append("tracer left a wrapped function behind")
    shapes = tracer.gemm_shapes.most_common(1)
    gemm_shape = shapes[0][0] if shapes else (4096, 256, 64)
    run = TracedRun(
        spans=tracer.spans, counters=tracer.counters,
        root_s=tracer.root_seconds(),
        traced_fit_s=traced, untraced_fit_s=untraced,
        calib_gflops=calibrate_gflops(gemm_shape),
        attempted=loop.attempted, failed=loop.failed,
        env={k: env[k] for k in ("cpu_count", "workers", "blas_threads")})
    print(f"traced fits {len(traced)}, untraced fits {len(untraced)}, "
          f"calibration block {gemm_shape}")
    return per_layer(run) if traced and untraced else {}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    # The workloads pass every knob explicitly; no ambient REPRO_* default
    # (engine, kernel, chaos, integrity) may change what runs.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics()[args.trace]
    workloads.quiet_convergence_warnings()
    env = environment(workloads.cpu_workers())
    print("env " + json.dumps(env, sort_keys=True))

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    workload = workloads.WORKLOADS[args.workload](workdir)
    try:
        inputs = workload.inputs(args.seed)
        loop = Loop(workload, inputs, workload.reference(inputs))
        if args.trace == "0":
            emitted = run_untraced(loop, args.seconds, workload.shape["n"])
        else:
            emitted = run_traced(loop, args.seconds, env)
    finally:
        # Stops and reaps any worker processes before the run exits.
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        leftovers = stop_children()
    loop.problems.extend(leftovers)

    mismatch = check_declared(emitted, declared)
    if mismatch is not None and not loop.problems:
        print(f"error: {mismatch}", file=sys.stderr)
        return 1
    for problem in sorted(set(loop.problems)):
        print(f"problem: {problem}")
    for name, (value, unit) in emitted.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": (loop.failed == 0 and not loop.problems
                    and mismatch is None),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in emitted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
