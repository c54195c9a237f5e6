"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps functions of the ``repro`` package from the benchmark
process and restores them afterwards; no program code knows it exists.
Each call of a wrapped function becomes a span with a name, a start, an
end and the span that caused it (the innermost open span of the same
thread).  Spans stay in memory, each with the summed duration of its
direct children, so its self time is its duration minus that sum;
:mod:`metrics` folds the spans into layers.

What gets wrapped:

* every public function defined in the traced modules, and every public
  method defined by a public class in them (and by the subclasses of
  those classes that override it), under the span name
  ``<layer>.<function>`` or ``<layer>.<Class>.<method>``;
* a few methods that are the only boundary of a layer the benchmark
  reports: the GEMM, argmin and winner blocks of the kernels, the
  durable checkpoint write and the shared-memory publish of the process
  engine, which is where ``share()`` copies bytes.

Because modules import functions by name (``from ._common import
accumulate``), a module function is replaced in every loaded ``repro``
module that holds the same object, not only in the module defining it.
Default argument values bound at definition time still point at the
original; the reduce layer is traced through the carriers' ``combine``
methods for that reason.

Work that runs in forked process-engine workers is invisible here: only
the parent's spans are recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Traced modules and the layer prefix of their span names.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.core.kernels", "kernels"),
    ("repro.core._common", "common"),
    ("repro.core.init", "init"),
    ("repro.core.bounds", "bounds"),
    ("repro.core.partition", "partition"),
    ("repro.runtime.ledger", "ledger"),
    ("repro.runtime.engine", "engine"),
    ("repro.runtime.process_engine", "engine"),
    ("repro.runtime.reduce", "reduce"),
    ("repro.runtime.integrity", "integrity"),
    ("repro.core.checkpoint", "checkpoint"),
)

#: Span names whose arguments or results carry a count worth keeping.
GEMM = "kernels.gemm"
PRUNED_SWEEP = "kernels.PrunedKernel.assign_accumulate_pruned"
PUBLISH = "engine.publish"
CHECKPOINT_WRITE = "checkpoint.write"
CRC = "integrity.crc32_array"
DRAIN = "engine.ExecutionEngine.drain_events"
MAP_SPANS = ("engine.SerialEngine.map", "engine.ThreadEngine.map",
             "engine.ProcessEngine.map")

#: Methods that are a layer boundary although the traced modules do not
#: make them public: (module, class, method, span).
SEAMS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.kernels", "GemmKernel", "_partial_block", "kernels.gemm"),
    ("repro.core.kernels", "GemmKernel", "_argmin_best_block",
     "kernels.argmin"),
    ("repro.core.kernels", "KernelBackend", "_argmin_best_block",
     "kernels.argmin"),
    ("repro.core.kernels", "GemmKernel", "_winner_sq_block",
     "kernels.winner"),
    ("repro.core.checkpoint", "CheckpointStore", "_persist",
     "checkpoint.write"),
    ("repro.runtime.shm", "SharedArena", "publish", PUBLISH),
)


@dataclass
class Span:
    """One call of a wrapped function."""

    name: str
    start: float
    parent: Optional["Span"]
    thread: int
    end: float = 0.0
    child_time: float = 0.0
    #: What the span's before-hook recorded, if it has one.
    before: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _owned_functions(cls: type) -> List[Tuple[str, Callable[..., Any]]]:
    """Public plain functions defined in ``cls`` itself (not inherited)."""
    return [(key, value) for key, value in vars(cls).items()
            if not key.startswith("_") and inspect.isfunction(value)]


def _all_subclasses(cls: type) -> List[type]:
    out: List[type] = []
    stack = list(cls.__subclasses__())
    while stack:
        sub = stack.pop()
        if sub not in out:
            out.append(sub)
            stack.extend(sub.__subclasses__())
    return out


class Tracer:
    """Wraps the traced functions while installed; records their spans.

    Use as a context manager around the traced work: entering installs
    the wrappers, leaving restores every original object.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.gemm_shapes: Counter = Counter()
        #: (owner, attribute, original) of every installed patch.
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- targets ---------------------------------------------------------------

    @staticmethod
    def targets() -> List[Tuple[Any, str, Callable[..., Any], str]]:
        """(owner, attribute, function, span name) for every wrap site.

        Module functions appear once per loaded ``repro`` module that
        holds them; methods once per class that defines them.
        """
        for module_name in sorted({m for m, _ in MODULE_LAYERS}
                                  | {m for m, _, _, _ in SEAMS}):
            importlib.import_module(module_name)
        repro_modules = [m for name, m in sorted(sys.modules.items())
                         if (name == "repro" or name.startswith("repro."))
                         and m is not None]
        functions: Dict[int, Tuple[Callable[..., Any], str]] = {}
        methods: Dict[Tuple[type, str], str] = {}
        for module_name, layer in MODULE_LAYERS:
            module = sys.modules[module_name]
            for key, value in vars(module).items():
                if key.startswith("_") or getattr(
                        value, "__module__", None) != module_name:
                    continue
                if inspect.isfunction(value):
                    functions[id(value)] = (value, f"{layer}.{key}")
                elif inspect.isclass(value):
                    for cls in [value] + _all_subclasses(value):
                        for meth, _fn in _owned_functions(cls):
                            methods.setdefault(
                                (cls, meth), f"{layer}.{cls.__name__}.{meth}")
        for module_name, cls_name, meth, span in SEAMS:
            cls = getattr(sys.modules[module_name], cls_name)
            methods[(cls, meth)] = span

        out: List[Tuple[Any, str, Callable[..., Any], str]] = []
        for module in repro_modules:
            for key, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    out.append((module, key, value, hit[1]))
        for (cls, meth), span in sorted(
                methods.items(), key=lambda kv: kv[1]):
            out.append((cls, meth, vars(cls)[meth], span))
        return out

    # -- install / restore -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: Dict[int, Callable[..., Any]] = {}
        try:
            for owner, key, fn, span in self.targets():
                wrapper = wrappers.get(id(fn))
                if wrapper is None:
                    wrapper = wrappers[id(fn)] = self._wrap(fn, span)
                self._patches.append((owner, key, fn))
                setattr(owner, key, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # -- spans -------------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        hook = _HOOKS.get(name)
        before = _BEFORE_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(name, 0.0, parent, threading.get_ident())
            stack.append(span)
            if before is not None:
                span.before = before(args)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
                with self._lock:
                    self.spans.append(span)
            if hook is not None:
                hook(self, span, args, result)
            return result

        return traced

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def root_seconds(self) -> float:
        """Summed duration of the main thread's outermost spans."""
        return sum(span.duration for span in self.spans
                   if span.parent is None and span.thread == self._main)


# -- per-span counters ---------------------------------------------------------

def _gemm(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    # GemmKernel._partial_block(self, block, C, ctx)
    block, C = args[1], args[2]
    rows, d = block.shape
    k = C.shape[0]
    with tracer._lock:
        tracer.gemm_shapes[(rows, k, d)] += 1
        tracer.counters["gemm_flops"] += 2 * rows * k * d
        # Read the block and C, write the (rows, k) result: computed from
        # the operand shapes, not measured.
        tracer.counters["gemm_bytes"] += block.itemsize * (
            rows * d + k * d + rows * k)
        if span.parent is not None and span.parent.name == PRUNED_SWEEP:
            tracer.counters["pruned_rows_evaluated"] += rows


def _pruned_sweep(tracer: Tracer, span: Span, args: tuple,
                  result: Any) -> None:
    # PrunedKernel.assign_accumulate_pruned(self, X, ...)
    tracer.count("pruned_rows", args[1].shape[0])


def _before_publish(args: tuple) -> Any:
    # SharedArena.publish(self, key, array): the segment view before.
    return args[0].view(args[1])


def _publish(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    # A copy into the segment leaves a new view behind; re-publishing the
    # array last published under the key (the per-iteration X) copies
    # nothing and leaves the view as it was.
    view = args[0].view(args[1])
    if view is not span.before:
        tracer.count("share_bytes", view.nbytes)


def _checkpoint_write(tracer: Tracer, span: Span, args: tuple,
                      result: Any) -> None:
    # CheckpointStore._persist(self, checkpoint)
    tracer.count("checkpoint_bytes", args[1].nbytes)


def _crc(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    tracer.count("crc_bytes", getattr(args[0], "nbytes", 0))


def _drain(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    for kind, _detail, _seconds in result:
        tracer.count(f"event.{kind}")


def _count_tasks(tracer: Tracer, span: Span, args: tuple,
                 result: Any) -> None:
    # map() returns one result per item, in submission order.
    if span.parent is None or span.parent.name not in MAP_SPANS:
        tracer.count("engine_tasks", len(result))


_BEFORE_HOOKS: Dict[str, Callable[[tuple], Any]] = {
    PUBLISH: _before_publish,
}

_HOOKS: Dict[str, Callable[[Tracer, Span, tuple, Any], None]] = {
    GEMM: _gemm,
    PRUNED_SWEEP: _pruned_sweep,
    PUBLISH: _publish,
    CHECKPOINT_WRITE: _checkpoint_write,
    CRC: _crc,
    DRAIN: _drain,
    **{name: _count_tasks for name in MAP_SPANS},
}
