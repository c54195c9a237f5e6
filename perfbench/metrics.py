"""Turn timings and recorded spans into the benchmark's named metrics.

End-to-end metrics come from the untraced run, per-layer metrics from the
traced one.  Span names are grouped into layers here: a layer's self time
is the summed self time of its spans, and its call count counts only the
spans whose parent belongs to another layer, so a function calling its own
layer (``charge_parallel`` calling ``charge``) counts once.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from tracer import Span

#: Engine host-event kinds reported one by one; any other kind is
#: reported as ``engine.events.other``.
EVENT_KINDS = (
    "task_retry", "task_timeout", "quarantine", "degraded_serial",
    "engine_fallback", "worker_lost", "worker_respawn", "worker_hung",
    "poison_quarantine", "integrity", "integrity_repair",
    "integrity_quarantine", "chaos",
)

TIME_LEDGER_CHARGES = ("ledger.TimeLedger.charge",
                       "ledger.TimeLedger.charge_parallel")
VERIFY = ("integrity.verify_partial", "integrity.verify_combine",
          "integrity.verified_combine")
DIGEST = ("integrity.sha256_array", "integrity.manifest_digests")

#: (layer, predicate on a span name); the first match wins.
LAYERS: Tuple[Tuple[str, Callable[[str], bool]], ...] = (
    ("kernels.gemm", lambda s: s == "kernels.gemm"),
    ("kernels.argmin", lambda s: s == "kernels.argmin"),
    ("kernels.winner", lambda s: s == "kernels.winner"),
    ("pruned.establish", lambda s: s == "kernels.PrunedKernel.establish"),
    ("pruned.sweep",
     lambda s: s == "kernels.PrunedKernel.assign_accumulate_pruned"),
    ("kernels.other", lambda s: s.startswith("kernels.")),
    ("common.accumulate", lambda s: s == "common.accumulate"),
    ("common.validate", lambda s: s == "common.validate_data"),
    ("common.update", lambda s: s == "common.update_centroids"),
    ("common.inertia", lambda s: s == "common.inertia"),
    ("common.sqdist", lambda s: s.startswith("common.squared_distances")),
    ("common.other", lambda s: s.startswith("common.")),
    ("init.kmeanspp", lambda s: s.startswith("init.")),
    ("pruned.bounds", lambda s: s.startswith("bounds.")),
    ("executor.plan", lambda s: s.startswith("partition.")),
    ("ledger.charge", lambda s: s in TIME_LEDGER_CHARGES),
    ("ledger.other", lambda s: s.startswith("ledger.")),
    ("engine.map", lambda s: s.startswith("engine.") and s.endswith(".map")),
    ("engine.share", lambda s: s in ("engine.ExecutionEngine.share",
                                     "engine.publish")),
    ("engine.reduce", lambda s: s in ("engine.ExecutionEngine.reduce_partials",
                                      "engine.ExecutionEngine.map_reduce")),
    ("engine.other", lambda s: s.startswith("engine.")),
    ("reduce.combine", lambda s: s.startswith("reduce.") and "combine" in s),
    ("reduce.other", lambda s: s.startswith("reduce.")),
    ("integrity.verify", lambda s: s in VERIFY),
    ("integrity.seal", lambda s: s == "integrity.seal_partial"),
    ("integrity.crc", lambda s: s == "integrity.crc32_array"),
    ("integrity.digest", lambda s: s in DIGEST),
    ("integrity.other", lambda s: s.startswith("integrity.")),
    ("checkpoint.write", lambda s: s == "checkpoint.write"),
    ("checkpoint.other", lambda s: s.startswith("checkpoint.")),
)


def layer_of(span_name: str) -> str:
    for layer, match in LAYERS:
        if match(span_name):
            return layer
    raise ValueError(f"span {span_name!r} belongs to no layer")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    #: Duration of the outermost spans of the layer (children included).
    inclusive_s: float = 0.0


def layer_stats(spans: Iterable[Span]) -> Dict[str, LayerStats]:
    out: Dict[str, LayerStats] = {layer: LayerStats() for layer, _ in LAYERS}
    cache: Dict[str, str] = {}

    def layer(name: str) -> str:
        hit = cache.get(name)
        if hit is None:
            hit = cache[name] = layer_of(name)
        return hit

    for span in spans:
        entry = out[layer(span.name)]
        entry.self_s += span.duration - span.child_time
        if span.parent is None or layer(span.parent.name) != layer(span.name):
            entry.calls += 1
            entry.inclusive_s += span.duration
    return out


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


@dataclass
class TimedRun:
    """Everything the untraced run measured."""

    n: int
    fit_s: List[float] = field(default_factory=list)
    n_iter: List[int] = field(default_factory=list)
    #: Seconds of every iteration of every fit.
    iteration_s: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def end_to_end(run: TimedRun) -> Dict[str, Tuple[float, str]]:
    """The untraced run's metrics.

    Iteration percentiles pool every iteration of the run: a fit has only
    10 to 40 iterations, too few for a 90th percentile with ten samples
    beyond it.
    """
    fit = median(run.fit_s)
    return {
        "fit_s": (fit, "s"),
        "iter_p50_s": (percentile(run.iteration_s, 50), "s"),
        "iter_p90_s": (percentile(run.iteration_s, 90), "s"),
        "samples_per_s": (run.n * median(run.n_iter) / fit, "1/s"),
        "setup_s": (median(run.setup_s), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


@dataclass
class TracedRun:
    """Everything the traced run measured."""

    spans: List[Span]
    counters: Counter
    #: Summed duration of the main thread's root spans.
    root_s: float
    traced_fit_s: List[float]
    untraced_fit_s: List[float]
    calib_gflops: float
    attempted: int
    failed: int
    env: Dict[str, float]


def per_layer(run: TracedRun) -> Dict[str, Tuple[float, str]]:
    fits = len(run.traced_fit_s)
    layers = layer_stats(run.spans)
    c = run.counters

    def per_fit(value: float) -> float:
        return value / fits

    def self_s(layer: str) -> Tuple[float, str]:
        return per_fit(layers[layer].self_s), "s"

    def calls(layer: str) -> Tuple[float, str]:
        return per_fit(layers[layer].calls), "count"

    gemm_s = layers["kernels.gemm"].self_s
    flops = c["gemm_flops"]
    rows = c["pruned_rows"]
    traced_total = sum(run.traced_fit_s)
    out: Dict[str, Tuple[float, str]] = {
        "kernels.gemm_s": self_s("kernels.gemm"),
        "kernels.gemm_calls": calls("kernels.gemm"),
        "kernels.gemm_gflops": (flops / gemm_s / 1e9 if gemm_s else 0.0,
                                "GFLOP/s"),
        "kernels.calib_gflops": (run.calib_gflops, "GFLOP/s"),
        "kernels.computed_gemm_flops": (per_fit(flops), "flop"),
        "kernels.computed_gemm_bytes": (per_fit(c["gemm_bytes"]), "B"),
        "kernels.argmin_s": self_s("kernels.argmin"),
        "kernels.winner_s": self_s("kernels.winner"),
        "kernels.other_s": self_s("kernels.other"),
        "common.accumulate_s": self_s("common.accumulate"),
        "common.validate_calls": calls("common.validate"),
        "common.validate_s": self_s("common.validate"),
        "common.update_s": self_s("common.update"),
        "common.inertia_s": self_s("common.inertia"),
        "common.sqdist_s": self_s("common.sqdist"),
        "common.other_s": self_s("common.other"),
        "init.kmeanspp_s": (per_fit(layers["init.kmeanspp"].inclusive_s),
                            "s"),
        "pruned.rows_evaluated": (per_fit(c["pruned_rows_evaluated"]),
                                  "count"),
        "pruned.prune_rate": (
            1.0 - c["pruned_rows_evaluated"] / rows if rows else 0.0,
            "ratio"),
        "pruned.establish_s": (
            per_fit(layers["pruned.establish"].inclusive_s), "s"),
        "pruned.sweep_s": self_s("pruned.sweep"),
        "pruned.bounds_s": self_s("pruned.bounds"),
        "ledger.charges": calls("ledger.charge"),
        "ledger.charge_s": self_s("ledger.charge"),
        "executor.plan_s": (per_fit(layers["executor.plan"].inclusive_s),
                            "s"),
        "engine.tasks": (per_fit(c["engine_tasks"]), "count"),
        "engine.map_s": self_s("engine.map"),
        "engine.share_s": self_s("engine.share"),
        "engine.share_bytes": (per_fit(c["share_bytes"]), "B"),
        "engine.reduce_s": self_s("engine.reduce"),
        "engine.other_s": self_s("engine.other"),
        "reduce.combines": calls("reduce.combine"),
        "reduce.combine_s": self_s("reduce.combine"),
        "integrity.verify_calls": calls("integrity.verify"),
        "integrity.verify_s": self_s("integrity.verify"),
        "integrity.seal_s": self_s("integrity.seal"),
        "integrity.crc_bytes": (per_fit(c["crc_bytes"]), "B"),
        "integrity.crc_s": self_s("integrity.crc"),
        "integrity.digest_s": self_s("integrity.digest"),
        "checkpoint.writes": calls("checkpoint.write"),
        "checkpoint.write_s": self_s("checkpoint.write"),
        "checkpoint.bytes": (per_fit(c["checkpoint_bytes"]), "B"),
        "trace.fits": (float(fits), "count"),
        "trace.spans": (per_fit(len(run.spans)), "count"),
        "trace.unattributed_frac": (
            1.0 - run.root_s / traced_total if traced_total else 0.0,
            "ratio"),
        "trace.overhead_frac": (
            median(run.traced_fit_s) / median(run.untraced_fit_s) - 1.0,
            "ratio"),
        "fail_rate": (run.failed / run.attempted, "ratio"),
    }
    for kind in EVENT_KINDS:
        out[f"engine.events.{kind}"] = (per_fit(c[f"event.{kind}"]),
                                        "count")
    other = sum(v for k, v in c.items() if k.startswith("event.")
                and k[len("event."):] not in EVENT_KINDS)
    out["engine.events.other"] = (per_fit(other), "count")
    for key, value in sorted(run.env.items()):
        out[f"env.{key}"] = (float(value), "count")
    return out


def check_declared(emitted: Dict[str, Tuple[float, str]],
                   declared: Sequence[dict]) -> Optional[str]:
    """None when ``emitted`` has exactly the declared names and units."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in emitted.items()}
    if want == got:
        return None
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
    return (f"emitted metrics do not match BENCHMARK.json: missing "
            f"{missing}, undeclared {extra}, unit mismatch {units}")
