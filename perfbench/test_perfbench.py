"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
    LAYERS = json.load(fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _digest(inputs: workloads.Inputs) -> str:
    h = hashlib.sha256(inputs.X.tobytes())
    if inputs.C0 is not None:
        h.update(inputs.C0.tobytes())
    h.update(str(inputs.seed).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path))
    first = _digest(workload.inputs(3))
    assert _digest(workload.inputs(3)) == first
    other = workload.inputs(4)
    assert _digest(other) != first
    assert not np.array_equal(other.X, workload.inputs(3).X)


def _snapshot() -> dict:
    """Every attribute of every loaded repro module and of its classes."""
    out = {}
    for mod_name, module in sorted(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")) \
                or module is None:
            continue
        for key, value in list(vars(module).items()):
            out[(mod_name, key)] = value
            if inspect.isclass(value):
                for attr, member in list(vars(value).items()):
                    out[(mod_name, key, attr)] = member
    return out


def test_tracer_restores_every_wrapped_function():
    import repro.core._common as common
    import repro.core.block_tasks as block_tasks
    import repro.core.kernels as kernels

    Tracer.targets()  # imports every traced module first
    before = _snapshot()
    gemm = kernels.GemmKernel._partial_block
    accumulate = common.accumulate
    tracer = Tracer()
    with tracer:
        assert kernels.GemmKernel._partial_block is not gemm
        assert common.accumulate is not accumulate
        # Imported by name elsewhere: replaced there too.
        assert kernels.accumulate is common.accumulate
        assert block_tasks.resolve_kernel is not before[
            ("repro.core.kernels", "resolve_kernel")]
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_is_restored_after_an_exception():
    import repro.core._common as common

    accumulate = common.accumulate
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert common.accumulate is accumulate


def test_traced_fit_is_bit_identical_and_self_time_adds_up():
    from repro import HierarchicalKMeans, sunway_machine
    from repro.data import gaussian_blobs

    X, _ = gaussian_blobs(3000, 8, 6, seed=5)

    def fit():
        return HierarchicalKMeans(
            8, machine=sunway_machine(1), level=3, kernel="pruned", seed=5,
            max_iter=6, tol=0.0, engine="serial").fit(X)

    workloads.quiet_convergence_warnings()
    plain = fit()
    tracer = Tracer()
    with tracer:
        traced = fit()
    assert workloads.compare_numerics(traced, plain) == []
    assert traced.ledger.total() == plain.ledger.total()
    layers = metrics.layer_stats(tracer.spans)
    assert layers["kernels.gemm"].calls > 0
    assert layers["pruned.sweep"].calls > 0
    assert layers["common.validate"].calls > 0
    for stats in layers.values():
        assert 0.0 <= stats.self_s <= stats.inclusive_s + 1e-9 \
            or stats.calls == 0
    assert tracer.counters["pruned_rows"] > 0


def test_only_the_fit_is_traced_not_its_check():
    import repro.core._common as common

    X = np.arange(12.0).reshape(6, 2)

    class Probe:
        max_iter = 1

        def fit(self, model, inputs, max_iter):
            common.max_centroid_shift(X, X)
            return SimpleNamespace(result=None)

        def check(self, outcome, ref, first):
            common.even_slices(10, 2)
            return []

    tracer = Tracer()
    loop = run.Loop(Probe(), inputs=None, ref=None)
    assert loop.fit(tracer) is not None
    assert [span.name for span in tracer.spans] == [
        "common.max_centroid_shift"]
    assert loop.failed == 0


def test_share_bytes_count_copies_not_identity_republishes():
    from repro.runtime.engine import resolve_engine, shutdown_pools
    from repro.runtime.process_engine import ProcessEngine

    engine = resolve_engine("process", 2)
    assert isinstance(engine, ProcessEngine)
    X = np.ones((100, 4))
    C = np.ones((3, 4))
    try:
        engine.share("X", X)
        tracer = Tracer()
        with tracer:
            engine.share("X", X)  # the same array again: nothing copied
            engine.share("C", C)
            engine.share("C", C * 2.0)  # new values: copied
        assert tracer.counters["share_bytes"] == 2 * C.nbytes
        layers = metrics.layer_stats(tracer.spans)
        assert layers["engine.share"].calls == 3
    finally:
        shutdown_pools(wait=True)


def _small_l0(tmp_path):
    workload = workloads.FlagshipL0Process(str(tmp_path))
    workload.shape = dict(n=2000, k=8, d=4)
    workload.max_iter = 2
    inputs = workload.inputs(7)
    return workload, run.Loop(workload, inputs, workload.reference(inputs))


def test_process_workload_with_one_worker_fails(tmp_path, monkeypatch):
    # One CPU makes resolve_engine fall back to the serial engine: the
    # run must say so, not pass as a process-engine run.
    monkeypatch.setattr(workloads, "cpu_workers", lambda: 1)
    workload, loop = _small_l0(tmp_path)
    try:
        loop.setup()
        assert any(p.startswith("engine_fallback") for p in loop.problems)
        loop.fit()
    finally:
        workload.close()
    assert loop.attempted == 1 and loop.failed == 1
    assert any("not the process engine" in p for p in loop.problems)


@pytest.mark.skipif(workloads.cpu_workers() < 2,
                    reason="the process engine needs two CPUs")
def test_process_workload_with_two_workers_passes(tmp_path):
    workload, loop = _small_l0(tmp_path)
    try:
        loop.setup()
        loop.fit()
    finally:
        workload.close()
    assert loop.problems == [] and loop.failed == 0


def test_stop_children_reaps_the_tracker_and_reports_strays():
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=16)
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker._pid
    stray = subprocess.Popen(["sleep", "60"])
    problems = run.stop_children()
    assert tracker not in run.child_pids() and run.child_pids() == []
    assert problems == [f"child process {stray.pid} outlived the run"]
    with pytest.raises(ChildProcessError):
        os.waitpid(tracker, os.WNOHANG)


def _emitted_names():
    timed = metrics.TimedRun(n=10, fit_s=[1.0], n_iter=[2],
                             iteration_s=[0.5, 0.5], setup_s=[0.1],
                             peak_rss_mb=1.0)
    traced = metrics.TracedRun(
        spans=[], counters=Counter({"event.worker_lost": 1,
                                    "event.unheard_of": 1}),
        root_s=0.0, traced_fit_s=[1.0], untraced_fit_s=[1.0],
        calib_gflops=1.0, attempted=1, failed=0,
        env={"cpu_count": 2, "workers": 2, "blas_threads": 1})
    return metrics.end_to_end(timed), metrics.per_layer(traced)


def test_every_emitted_metric_is_declared():
    e2e, layers = _emitted_names()
    assert metrics.check_declared(e2e, SPEC["end_to_end"]) is None
    assert metrics.check_declared(layers, SPEC["per_layer"]) is None
    assert layers["engine.events.other"][0] == 1


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    seen = set(names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        assert m["name"] not in seen
        seen.add(m["name"])


def test_layers_json_predicts_declared_metrics_on_declared_workloads():
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert list(LAYERS["metrics"]) == per_layer
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = set(workloads.WORKLOADS)
    for entry in LAYERS["metrics"].values():
        for move in entry["moves"]:
            assert move["metric"] in e2e
            assert set(move["workloads"]) <= names
        assert set(entry["unchanged_on"]) <= names


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_prints_the_declared_metrics(trace):
    out = _run(ROOT, "--workload", "converge-l3-pruned", "--seed", "2",
               "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "flagship-l2-serial", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
