"""Tests for the serial Lloyd baseline."""

import warnings

import numpy as np
import pytest

from repro.core._common import assign_chunked, inertia
from repro.core.init import init_centroids
from repro.core.level1 import run_level1
from repro.core.level2 import run_level2
from repro.core.level3 import run_level3
from repro.core.lloyd import lloyd, lloyd_single_iteration
from repro.data.synthetic import gaussian_blobs
from repro.errors import ConfigurationError, ConvergenceWarning
from repro.machine.machine import toy_machine

_MACHINE = toy_machine(n_nodes=2, cgs_per_node=2, mesh=2,
                       ldm_bytes=64 * 1024)

#: Serial Lloyd (level 0) and the partition levels, keyed by level.
_RUNNERS = {
    0: lloyd,
    1: lambda X, C0, **kw: run_level1(X, C0, _MACHINE, **kw),
    2: lambda X, C0, **kw: run_level2(X, C0, _MACHINE, **kw),
    3: lambda X, C0, **kw: run_level3(X, C0, _MACHINE, **kw),
}


@pytest.fixture
def blobs():
    X, labels = gaussian_blobs(n=500, k=5, d=6, spread=0.02, seed=7)
    return X, labels


class TestConvergence:
    def test_converges_on_separated_blobs(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="kmeans++", seed=7)
        result = lloyd(X, C0, max_iter=100)
        assert result.converged
        assert result.n_iter < 100

    def test_fixed_point_is_stable(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="kmeans++", seed=7)
        result = lloyd(X, C0)
        again = lloyd(X, result.centroids, max_iter=2)
        assert again.n_iter == 1
        np.testing.assert_allclose(again.centroids, result.centroids)

    def test_inertia_never_increases(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        result = lloyd(X, C0, max_iter=50)
        inertias = [s.inertia for s in result.history]
        assert all(b <= a + 1e-12 for a, b in zip(inertias, inertias[1:]))

    def test_max_iter_respected(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        with pytest.warns(ConvergenceWarning):
            result = lloyd(X, C0, max_iter=2)
        assert result.n_iter <= 2

    def test_unconverged_run_warns(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        with pytest.warns(ConvergenceWarning, match="did not converge"):
            lloyd(X, C0, max_iter=1)

    def test_converged_run_does_not_warn(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="kmeans++", seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            result = lloyd(X, C0, max_iter=100)
        assert result.converged

    def test_tol_loosens_convergence(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        tight = lloyd(X, C0, tol=0.0)
        loose = lloyd(X, C0, tol=1.0)
        assert loose.n_iter <= tight.n_iter

    def test_final_inertia_is_true_objective_with_tol(self) -> None:
        # A tol > 0 stop halts one Update past the last Assign, so the held
        # labels can be stale against the final centroids; result.inertia
        # must still be the true objective O(C) under nearest-centroid
        # labels, exactly as the pre-fused implementation computed it —
        # on serial Lloyd and on every partition level alike.  Overlapping
        # blobs, so the stop really does leave stale labels.
        X, _ = gaussian_blobs(n=500, k=5, d=6, spread=0.2, seed=7)
        C0 = init_centroids(X, 5, method="first")
        for level, run in sorted(_RUNNERS.items()):
            result = run(X, C0, tol=0.5, max_iter=50)
            fresh = assign_chunked(X, result.centroids)
            assert (fresh != result.assignments).any(), f"level {level}"
            assert result.inertia == inertia(X, result.centroids, fresh), \
                f"level {level}"

    def test_final_inertia_is_true_objective_when_not_converged(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        for level, run in sorted(_RUNNERS.items()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                result = run(X, C0, max_iter=1)
            fresh = assign_chunked(X, result.centroids)
            assert result.inertia == inertia(X, result.centroids, fresh), \
                f"level {level}"


class TestCorrectness:
    def test_recovers_ground_truth_blobs(self, blobs):
        X, labels = blobs
        C0 = init_centroids(X, 5, method="kmeans++", seed=3)
        result = lloyd(X, C0)
        # Each found cluster should be nearly pure in ground-truth labels.
        purity = 0
        for j in range(5):
            members = labels[result.assignments == j]
            if members.size:
                purity += np.bincount(members).max()
        assert purity / X.shape[0] > 0.95

    def test_final_assignments_consistent_with_centroids(self, blobs):
        X, _ = blobs
        result = lloyd(X, init_centroids(X, 5, method="first"))
        np.testing.assert_array_equal(
            result.assignments, assign_chunked(X, result.centroids))

    def test_final_inertia_matches_assignments(self, blobs):
        X, _ = blobs
        result = lloyd(X, init_centroids(X, 5, method="first"))
        assert result.inertia == pytest.approx(
            inertia(X, result.centroids, result.assignments))

    def test_k_equals_one(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        result = lloyd(X, X[:1].copy(), max_iter=10)
        np.testing.assert_allclose(result.centroids[0], X.mean(axis=0))
        assert result.converged

    def test_k_equals_n(self):
        X = np.random.default_rng(1).normal(size=(10, 2))
        result = lloyd(X, X.copy(), max_iter=5)
        assert result.converged
        assert result.inertia == pytest.approx(0.0, abs=1e-20)

    def test_initial_centroids_not_mutated(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        frozen = C0.copy()
        lloyd(X, C0, max_iter=3)
        np.testing.assert_array_equal(C0, frozen)

    def test_history_telemetry(self, blobs):
        X, _ = blobs
        result = lloyd(X, init_centroids(X, 5, method="first"), max_iter=20)
        assert len(result.history) == result.n_iter
        assert result.history[0].n_reassigned == X.shape[0]
        if result.converged:
            assert result.history[-1].centroid_shift == pytest.approx(0.0)


class TestSingleIteration:
    def test_matches_full_run_first_step(self, blobs):
        X, _ = blobs
        C0 = init_centroids(X, 5, method="first")
        a, C1 = lloyd_single_iteration(X, C0)
        result = lloyd(X, C0, max_iter=1)
        np.testing.assert_array_equal(a, result.assignments)
        np.testing.assert_allclose(C1, result.centroids)


class TestValidation:
    def test_bad_max_iter(self, blobs):
        X, _ = blobs
        with pytest.raises(ConfigurationError):
            lloyd(X, X[:2], max_iter=0)

    def test_bad_tol(self, blobs):
        X, _ = blobs
        with pytest.raises(ConfigurationError):
            lloyd(X, X[:2], tol=-1.0)
