"""Pluggable compute kernels for the Assign step.

Every executor funnels its nearest-centroid arithmetic through a
:class:`KernelBackend`, decoupling *which distance formulation runs* from
*how the partition charges modelled cost*.  Three backends ship:

``naive``
    The direct ``sum((x - c)^2)`` form, chunked — numerically identical to
    what the dimension-sliced hardware dataflow computes and sums, so it is
    the reference for the fidelity/strict-CPE tests.

``gemm``
    The communication-avoiding blocked formulation
    ``|x|^2 - 2 X C^T + |c|^2``: one BLAS GEMM per sample block instead of
    an (n, k, d) subtraction temporary, with the centroid norms computed
    once per call and the (rows, k) distance block reused across chunks.
    For pure assignment the ``|x|^2`` term is a per-row constant and is
    dropped from the argmin entirely.

``pruned``
    The gemm formulation plus Hamerly-style triangle-inequality bounds
    carried across iterations (:class:`~repro.core.bounds.BlockBounds`):
    a point whose exact distance to its assigned centroid is provably
    below both the half-separation of that centroid and the drifted
    lower bound to the runner-up skips the k-wide sweep entirely, and
    only the surviving candidates pay the blocked GEMM.  Bit-identical
    to ``gemm`` — centroids, labels, and inertia — because every reported
    distance comes from the same row-independent winner routine and
    skipped points provably cannot change assignment.

Backends are selected with ``HierarchicalKMeans(..., kernel="gemm")`` (or
per-executor via ``Level3Executor(machine, kernel="gemm")``), with the
``REPRO_KERNEL`` environment variable as the default when no explicit
``kernel=`` is given, and produce identical assignments on non-degenerate
data; only the floating-point rounding of near-exact ties can differ
between formulations.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Optional, Tuple, Union

import numpy as np

from ..analysis.envvars import ENV_KERNEL, read_str
from ..errors import ConfigurationError
from ._common import (
    DEFAULT_CHUNK_ELEMENTS,
    accumulate,
    chunk_ranges,
    squared_distances,
    validate_data,
)

#: Names accepted by :func:`resolve_kernel`.
KERNELS = ("naive", "gemm", "pruned")

#: Environment variable consulted when no explicit ``kernel=`` is given.
KERNEL_ENV = ENV_KERNEL.name


class KernelBackend(ABC):
    """One distance formulation behind the Assign step.

    Subclasses implement the per-chunk primitives; the base class owns the
    chunking loop so every backend observes the same bounded working set
    (the in-memory analogue of streaming sample blocks through the LDM)
    and the same tie rule (np.argmin — lowest centroid index wins).
    """

    #: Registry name of the backend ("naive", "gemm", ...).
    name: str = ""

    # -- per-chunk primitives ----------------------------------------------------

    @abstractmethod
    def _prepare(self, C: np.ndarray, max_rows: int) -> object:
        """Per-call setup (centroid norms, scratch buffers); returns a context."""

    @abstractmethod
    def _argmin_block(self, block: np.ndarray, C: np.ndarray,
                      ctx: object) -> np.ndarray:
        """Nearest-centroid index for one sample block."""

    @abstractmethod
    def _sq_block(self, block: np.ndarray, C: np.ndarray,
                  ctx: object) -> np.ndarray:
        """Full (b, k) squared-distance block for one sample block."""

    def _argmin_best_block(self, block: np.ndarray, C: np.ndarray,
                           ctx: object) -> Tuple[np.ndarray, np.ndarray]:
        """Winning index plus its squared distance for one sample block.

        Must pick the winner exactly like :meth:`_argmin_block` — same
        formulation, same ties — so ``assign()`` and the sweeps behind
        ``assign_with_distances()`` / ``assign_accumulate()`` never
        disagree.  Backends whose argmin runs on a cheaper partial form
        override this to argmin that form and materialise the full
        distance for the winner only.
        """
        d2 = self._sq_block(block, C, ctx)
        local = np.argmin(d2, axis=1)
        return local, d2[np.arange(block.shape[0]), local]

    # -- chunk policy -------------------------------------------------------------

    def chunk_rows(self, n: int, k: int, d: int,
                   chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> int:
        """Sample rows per chunk so the transient working set stays bounded.

        The default assumes the largest per-chunk temporary is the
        (rows, k) distance block.  Backends whose intermediates scale
        differently (the naive form's (rows, k, d) subtraction temporary)
        override this — it is the single place the chunk shape is decided,
        so the fused and unfused sweeps always agree on boundaries.
        """
        return max(1, chunk_elements // max(k, 1))

    # -- public API ---------------------------------------------------------------

    def assign(self, X: np.ndarray, C: np.ndarray,
               chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> np.ndarray:
        """Nearest-centroid assignment for every sample (int64 indices)."""
        X, C = validate_data(X, C)
        return self._assign(X, C, chunk_elements)

    # The underscored entry points take operands the caller has already
    # validated: the run driver validates X and C once per run, so the
    # block tasks and the final relabelling skip the per-call checks.

    def _assign(self, X: np.ndarray, C: np.ndarray,
                chunk_elements: int) -> np.ndarray:
        n, k = X.shape[0], C.shape[0]
        rows = self.chunk_rows(n, k, X.shape[1], chunk_elements)
        ctx = self._prepare(C, min(rows, n))
        out = np.empty(n, dtype=np.int64)
        for lo, hi in chunk_ranges(n, rows):
            out[lo:hi] = self._argmin_block(X[lo:hi], C, ctx)
        return out

    def _sweep(self, X: np.ndarray, C: np.ndarray, chunk_elements: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """One chunked pass: winning index and squared distance per sample."""
        n, k = X.shape[0], C.shape[0]
        rows = self.chunk_rows(n, k, X.shape[1], chunk_elements)
        ctx = self._prepare(C, min(rows, n))
        idx = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=X.dtype)
        for lo, hi in chunk_ranges(n, rows):
            local, best_block = self._argmin_best_block(X[lo:hi], C, ctx)
            idx[lo:hi] = local
            best[lo:hi] = best_block
        return idx, best

    def assign_with_distances(self, X: np.ndarray, C: np.ndarray,
                              chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                              ) -> Tuple[np.ndarray, np.ndarray]:
        """Assignments plus the squared distance to the winning centroid."""
        X, C = validate_data(X, C)
        return self._sweep(X, C, chunk_elements)

    def assign_accumulate(self, X: np.ndarray, C: np.ndarray,
                          chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]:
        """Fused Assign+Accumulate: ``(assignments, best_d2, sums, counts)``.

        The executors' hot path.  One chunked sweep produces the winning
        index *and* its squared distance (the per-iteration inertia then
        costs a vector mean instead of a fresh ``X - C[assignments]``
        pass), followed by one bincount accumulation over the whole block.
        The accumulation deliberately runs over the full block rather than
        per chunk so the sums are bit-identical to the unfused
        ``assign_with_distances`` + ``accumulate`` pair — the property the
        engine-parity tests and fault replays rely on.
        """
        X, C = validate_data(X, C)
        return self._assign_accumulate(X, C, chunk_elements)

    def _assign_accumulate(self, X: np.ndarray, C: np.ndarray,
                           chunk_elements: int
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray]:
        idx, best = self._sweep(X, C, chunk_elements)
        sums, counts = accumulate(X, idx, C.shape[0])
        return idx, best, sums, counts

    def pairwise_sq(self, X: np.ndarray, C: np.ndarray,
                    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                    ) -> np.ndarray:
        """Dense (n, k) squared distances, assembled chunk by chunk."""
        X, C = validate_data(X, C)
        n, k = X.shape[0], C.shape[0]
        rows = self.chunk_rows(n, k, X.shape[1], chunk_elements)
        ctx = self._prepare(C, min(rows, n))
        out = np.empty((n, k), dtype=X.dtype)
        for lo, hi in chunk_ranges(n, rows):
            out[lo:hi] = self._sq_block(X[lo:hi], C, ctx)
        return out


class NaiveKernel(KernelBackend):
    """Direct-form distances — the fidelity reference.

    Matches the partitioned dimension slices bit for bit: the hardware
    computes and sums per-dimension ``(x - c)^2`` terms, which is exactly
    this formulation.
    """

    name = "naive"

    def chunk_rows(self, n: int, k: int, d: int,
                   chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> int:
        # The direct form materialises a (rows, k, d) subtraction
        # temporary, so sizing rows by k alone would overshoot the
        # working-set bound by a factor of d.
        return max(1, chunk_elements // max(k * d, 1))

    def _prepare(self, C: np.ndarray, max_rows: int) -> object:
        return None

    def _argmin_block(self, block: np.ndarray, C: np.ndarray,
                      ctx: object) -> np.ndarray:
        return np.argmin(squared_distances(block, C), axis=1)

    def _sq_block(self, block: np.ndarray, C: np.ndarray,
                  ctx: object) -> np.ndarray:
        return squared_distances(block, C)


class GemmKernel(KernelBackend):
    """Blocked ``|x|^2 - 2 X C^T + |c|^2`` — the production hot path.

    One BLAS matmul per chunk replaces the (b, k, d) subtraction temporary
    of the naive form.  The centroid norms ``|c|^2`` are computed once per
    call, and one (rows, k) scratch buffer is reused across chunks (and
    across calls, while shapes allow) so the steady-state loop allocates
    nothing.  The argmin drops the per-row-constant ``|x|^2`` term.

    The scratch buffer is thread-local: one backend instance is shared by
    every executor, restart, and predict() call, and the thread engine maps
    block sweeps of the *same* instance across a pool concurrently.
    """

    name = "gemm"

    def __init__(self) -> None:
        self._scratch = threading.local()

    def _buffer(self, rows: int, k: int, dtype: np.dtype) -> np.ndarray:
        buf: Optional[np.ndarray] = getattr(self._scratch, "buf", None)
        if (buf is None or buf.shape[0] < rows
                or buf.shape[1] != k or buf.dtype != dtype):
            buf = np.empty((rows, k), dtype=dtype)
            self._scratch.buf = buf
        return buf

    def _prepare(self, C: np.ndarray, max_rows: int) -> object:
        c_sq = np.einsum("kd,kd->k", C, C)
        buf = self._buffer(max(1, max_rows), C.shape[0], C.dtype)
        # Scaling by -2 is exact and commutes with every rounding of the
        # matmul, so x.(-2c) is bitwise -2(x.c) without a pass over g.
        return c_sq, buf, -2.0 * C

    def _partial_block(self, block: np.ndarray, C: np.ndarray,
                       ctx: object) -> np.ndarray:
        """``|c|^2 - 2 x.c`` for one chunk, written into the scratch buffer."""
        c_sq, buf, minus_2c = ctx
        g = buf[:block.shape[0]]
        np.matmul(block, minus_2c.T, out=g)
        g += c_sq[None, :]
        return g

    def _argmin_block(self, block: np.ndarray, C: np.ndarray,
                      ctx: object) -> np.ndarray:
        # |x|^2 shifts every candidate of a row equally — skip it.
        return np.argmin(self._partial_block(block, C, ctx), axis=1)

    def _sq_block(self, block: np.ndarray, C: np.ndarray,
                  ctx: object) -> np.ndarray:
        d2 = self._partial_block(block, C, ctx).copy()
        d2 += np.einsum("bd,bd->b", block, block)[:, None]
        np.maximum(d2, 0.0, out=d2)
        return d2

    def _winner_sq_block(self, block: np.ndarray, C: np.ndarray,
                         local: np.ndarray, ctx: object) -> np.ndarray:
        """Exact squared distance of each row to its chosen centroid.

        Deliberately *not* gathered from the GEMM result: a BLAS matmul
        element can depend on the whole chunk's blocking, while this
        einsum contraction reduces each row independently — so the pruned
        kernel reproduces the value for any subset of rows (skipped
        points, surviving candidates) bit-for-bit.
        """
        c_sq = ctx[0]
        best = c_sq[local] - 2.0 * np.einsum("bd,bd->b", block, C[local])
        best += np.einsum("bd,bd->b", block, block)
        np.maximum(best, 0.0, out=best)
        return best

    def _argmin_best_block(self, block: np.ndarray, C: np.ndarray,
                           ctx: object) -> Tuple[np.ndarray, np.ndarray]:
        # Argmin over the same partial form assign() uses — adding the
        # per-row |x|^2 and clamping first can flip near-exact ties — then
        # materialise the exact squared distance for the winner only, via
        # the row-independent routine the pruned kernel shares.
        g = self._partial_block(block, C, ctx)
        local = np.argmin(g, axis=1)
        return local, self._winner_sq_block(block, C, local, ctx)


#: One pruned block sweep: (labels, best_d2, sums, counts, lb, n_dist).
PrunedSweep = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                    np.ndarray, int]


class PrunedKernel(GemmKernel):
    """Gemm formulation plus per-block triangle-inequality pruning.

    The stateless public API (``assign`` / ``assign_with_distances`` /
    ``assign_accumulate`` / ``pairwise_sq``) is inherited from
    :class:`GemmKernel` unchanged — without carried bounds there is
    nothing to prune.  The two extra entry points implement the stateful
    sweep the executors drive through
    :class:`~repro.core.bounds.BlockBounds`:

    ``establish``
        A full gemm sweep that additionally derives, per sample, the
        exact winning squared distance (via the row-independent winner
        routine) and a lower bound on the runner-up distance from the
        second-smallest partial.

    ``assign_accumulate_pruned``
        The bounded iteration.  Per chunk: refresh the exact assigned
        distance only where the assigned centroid moved (``drift > 0`` —
        unmoved centroids are bitwise unchanged, so the stored exact
        value still holds), drift the lower bound by the worst centroid
        movement, and run the k-wide GEMM only for candidates whose
        upper bound fails Hamerly's test ``ub < max(s[a], lb)``.  Skipped
        points provably keep their assignment, and every reported
        distance comes from the shared winner routine, so labels, sums,
        and inertia are bit-identical to the unpruned gemm sweep.

    Both return the actual number of point-centroid distance evaluations
    (``n_dist``) so the executors can charge the ledger for work done,
    not work avoided.
    """

    name = "pruned"

    def establish(self, X: np.ndarray, C: np.ndarray,
                  chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                  ) -> PrunedSweep:
        """Full sweep that also establishes the bound state for a block."""
        X, C = validate_data(X, C)
        n, k = X.shape[0], C.shape[0]
        rows = self.chunk_rows(n, k, X.shape[1], chunk_elements)
        ctx = self._prepare(C, min(rows, n))
        labels = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=X.dtype)
        lb = np.empty(n, dtype=np.float64)
        for lo, hi in chunk_ranges(n, rows):
            block = X[lo:hi]
            g = self._partial_block(block, C, ctx)
            local = np.argmin(g, axis=1)
            labels[lo:hi] = local
            best[lo:hi] = self._winner_sq_block(block, C, local, ctx)
            lb[lo:hi] = self._runnerup_lb(block, g, k)
        sums, counts = accumulate(X, labels, k)
        return labels, best, sums, counts, lb, n * k

    def assign_accumulate_pruned(self, X: np.ndarray, C: np.ndarray,
                                 labels_in: np.ndarray, d2_in: np.ndarray,
                                 lb_in: np.ndarray, drift: np.ndarray,
                                 s: np.ndarray,
                                 chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
                                 ) -> PrunedSweep:
        """One bounded sweep over a block with carried state.

        Pure with respect to its inputs: the carried arrays are read
        only, fresh outputs are returned — an engine-level task retry
        re-runs from unpoisoned state.
        """
        X, C = validate_data(X, C)
        n, k = X.shape[0], C.shape[0]
        rows = self.chunk_rows(n, k, X.shape[1], chunk_elements)
        ctx = self._prepare(C, min(rows, n))
        labels = np.array(labels_in, copy=True)
        d2 = np.array(d2_in, copy=True)
        lb = lb_in - (drift.max() if k > 1 else 0.0)
        n_dist = 0
        for lo, hi in chunk_ranges(n, rows):
            block = X[lo:hi]
            chunk_labels = labels[lo:hi]
            chunk_d2 = d2[lo:hi]
            # Refresh the exact assigned distance only where the assigned
            # centroid actually moved; an unmoved centroid is bitwise
            # unchanged, so the stored exact value is still the exact
            # current value.  (An exact zero test on the drift vector is
            # intentional: it detects bitwise-identical centroids, not
            # numerical closeness.)
            moved = np.flatnonzero(drift[chunk_labels] > 0.0)
            if moved.size:
                chunk_d2[moved] = self._winner_sq_block(
                    block[moved], C, chunk_labels[moved], ctx)
                n_dist += int(moved.size)
            # Hamerly's test on exact upper bounds: strict failure only —
            # a point tied with its runner-up always stays a candidate,
            # so tie-breaking matches the unpruned argmin exactly.
            ub = np.sqrt(chunk_d2)
            cand = np.flatnonzero(
                ub >= np.maximum(s[chunk_labels], lb[lo:hi]))
            if cand.size:
                sub = block[cand]
                g = self._partial_block(sub, C, ctx)
                local = np.argmin(g, axis=1)
                chunk_labels[cand] = local
                chunk_d2[cand] = self._winner_sq_block(sub, C, local, ctx)
                lb[lo:hi][cand] = self._runnerup_lb(sub, g, k)
                n_dist += int(cand.size) * k
        sums, counts = accumulate(X, labels, k)
        return labels, d2, sums, counts, lb, n_dist

    def _runnerup_lb(self, block: np.ndarray, g: np.ndarray,
                     k: int) -> np.ndarray:
        """Lower bound on the distance to the second-closest centroid.

        Derived from the second-smallest entry of the partial form ``g``
        (the same ordering the argmin used) plus the per-row ``|x|^2``.
        With one centroid there is no runner-up: the bound is +inf and
        the Hamerly test can never unskip anything.
        """
        if k <= 1:
            return np.full(block.shape[0], np.inf)
        second = np.partition(g, 1, axis=1)[:, 1]
        lb_sq = second + np.einsum("bd,bd->b", block, block)
        np.maximum(lb_sq, 0.0, out=lb_sq)
        return np.sqrt(lb_sq)


#: Anything :func:`resolve_kernel` accepts (None consults ``REPRO_KERNEL``).
KernelLike = Union[str, KernelBackend]


def resolve_kernel(kernel: Optional[KernelLike] = None) -> KernelBackend:
    """Turn a backend name (or a ready instance) into a :class:`KernelBackend`.

    ``kernel=None`` consults ``REPRO_KERNEL`` (default ``"naive"``);
    empty or whitespace-only values count as unset, so CI matrices can
    export empty strings on the legs that don't use the knob.
    """
    if isinstance(kernel, KernelBackend):
        return kernel
    if kernel is None:
        kernel = read_str(ENV_KERNEL) or "naive"
    if kernel == "naive":
        return NaiveKernel()
    if kernel == "gemm":
        return GemmKernel()
    if kernel == "pruned":
        return PrunedKernel()
    raise ConfigurationError(
        f"kernel must be a KernelBackend instance or one of {KERNELS}, "
        f"got {kernel!r}"
    )
