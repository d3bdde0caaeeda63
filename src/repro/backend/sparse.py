"""Top-k-interferer sparse representation of gain-style matrices.

The dense ``(n, n)`` mean-signal matrix ``S̄`` is the real scaling wall
of every hot path once ``n ≫ 10³``: one ``(B, n) @ (n, n)`` pattern
product costs ``B·n²`` multiply-adds and streams ``8n²`` bytes.  But at
the densities the scheduling literature operates at (Halldórsson–Mitra's
distributed bounds, the stability work in PAPERS.md), a receiver's
interference is dominated by its few strongest interferers — the tail
of weak senders contributes a vanishing fraction of the sum.

:class:`TopKGains` keeps, per **receiver** (column), only the ``k``
largest-magnitude off-diagonal entries — plus, optionally, the exact
diagonal (the own-signal term several kernels subtract back out and
which must therefore never be approximated).  A pattern product then
costs ``B·k·n`` instead of ``B·n²``.

Two product engines are provided:

* a ``scipy.sparse`` CSR product when SciPy is importable (the fast
  path: one C-loop sparse matmul; SciPy loads on the first build, so
  dense runs never import it);
* a chunked gather-``einsum`` fallback in pure NumPy.

Both are deterministic (fixed summation order for a fixed matrix), so
sparse-mode runs keep the engine's ``--jobs`` byte-invariance among
themselves; only the *approximation* against the dense reference is
inexact, with the deviation measured per-n by the benchmark harness
(``benchmarks/BENCH_scaling.json``).
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics as _metrics

__all__ = ["TopKGains", "topk_indices"]

#: Elements per gather chunk of the pure-NumPy fallback product; bounds
#: the ``(B, k, n)`` temporary to ~128 MB of float64.
_CHUNK_ELEMENTS = 16_000_000


def topk_indices(matrix: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the ``k`` largest-magnitude off-diagonal entries
    per column, shape ``(k, n)``, rows sorted ascending per column.

    ``k`` is clamped to ``n - 1`` (every off-diagonal entry).  The
    diagonal never competes for a slot — kernels that need it ask for
    ``keep_diagonal=True`` at build time and get it exactly.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if n < 2:
        raise ValueError("top-k selection needs at least 2 links")
    k = min(int(k), n - 1)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    mag = np.abs(m).astype(np.float64)
    np.fill_diagonal(mag, -1.0)  # strictly below any |entry| >= 0
    idx = np.argpartition(mag, n - k, axis=0)[n - k :]
    # Sorted row order per column: deterministic, and the gather walks
    # memory forward.
    return np.sort(idx, axis=0)


class TopKGains:
    """Sparse top-k view of a square matrix, optimised for ``X @ M``.

    Attributes
    ----------
    indices:
        ``(rows, n)`` sender indices per receiver column — the top-k
        off-diagonal entries, preceded by the diagonal row when
        ``keeps_diagonal``.
    values:
        Matching entries of the source matrix, cast to the compute dtype.
    """

    __slots__ = (
        "indices",
        "values",
        "n",
        "k",
        "keeps_diagonal",
        "_cols",
        "_csr",
        "_csr_perm",
    )

    is_sparse = True

    def __init__(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        *,
        keeps_diagonal: bool,
        use_scipy: bool = True,
    ):
        if indices.shape != values.shape or indices.ndim != 2:
            raise ValueError(
                f"indices/values must share a 2-D shape, got "
                f"{indices.shape} vs {values.shape}"
            )
        self.indices = np.ascontiguousarray(indices, dtype=np.intp)
        self.values = np.ascontiguousarray(values)
        self.n = indices.shape[1]
        self.keeps_diagonal = bool(keeps_diagonal)
        self.k = indices.shape[0] - (1 if self.keeps_diagonal else 0)
        self._cols = np.broadcast_to(
            np.arange(self.n, dtype=np.intp), self.indices.shape
        )
        self._csr = None
        self._csr_perm: "np.ndarray | None" = None
        if use_scipy:
            self._build_csr()

    @classmethod
    def build(
        cls,
        matrix: np.ndarray,
        k: int,
        *,
        dtype=np.float64,
        keep_diagonal: bool = False,
        use_scipy: bool = True,
    ) -> "TopKGains":
        """Select the top-k interferers of ``matrix`` per receiver.

        ``keep_diagonal=True`` additionally stores the exact diagonal as
        the leading row — for kernels whose products include the own
        signal and subtract it back out (the SINR denominators).
        """
        idx = topk_indices(matrix, k)
        if keep_diagonal:
            n = matrix.shape[0]
            idx = np.vstack([np.arange(n, dtype=np.intp)[None, :], idx])
        values = np.take_along_axis(np.asarray(matrix), idx, axis=0)
        return cls(
            idx,
            np.asarray(values, dtype=dtype),
            keeps_diagonal=keep_diagonal,
            use_scipy=use_scipy,
        )

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def __repr__(self) -> str:
        diag = "+diag" if self.keeps_diagonal else ""
        return f"TopKGains(n={self.n}, k={self.k}{diag}, dtype={self.dtype})"

    # -- scipy fast path ----------------------------------------------------

    def _build_csr(self) -> None:
        """CSR form of the sparse matrix, plus the permutation that maps
        a row-major ``(rows, n)`` value table onto the CSR data slots —
        so per-block value swaps (:meth:`gather_matmul`) never re-sort.

        SciPy is imported here, on the first build, rather than with the
        package: it is an optional accelerator that only top-k runs use.
        Without it the operator keeps the einsum fallback.
        """
        try:
            from scipy import sparse
        except ImportError:
            return
        nnz = self.indices.size
        order = sparse.coo_array(
            (
                np.arange(nnz, dtype=np.float64),
                (self.indices.ravel(), self._cols.ravel()),
            ),
            shape=(self.n, self.n),
        ).tocsr()
        self._csr_perm = order.data.astype(np.intp)
        csr = order.copy()
        csr.data = self.values.ravel()[self._csr_perm].astype(self.dtype)
        self._csr = csr

    def _csr_with(self, values: np.ndarray):
        """The CSR matrix with ``values`` (same ``(rows, n)`` layout)
        swapped into the data slots."""
        csr = self._csr.copy()
        csr.data = values.ravel()[self._csr_perm].astype(self.dtype)
        return csr

    # -- products -----------------------------------------------------------

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``x @ M_topk`` for a ``(B, n)`` batch (the pattern product), or
        a ``(..., B, n)`` stack of them evaluated as one ``(rows, n)``
        batch: each output row is its own sum over stored entries, in an
        order that does not depend on the other rows."""
        if x.ndim > 2:
            return self.matmul(x.reshape(-1, self.n)).reshape(x.shape)
        _metrics.add("backend.sparse_matmuls")
        if self._csr is not None:
            return np.asarray(x @ self._csr)
        return self._einsum_product(x, self.values)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``x @ M_topk`` for one ``(n,)`` vector."""
        _metrics.add("backend.sparse_matmuls")
        if self._csr is not None:
            return np.asarray(x @ self._csr)
        return (x[self.indices] * self.values).sum(axis=0)

    def gather_matmul(self, x: np.ndarray, dense: np.ndarray) -> np.ndarray:
        """``x @ D`` restricted to this operator's sparsity pattern, with
        values gathered from the dense matrix ``D``.

        This is the block-fading path: the *selection* of interferers
        comes from the mean gains (where it was built once), while the
        values come from the current coherence block's draw matrix —
        the draws themselves stay dense, so randomness consumption is
        unchanged from the exact path.
        """
        _metrics.add("backend.sparse_matmuls")
        vals = np.take_along_axis(
            np.asarray(dense), self.indices, axis=0
        ).astype(self.dtype, copy=False)
        if self._csr is not None:
            return np.asarray(x @ self._csr_with(vals))
        return self._einsum_product(x, vals)

    def _einsum_product(self, x: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Pure-NumPy fallback: chunked gather + ``einsum`` contraction."""
        x2 = np.atleast_2d(x)
        rows = x2.shape[0]
        out = np.empty((rows, self.n), dtype=np.result_type(x2.dtype, values.dtype))
        block = max(1, _CHUNK_ELEMENTS // max(1, values.size))
        for start in range(0, rows, block):
            chunk = x2[start : start + block]
            out[start : start + block] = np.einsum(
                "bkn,kn->bn", chunk[:, self.indices], values
            )
        return out[0] if x.ndim == 1 else out
