"""Array backends and gain-matrix operators — the shim the kernels call.

Every dense hot path in the library is, at bottom, a product of a
pattern-like array against a *gain-style* matrix: the Theorem-1 binary
kernel (``patterns @ log_factors``), the non-fading margin test
(``patterns @ β·S̄``), the CRN Monte-Carlo kernel
(``(act · draws) @ S̄``), and the block-fading chunk evaluation.  The
shim reduces all of them to one abstraction:

* :func:`gain_operator` resolves a
  :class:`~repro.backend.config.BackendConfig` (the kernels pass the run
  context's, ``current_run().backend``) into concrete behaviour: compute
  dtype, dense vs top-k representation;
* a **gain operator** (:class:`DenseGains` or
  :class:`~repro.backend.sparse.TopKGains`) wraps one matrix and
  answers ``matmul``/``matvec``/``gather_matmul``.  Kernels cache their
  operators keyed by the config, so a config switch never mixes
  representations.

The invariant everything else leans on: with the default config, the
operator wraps the *same* float64 array it was given (no copy, no cast)
and ``matmul`` is literally ``x @ matrix`` — byte-identical to the
pre-shim code at any ``--jobs``.
"""

from __future__ import annotations

import numpy as np

from repro.backend.config import BackendConfig
from repro.backend.sparse import TopKGains

__all__ = ["DenseGains", "gain_operator"]


class DenseGains:
    """Dense gain operator: ``matmul`` is a plain BLAS product.

    With the float64 dtype policy the wrapped matrix is the caller's
    array itself (``np.asarray`` performs no copy), so every product is
    bit-for-bit the expression the kernels used before the shim.
    """

    __slots__ = ("matrix",)

    is_sparse = False

    def __init__(self, matrix: np.ndarray, dtype=np.float64):
        self.matrix = np.asarray(matrix, dtype=dtype)

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    def matmul(self, x: np.ndarray) -> np.ndarray:
        return x @ self.matrix

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return x @ self.matrix

    def gather_matmul(self, x: np.ndarray, dense: np.ndarray) -> np.ndarray:
        """Product against substitute values ``dense`` (same shape as the
        wrapped matrix) — the dense form ignores the stored matrix."""
        return x @ np.asarray(dense, dtype=self.matrix.dtype)

    def __repr__(self) -> str:
        return f"DenseGains(n={self.matrix.shape[0]}, dtype={self.dtype})"


def gain_operator(matrix: np.ndarray, config: BackendConfig, *, keep_diagonal: bool = False):
    """Wrap a gain-style matrix per ``config``.

    ``keep_diagonal=True`` is for kernels whose product includes the
    own-signal diagonal and subtracts it back out — the top-k form
    then stores the diagonal exactly alongside the k strongest
    off-diagonal interferers, so the subtraction stays exact.
    """
    n = np.asarray(matrix).shape[0]
    if config.topk is None or n < 2 or config.topk >= n - 1:
        return DenseGains(matrix, dtype=config.np_dtype)
    return TopKGains.build(
        matrix, config.topk, dtype=config.np_dtype, keep_diagonal=keep_diagonal
    )
