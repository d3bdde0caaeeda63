"""Backend configuration — which dtype and sparsity mode.

One frozen :class:`BackendConfig` names everything a hot-path kernel
needs to know about *how* to compute: the compute dtype policy
(``float64`` default; ``float32`` opt-in with the tolerances documented
in :data:`DTYPE_RTOL`), and the optional top-k sparsification of
gain-style matrices (``topk=None`` keeps every matrix dense).

The configuration in force is the ``backend`` field of the process's
:class:`~repro.run_context.RunContext` (installed by the CLI's
``--dtype/--topk`` flags, a :func:`~repro.run_context.run_scope` block,
or a worker's shipped context), so kernels read
``current_run().backend`` instead of threading a backend argument
through every call.  The default config is the hard invariant of the
whole layer: with ``BackendConfig()`` in force, every routed kernel
computes the byte-identical NumPy float64 expression it computed before
the shim existed.

Configs are plain data — :meth:`BackendConfig.to_dict` /
:meth:`BackendConfig.from_dict` round-trip them through ``summary.json``
and run journals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DTYPES",
    "DTYPE_RTOL",
    "BackendConfig",
]

#: Recognised compute dtypes for the gain-matrix kernels.
DTYPES = ("float64", "float32")

#: Documented relative tolerance of each dtype policy against the
#: float64 reference: float64 is exact (byte-identical on the default
#: backend); float32 carries the usual single-precision round-off
#: through one ``(B, n) @ (n, n)`` product and an ``exp``.  The
#: equivalence tests in ``tests/channel/test_backend_equivalence.py``
#: pin these numbers.
DTYPE_RTOL = {"float64": 0.0, "float32": 2e-4}


@dataclass(frozen=True)
class BackendConfig:
    """One immutable choice of (dtype, top-k sparsity).

    Attributes
    ----------
    dtype:
        Compute dtype of the gain-matrix kernels: ``"float64"``
        (default, exact) or ``"float32"`` (documented tolerances in
        :data:`DTYPE_RTOL`).
    topk:
        ``None`` for dense matrices (default), or the number of
        strongest interferers kept per receiver in the sparse
        representation (see :class:`repro.backend.sparse.TopKGains`).
    """

    dtype: str = "float64"
    topk: "int | None" = None

    def __post_init__(self):
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {DTYPES}, got {self.dtype!r}")
        if self.topk is not None:
            if not isinstance(self.topk, int) or isinstance(self.topk, bool):
                raise ValueError(f"topk must be an integer or None, got {self.topk!r}")
            if self.topk < 1:
                raise ValueError(f"topk must be >= 1, got {self.topk}")

    @property
    def np_dtype(self) -> np.dtype:
        """The NumPy dtype the policy computes in."""
        return np.dtype(self.dtype)

    @property
    def rtol(self) -> float:
        """Documented relative tolerance against the float64 reference."""
        return DTYPE_RTOL[self.dtype]

    def is_default(self) -> bool:
        """Whether this is the byte-identical NumPy/float64/dense path."""
        return self.dtype == "float64" and self.topk is None

    # The fixed "numpy" label keeps summary.json and older run journals byte-identical.

    def to_dict(self) -> "dict[str, object]":
        """Plain-data form for summary.json and run journals."""
        return {"backend": "numpy", "dtype": self.dtype, "topk": self.topk}

    @classmethod
    def from_dict(cls, doc: "dict[str, object]") -> "BackendConfig":
        return cls(
            dtype=str(doc.get("dtype", "float64")),
            topk=None if doc.get("topk") is None else int(doc["topk"]),  # type: ignore[arg-type]
        )

    def describe(self) -> str:
        """Short human-readable form, e.g. ``numpy/float32/topk=16``."""
        tail = "dense" if self.topk is None else f"topk={self.topk}"
        return f"numpy/{self.dtype}/{tail}"

