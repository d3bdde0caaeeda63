"""Array backend for the gain-matrix hot paths.

See DESIGN.md, "Array backend & dtype policy".  Public surface:

* :class:`BackendConfig` + :func:`get_config` / :func:`set_config` /
  :func:`backend_scope` — the ambient (dtype, top-k) policy;
* :func:`active` — the :class:`ArrayBackend` for the ambient config
  (kernels call ``active().gain_operator(M)`` and cache the result
  keyed by config);
* :class:`TopKGains` — the sparse top-k-interferer matrix
  representation.

The default config is the hard invariant: float64, dense is
byte-identical to the pre-shim library at any ``--jobs``.
"""

from repro.backend.config import (
    DTYPE_RTOL,
    DTYPES,
    BackendConfig,
    backend_scope,
    get_config,
    set_config,
)
from repro.backend.core import ArrayBackend, DenseGains, active
from repro.backend.sparse import TopKGains, topk_indices

__all__ = [
    "DTYPES",
    "DTYPE_RTOL",
    "ArrayBackend",
    "BackendConfig",
    "DenseGains",
    "TopKGains",
    "active",
    "backend_scope",
    "get_config",
    "set_config",
    "topk_indices",
]
