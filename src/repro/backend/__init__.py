"""Array backend for the gain-matrix hot paths.

See DESIGN.md, "Array backend & dtype policy".  Public surface:

* :class:`BackendConfig` — the (dtype, top-k) policy; the one in force
  is the ``backend`` field of the run context
  (:func:`repro.run_context.current_run`);
* :func:`gain_operator` — wraps a gain-style matrix per a config
  (kernels call ``gain_operator(M, current_run().backend)`` and cache
  the result keyed by the config);
* :class:`TopKGains` — the sparse top-k-interferer matrix
  representation.

The default config is the hard invariant: float64, dense is
byte-identical to the pre-shim library at any ``--jobs``.
"""

from repro.backend.config import DTYPE_RTOL, DTYPES, BackendConfig
from repro.backend.core import DenseGains, gain_operator
from repro.backend.sparse import TopKGains, topk_indices

__all__ = [
    "DTYPES",
    "DTYPE_RTOL",
    "BackendConfig",
    "DenseGains",
    "TopKGains",
    "gain_operator",
    "topk_indices",
]
