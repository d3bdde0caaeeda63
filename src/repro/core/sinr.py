"""Non-fading SINR computation (the deterministic model of Section 2).

The mean received signal strength of sender ``j`` at receiver ``i`` is

.. math::

    \\bar S(j, i) = p_j / d(s_j, r_i)^\\alpha ,

and under a transmit pattern ``X ⊆ [n]`` the non-fading SINR of link
``i ∈ X`` is

.. math::

    \\gamma_i^{nf} = \\frac{\\bar S(i,i)}{\\sum_{j \\in X, j \\ne i} \\bar S(j,i) + \\nu}.

Everything in this module is vectorized over links and over *batches* of
transmit patterns: a batch of ``B`` patterns costs one ``(B, n) @ (n, n)``
matrix product, which is what makes the paper's Monte-Carlo sweeps (40
networks x 25 transmit seeds x many probabilities) cheap.

:class:`SINRInstance` is the object most of the library passes around: the
mean-signal matrix ``S̄`` plus the ambient noise ``ν``.  The Rayleigh
model (:mod:`repro.fading`) reuses the same instance — the fading draws
are exponentials with these means.
"""

from __future__ import annotations

import numpy as np

from repro import backend as _backend
from repro.core.network import Network
from repro.core.power import PowerAssignment
from repro.utils.validation import check_nonnegative, check_positive, check_square_matrix

__all__ = [
    "mean_signal_matrix",
    "sinr_nonfading",
    "sinr_nonfading_batch",
    "successful_links",
    "success_count",
    "SINRInstance",
]


def mean_signal_matrix(network: Network, power: PowerAssignment, alpha: float) -> np.ndarray:
    """Mean signal strengths ``S̄[j, i] = p_j / d(s_j, r_i)^α``.

    Row index is the *sender*, column index the *receiver*, matching the
    paper's subscript order ``S̄_{j,i}``.
    """
    check_positive(alpha, "alpha")
    p = np.asarray(power.powers(network.lengths, alpha), dtype=np.float64)
    if p.shape != (network.n,) or np.any(p <= 0) or not np.all(np.isfinite(p)):
        raise ValueError("power assignment returned an invalid power vector")
    return p[:, None] / network.cross_distances**alpha


def _as_active_bool(active, n: int) -> np.ndarray:
    """Coerce a transmit pattern to a boolean mask of length ``n``.

    Policy: boolean arrays are masks; integer arrays are *index lists*
    (``[0, 1]`` means links 0 and 1 transmit, not a 0/1 mask — pass a
    boolean array for masks).  Empty inputs mean "nobody transmits".
    """
    arr = np.asarray(active)
    if arr.size == 0:
        return np.zeros(n, dtype=bool)
    if arr.dtype == np.bool_:
        if arr.shape != (n,):
            raise ValueError(f"active mask must have shape ({n},), got {arr.shape}")
        return arr
    if arr.dtype.kind in "iu" and arr.ndim == 1:
        if arr.min() < 0 or arr.max() >= n:
            raise IndexError("active index list out of range")
        mask = np.zeros(n, dtype=bool)
        mask[arr] = True
        return mask
    raise TypeError(
        "active pattern must be a boolean mask or an integer index list, "
        f"got dtype {arr.dtype} with shape {arr.shape}"
    )


def sinr_nonfading(gains: np.ndarray, active, noise: float, *, gains_op=None) -> np.ndarray:
    """Non-fading SINR of every link under one transmit pattern.

    Parameters
    ----------
    gains:
        Mean-signal matrix ``S̄[j, i]`` of shape ``(n, n)``.
    active:
        Boolean mask of transmitting links, or an integer index list.
    noise:
        Ambient noise ``ν >= 0``.
    gains_op:
        Optional pre-built gain operator over ``gains`` (built with
        ``keep_diagonal=True``); :class:`SINRInstance` passes its cached
        one.  When omitted, the ambient backend wraps ``gains`` — a
        no-copy view under the default config.

    Returns
    -------
    ndarray of shape ``(n,)``
        ``γ_i^nf`` for active links; exactly ``0`` for silent links.  With
        ``ν = 0`` and no interferers the SINR is ``+inf`` (an isolated
        transmission always succeeds), matching the model's limit.
    """
    gains = np.asarray(gains, dtype=np.float64)
    n = gains.shape[0]
    mask = _as_active_bool(active, n)
    diag = np.diagonal(gains)
    if gains_op is None:
        gains_op = _backend.active().gain_operator(gains, keep_diagonal=True)
    # Σ_{j active} S̄(j, i), includes own signal
    total = gains_op.matvec(mask.astype(gains_op.dtype))
    denom = total - mask * diag + float(noise)
    out = np.zeros(n, dtype=np.float64)
    with np.errstate(divide="ignore"):
        np.divide(diag, denom, out=out, where=mask & (denom > 0.0))
    out[mask & (denom <= 0.0)] = np.inf
    return out


def sinr_nonfading_batch(
    gains: np.ndarray, active: np.ndarray, noise: float, *, gains_op=None
) -> np.ndarray:
    """Non-fading SINR for a batch of transmit patterns.

    ``active`` has shape ``(B, n)`` (boolean), or ``(..., B, n)`` for a
    stack of batches; the result has the same shape.  One matrix product
    evaluates all patterns — routed through the ambient array backend
    (or the caller's ``gains_op``), so ``--topk`` swaps in the sparse
    representation transparently.  Under the dense backends a stack is
    one ``np.matmul``, which multiplies each ``(B, n)`` slice exactly as
    a separate 2-D call would, so stacking never changes the bytes.
    """
    gains = np.asarray(gains, dtype=np.float64)
    act = np.asarray(active, dtype=bool)
    if act.ndim < 2 or act.shape[-1] != gains.shape[0]:
        raise ValueError(
            f"active batch must be (..., B, {gains.shape[0]}), got {act.shape}"
        )
    diag = np.diagonal(gains)
    if gains_op is None:
        gains_op = _backend.active().gain_operator(gains, keep_diagonal=True)
    total = gains_op.matmul(act.astype(gains_op.dtype))
    denom = total - act * diag + float(noise)
    out = np.zeros(act.shape, dtype=np.float64)
    with np.errstate(divide="ignore"):
        np.divide(
            np.broadcast_to(diag, act.shape), denom, out=out, where=act & (denom > 0.0)
        )
    out[act & (denom <= 0.0)] = np.inf
    return out


def successful_links(gains: np.ndarray, active, noise: float, beta: float) -> np.ndarray:
    """Boolean mask of links transmitting with ``γ^nf >= β``."""
    check_positive(beta, "beta")
    return sinr_nonfading(gains, active, noise) >= beta


def success_count(gains: np.ndarray, active, noise: float, beta: float) -> int:
    """Number of successful transmissions under one pattern."""
    return int(successful_links(gains, active, noise, beta).sum())


class SINRInstance:
    """A scheduling instance: mean signals ``S̄`` plus ambient noise ``ν``.

    This is the common input of the non-fading engine, the Rayleigh engine,
    the scheduling algorithms, and the learning dynamics.  Instances are
    immutable; the only internal mutability is a cache of derived gain
    operators keyed by the active backend configuration, so sharing an
    instance across backend switches is safe.
    """

    __slots__ = ("_gains", "_noise", "_backend_ops")

    def __init__(self, gains, noise: float = 0.0):
        g = check_square_matrix(gains, name="gains").copy()
        if np.any(g < 0.0) or not np.all(np.isfinite(g)):
            raise ValueError("gains must be finite and non-negative")
        if np.any(np.diagonal(g) <= 0.0):
            raise ValueError("own-signal gains S̄(i, i) must be strictly positive")
        g.setflags(write=False)
        self._gains = g
        self._noise = check_nonnegative(noise, "noise")
        self._backend_ops: "dict[tuple, object]" = {}

    @classmethod
    def from_network(
        cls,
        network: Network,
        power: PowerAssignment,
        alpha: float,
        noise: float = 0.0,
    ) -> "SINRInstance":
        """Build the instance for a geometric/matrix network and power choice."""
        return cls(mean_signal_matrix(network, power, alpha), noise)

    # -- accessors ---------------------------------------------------------

    @property
    def gains(self) -> np.ndarray:
        """Read-only mean-signal matrix ``S̄[j, i]``."""
        return self._gains

    @property
    def noise(self) -> float:
        """Ambient noise ``ν``."""
        return self._noise

    @property
    def n(self) -> int:
        return self._gains.shape[0]

    def __len__(self) -> int:
        return self.n

    @property
    def signal(self) -> np.ndarray:
        """Own-signal strengths ``S̄(i, i)`` (the matrix diagonal)."""
        return np.diagonal(self._gains)

    @property
    def max_noise_free_sinr(self) -> np.ndarray:
        """``S̄(i,i)/ν`` per link — the best SINR achievable against noise
        alone (``+inf`` when ``ν = 0``).  Definition 1's validity threshold
        and Theorem 2's case split are stated relative to this quantity."""
        with np.errstate(divide="ignore"):
            return np.where(
                self._noise > 0.0, self.signal / max(self._noise, 1e-300), np.inf
            )

    # -- backend operators ---------------------------------------------------

    def gains_operator(self, *, keep_diagonal: bool = True):
        """Gain operator over ``S̄`` for the *active* backend config.

        Cached per ``(config, keep_diagonal)`` so repeated batch calls
        under one policy reuse the representation (in particular the
        one-time top-k selection), while a config switch transparently
        builds — and thereafter reuses — the right operator.
        """
        be = _backend.active()
        key = (be.config, keep_diagonal)
        op = self._backend_ops.get(key)
        if op is None:
            op = be.gain_operator(self._gains, keep_diagonal=keep_diagonal)
            self._backend_ops[key] = op
        return op

    def topk_gains(self, k: int, *, keep_diagonal: bool = True):
        """Sparse top-k-interferer representation of ``S̄`` (uncached).

        A direct builder for callers that want the sparse form
        irrespective of the ambient config — e.g. the scaling benchmark
        comparing dense vs sparse on one instance.
        """
        from repro.backend import TopKGains

        return TopKGains.build(self._gains, k, keep_diagonal=keep_diagonal)

    # -- SINR / success -----------------------------------------------------

    def sinr(self, active) -> np.ndarray:
        """Non-fading SINR ``γ^nf`` of every link under a transmit pattern."""
        return sinr_nonfading(
            self._gains, active, self._noise, gains_op=self.gains_operator()
        )

    def sinr_batch(self, active: np.ndarray) -> np.ndarray:
        """Batched non-fading SINR over patterns of shape ``(..., B, n)``."""
        return sinr_nonfading_batch(
            self._gains, active, self._noise, gains_op=self.gains_operator()
        )

    def successes(self, active, beta: float) -> np.ndarray:
        """Mask of links succeeding (transmitting with ``γ^nf >= β``)."""
        check_positive(beta, "beta")
        return self.sinr(active) >= beta

    def success_count(self, active, beta: float) -> int:
        """Number of successful transmissions under one pattern."""
        return int(self.successes(active, beta).sum())

    def is_feasible(self, subset, beta: float) -> bool:
        """Whether *all* links in ``subset`` succeed simultaneously
        (the "feasible set" notion of Section 6)."""
        mask = _as_active_bool(np.asarray(subset), self.n)
        if not mask.any():
            return True
        return bool(np.all(self.successes(mask, beta)[mask]))

    # -- derived instances ---------------------------------------------------

    def subinstance(self, indices) -> "SINRInstance":
        """Instance restricted to the given links (for recursive schedulers)."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("indices must be a non-empty 1-D sequence")
        return SINRInstance(self._gains[np.ix_(idx, idx)], self._noise)

    def with_noise(self, noise: float) -> "SINRInstance":
        """Same gains, different ambient noise."""
        return SINRInstance(self._gains, noise)

    def __repr__(self) -> str:
        return f"SINRInstance(n={self.n}, noise={self._noise:g})"
