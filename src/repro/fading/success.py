"""Theorem 1 — exact success probabilities under Rayleigh fading.

With each sender ``j`` transmitting independently with probability
``q_j``, the probability that receiver ``i`` decodes its signal at SINR at
least ``β`` is (Theorem 1, following Liu–Haenggi [18]):

.. math::

    Q_i(q, \\beta) = q_i \\, \\exp\\!\\Big(-\\frac{\\beta\\nu}{\\bar S(i,i)}\\Big)
        \\prod_{j \\ne i}
        \\Big( 1 - \\frac{\\beta q_j}{\\beta + \\bar S(i,i)/\\bar S(j,i)} \\Big).

The per-factor form we evaluate is the algebraically identical

.. math::

    1 - q_j \\frac{\\beta \\bar S(j,i)}{\\beta \\bar S(j,i) + \\bar S(i,i)},

which stays well-defined when ``S̄(j, i) = 0`` (the factor is then 1 —
a silent channel never hurts).  Where ``β S̄(j,i) + S̄(i,i)`` overflows
(finite gains at an extreme ``β``), the weight is evaluated as
``1 / (1 + (S̄(i,i)/β) / S̄(j,i))`` instead, which never forms the
overflowing product.

``β`` may be a per-link vector: Lemma 2 evaluates each link at its own
achieved non-fading SINR ``γ_i^nf``.
"""

from __future__ import annotations

import numpy as np

from repro import backend as _backend
from repro.core.sinr import SINRInstance
from repro.engine import chaos, guards
from repro.obs import metrics as _metrics
from repro.utils.validation import check_probability_vector

__all__ = [
    "Theorem1Kernel",
    "success_probability",
    "success_probability_conditional",
    "success_probability_conditional_batch",
]


# Interferers per receiver kept in the screening tables: enough that the
# retained log factors already drive the bound to e^{-large} on dense
# slots, small enough that a screen costs far less than an exact entry.
_SCREEN_TOPK = 16


def _beta_vector(beta, n: int) -> np.ndarray:
    arr = np.asarray(beta, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"beta must be scalar or length-{n}, got shape {arr.shape}")
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("beta values must be positive and finite")
    return arr


class Theorem1Kernel:
    """Cached Theorem-1 tensors for one ``(instance, β)`` pair.

    Every Theorem-1 evaluation needs the same ``O(n²)`` derived tensors:
    the interference weights ``w[j, i] = β_i S̄(j,i) / (β_i S̄(j,i) + S̄(i,i))``
    (fractional-``q`` product form), their logs
    ``log_factors[j, i] = log(S̄(i,i)) − log(β_i S̄(j,i) + S̄(i,i))``
    (binary-pattern sum form), and the noise exponent ``β_i ν / S̄(i,i)``.
    :class:`~repro.core.sinr.SINRInstance` is immutable and ``β`` is fixed
    at construction, so these are built lazily once and never invalidated —
    a round-level consumer (the capacity game, the regret analysis) pays
    one matvec per call instead of rebuilding three ``O(n²)`` temporaries.

    Both evaluation paths are *bit-compatible* with the module-level
    functions: :meth:`conditional` reproduces
    :func:`success_probability_conditional` exactly, and
    :meth:`conditional_batch` reproduces
    :func:`success_probability_conditional_batch` exactly (those functions
    delegate here).
    """

    __slots__ = (
        "instance",
        "beta",
        "_signal",
        "_noise_exponent",
        "_noise_term",
        "_weights",
        "_log_factors",
        "_ops",
        "_screen_cache",
        "_hit_ema",
    )

    def __init__(self, instance: SINRInstance, beta):
        self.instance = instance
        self.beta = _beta_vector(beta, instance.n)
        self._signal = np.ascontiguousarray(instance.signal)
        self._noise_exponent = self.beta * instance.noise / self._signal
        self._noise_term = np.exp(-self._noise_exponent)
        self._weights: "np.ndarray | None" = None
        self._log_factors: "np.ndarray | None" = None
        self._ops: "dict[tuple, object]" = {}
        self._screen_cache: "tuple[np.ndarray, np.ndarray] | None" = None
        self._hit_ema = 0.5

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def noise_term(self) -> np.ndarray:
        """``exp(−β_i ν / S̄(i,i))`` — the Theorem-1 noise factor."""
        return self._noise_term

    def _overflowed(self, den: np.ndarray):
        """Entries where ``den = β_i S̄(j,i) + S̄(i,i)`` overflowed (finite
        gains reach that at an extreme ``β``) as ``(j, i, r)``, with
        ``r = S̄(i,i) / (β_i S̄(j,i))`` formed without the overflowing
        product; ``None`` when every entry is finite, the common case.
        Only these entries leave the direct form, so no other byte moves.
        """
        if np.isfinite(den).all():
            return None
        j, i = np.nonzero(~np.isfinite(den))
        return j, i, self._signal[i] / self.beta[i] / self.instance.gains[j, i]

    @property
    def weights(self) -> np.ndarray:
        """``w[j, i] = t / (t + S̄(i,i))`` with ``t = β_i S̄(j,i)``; diag 0."""
        if self._weights is None:
            _metrics.add("theorem1.cache_misses")
            with np.errstate(over="ignore", invalid="ignore"):
                t = self.beta[None, :] * self.instance.gains
                den = t + self._signal[None, :]
                w = t / den
            big = self._overflowed(den)
            if big is not None:
                j, i, ratio = big
                w[j, i] = 1.0 / (1.0 + ratio)
            np.fill_diagonal(w, 0.0)
            w.setflags(write=False)
            self._weights = w
        else:
            _metrics.add("theorem1.cache_hits")
        return self._weights

    @property
    def log_factors(self) -> np.ndarray:
        """``log(S̄(i,i)) − log(β_i S̄(j,i) + S̄(i,i))`` per (j, i); diag 0."""
        if self._log_factors is None:
            _metrics.add("theorem1.cache_misses")
            with np.errstate(over="ignore"):
                den = self.beta[None, :] * self.instance.gains + self._signal[None, :]
            lf = np.log(self._signal[None, :]) - np.log(den)
            big = self._overflowed(den)
            if big is not None:
                j, i, ratio = big
                lf[j, i] = (
                    np.log(self._signal[i])
                    - np.log(self.beta[i])
                    - np.log(self.instance.gains[j, i])
                    - np.log1p(ratio)
                )
            np.fill_diagonal(lf, 0.0)
            lf.setflags(write=False)
            self._log_factors = lf
        else:
            _metrics.add("theorem1.cache_hits")
        return self._log_factors

    def _operator(self, which: str):
        """Backend operator over a cached tensor, keyed by active config.

        ``which`` names the tensor: ``"log_factors"`` (binary/batch sum
        form) or ``"weights"`` (fractional product form).  Both have a
        zero diagonal, so the top-k form never needs the diagonal row.
        Under the default config the operator wraps the cached float64
        array itself, keeping the products byte-identical.
        """
        be = _backend.active()
        key = (be.config, which)
        op = self._ops.get(key)
        if op is None:
            matrix = self.log_factors if which == "log_factors" else self.weights
            op = be.gain_operator(matrix, keep_diagonal=False)
            self._ops[key] = op
        else:
            _metrics.add("theorem1.cache_hits")
        return op

    def _guard(self, out: np.ndarray, site: str) -> np.ndarray:
        """Chaos hook + numerical guard on a probability output.

        The chaos call is a no-op unless a fault plan targets the site;
        the guard is a no-op at strictness ``"off"``.  Violations report
        the offending link indices and the kernel's ``(β, ν)`` so a
        poisoned configuration is diagnosable instead of silently
        contaminating downstream aggregates.
        """
        out = chaos.corrupt(site, out)
        return guards.check_probabilities(
            out,
            site,
            beta_min=float(self.beta.min()),
            beta_max=float(self.beta.max()),
            noise=float(self.instance.noise),
        )

    def conditional(self, q: np.ndarray) -> np.ndarray:
        """Conditional success probabilities for fractional ``q`` (the
        product form); ``q`` must be a validated ``(n,)`` float vector.

        In top-k mode the product runs over the stored interferers only
        (every dropped factor is treated as exactly 1 — a weak sender
        never hurts), which is the product-form analogue of the sparse
        matmul in the binary paths.
        """
        _metrics.add("theorem1.conditional_calls")
        op = self._operator("weights")
        qv = np.asarray(q, dtype=op.dtype)
        if op.is_sparse:
            _metrics.add("backend.sparse_matmuls")
            prod = np.prod(1.0 - qv[op.indices] * op.values, axis=0)
        else:
            factors = 1.0 - qv[:, None] * op.matrix
            prod = np.prod(factors, axis=0)
        out = self._noise_term * prod
        if op.dtype != np.float64:
            out = np.minimum(out, 1.0)
        return self._guard(out, "theorem1.conditional")

    def _binary_log_p(self, pats: np.ndarray) -> np.ndarray:
        """``patterns @ log_factors − βν/S̄ii`` through the backend shim.

        The exact sum is non-positive (every log factor is ≤ 0), but
        float32 round-off can push it a hair above 0, so non-float64
        modes clip at 0 to keep ``exp`` inside the probability guard's
        tolerance.  The default path takes no clip and stays
        byte-identical.
        """
        op = self._operator("log_factors")
        log_p = op.matmul(pats.astype(op.dtype)) - self._noise_exponent
        if op.dtype != np.float64:
            log_p = np.minimum(log_p, 0.0)
        return log_p

    def conditional_binary(self, mask: np.ndarray) -> np.ndarray:
        """Conditional success probabilities for one 0/1 pattern — a single
        ``(n,) @ (n, n)`` product against the cached log factors."""
        _metrics.add("theorem1.binary_calls")
        return self._guard(
            np.exp(self._binary_log_p(np.asarray(mask))),
            "theorem1.conditional_binary",
        )

    def conditional_batch(self, patterns: np.ndarray) -> np.ndarray:
        """Conditional success probabilities for a ``(B, n)`` batch of 0/1
        patterns — one ``(B, n) @ (n, n)`` product."""
        pats = np.asarray(patterns)
        if pats.ndim != 2 or pats.shape[1] != self.n:
            raise ValueError(f"patterns must be (B, {self.n}), got {pats.shape}")
        _metrics.add("theorem1.batch_calls")
        _metrics.add("theorem1.batch_patterns", pats.shape[0])
        return self._guard(
            np.exp(self._binary_log_p(pats)), "theorem1.conditional_batch"
        )

    @property
    def supports_entry_gather(self) -> bool:
        """Whether the exact entry-level paths (:meth:`conditional_at`,
        :meth:`screen_bound`) apply under the active backend config —
        they read the raw float64 ``log_factors``, so top-k / reduced
        dtype configs must route through :meth:`conditional_batch`."""
        op = self._operator("log_factors")
        return not op.is_sparse and op.dtype == np.float64

    @property
    def screen_cutoff(self) -> int:
        """Active-count above which :meth:`screen_bound` screening is
        cheaper than evaluating every entry exactly.

        A screen costs ``K`` lookups against an exact cost of ``a``, and
        pays only when the bound rejects most entries — i.e. when entry
        success probabilities run low.  The observed hit rate of recent
        exact evaluations (:meth:`note_hit_rate`) picks between an
        aggressive cutoff near ``K`` (low-success contention, where the
        bound rejects nearly everything) and a conservative ``3K`` (a
        well-tuned protocol whose entries succeed often, making screens
        pure overhead).  Cutoff choice only moves work between the
        screened and exact paths — outcomes are identical either way —
        so this adaptivity cannot affect results or their block-size
        invariance."""
        return _SCREEN_TOPK if self._hit_ema < 0.25 else 3 * _SCREEN_TOPK

    def note_hit_rate(self, evaluated: int, hits: int) -> None:
        """Feed back the success rate of exactly evaluated entries; an
        exponential moving average steers :attr:`screen_cutoff`."""
        if evaluated > 0:
            self._hit_ema = 0.8 * self._hit_ema + 0.2 * (hits / evaluated)

    def _screen_tables(self) -> "tuple[np.ndarray, np.ndarray]":
        """Per-receiver top-``K`` strongest interferers (most negative
        log factors), as ``(K, n)`` index and value tables."""
        tables = self._screen_cache
        if tables is None:
            k = min(_SCREEN_TOPK, self.n)
            # Partition along contiguous rows of the transpose — roughly
            # twice as fast as a strided axis-0 partition at this size.
            lt = np.ascontiguousarray(self.log_factors.T)
            part = np.argpartition(lt, k - 1, axis=1)[:, :k]
            vals = np.take_along_axis(lt, part, axis=1)
            tables = (part.T, vals.T)
            self._screen_cache = tables
        return tables

    def screen_bound(
        self, patterns: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Cheap upper bound on the conditional success probability at
        the given transmitting entries.

        Every log factor is ≤ 0, so dropping all interferers except the
        receiver's ``K`` strongest *transmitting* ones can only raise the
        probability: ``p(r, i) ≤ exp(Σ_{j ∈ topK(i) ∩ A_r} L[j, i] −
        βν/S̄ii)``.  The bound costs ``K`` table lookups per entry —
        independent of the active count — which makes it the fast path
        for dense slots (a protocol sweeping ``q`` toward 1/2), where
        hundreds of interferers drive ``p`` to ``e^{-100}``-scale and
        almost every entry can be rejected against its uniform draw
        without the exact ``a²`` evaluation.  A ``1e-9`` log-space
        inflation swallows the (≤ K + 1)-term float rounding, so
        ``u ≥ bound`` implies ``u ≥ p`` for the *exactly computed* ``p``
        too: screening can never flip an outcome, only skip work.
        """
        idx, vals = self._screen_tables()
        present = patterns[rows[None, :], idx[:, cols]]
        s = np.einsum("ke,ke->e", vals[:, cols], present)
        _metrics.add("theorem1.screened_entries", rows.size)
        return np.exp(s - self._noise_exponent[cols] + 1e-9)

    def conditional_at(
        self,
        patterns: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        *,
        actives: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None,
    ) -> np.ndarray:
        """Exact conditional success probabilities at selected
        transmitting entries of a 0/1 batch.

        For binary patterns, silent links contribute exactly 0 to the
        log-probability sum, so entry ``(r, i)`` needs only
        ``Σ_{j ∈ A_r} log_factors[j, i]`` over the row's own active set
        ``A_r`` — a ragged gather of ``a_r`` elements per requested
        entry, independent of ``n`` and of which other rows or entries
        share the call.  Each entry sums its row's active set in
        ascending index order (via ``add.reduceat``), so values are
        identical however slots are grouped: the determinism clause
        behind the slot-loop engine's block-size-invariance guarantee.

        ``actives`` optionally passes the precomputed
        ``(np.nonzero(patterns) + (row counts,))`` triple when the
        caller already holds it, sparing a second scan of the batch.
        """
        pats = np.asarray(patterns)
        if pats.ndim != 2 or pats.shape[1] != self.n:
            raise ValueError(f"patterns must be (B, {self.n}), got {pats.shape}")
        if rows.size == 0:
            return np.empty(0, dtype=np.float64)
        _metrics.add("theorem1.entry_calls")
        if actives is not None:
            frows, fcols, fcounts = actives
        else:
            frows, fcols = np.nonzero(pats)
            fcounts = np.bincount(frows, minlength=pats.shape[0])
        frow_start = np.zeros(fcounts.size, dtype=np.intp)
        np.cumsum(fcounts[:-1], out=frow_start[1:])
        # Pair space: requested entry e owns a block of a_e = |A_row(e)|
        # consecutive positions, one per interferer j ∈ A_row(e)
        # (ascending).
        a_e = fcounts[rows]
        starts = np.zeros(rows.size, dtype=np.intp)
        np.cumsum(a_e[:-1], out=starts[1:])
        total = int(starts[-1] + a_e[-1])
        intra = np.arange(total, dtype=np.intp) - np.repeat(starts, a_e)
        j_flat = fcols[np.repeat(frow_start[rows], a_e) + intra]
        i_flat = np.repeat(cols, a_e)
        vals = self.log_factors[j_flat, i_flat]
        _metrics.add("theorem1.entry_gathered", vals.size)
        sums = np.add.reduceat(vals, starts)
        p = np.exp(sums - self._noise_exponent[cols])
        return self._guard(p, "theorem1.conditional_at")


def success_probability_conditional(
    instance: SINRInstance, q, beta
) -> np.ndarray:
    """``Q_i / q_i`` — success probability of link ``i`` *given* it
    transmits, while every other sender ``j`` transmits w.p. ``q_j``.

    This is the quantity the regret-learning rewards of Section 6 are
    built on (a link that transmits succeeds with exactly this
    probability, independently across links).

    Parameters
    ----------
    instance:
        Mean signals ``S̄`` and noise ``ν``.
    q:
        Transmission probabilities, shape ``(n,)``.  ``q_i`` itself is
        ignored for link ``i`` (the conditional does not depend on it).
    beta:
        SINR threshold, scalar or per-link vector.

    Returns
    -------
    ndarray ``(n,)`` of probabilities in ``[0, 1]``.
    """
    qv = check_probability_vector(q, instance.n)
    return Theorem1Kernel(instance, beta).conditional(qv)


def success_probability_conditional_batch(
    instance: SINRInstance, patterns: np.ndarray, beta
) -> np.ndarray:
    """Conditional success probabilities for a batch of *binary* transmit
    patterns, shape ``(B, n)``.

    For 0/1 transmit indicators, Theorem 1's product becomes a sum of
    per-interferer log factors, so a whole batch reduces to one
    ``(B, n) @ (n, n)`` product:

    ``log P_i = Σ_{j active, j≠i} log(S̄ii / (S̄ii + β S̄ji)) − βν/S̄ii``.

    The entry for link ``i`` is its success probability *given it
    transmits* while the pattern's other senders transmit; whether the
    pattern includes ``i`` itself is irrelevant (diagonal factor is 0).
    """
    return Theorem1Kernel(instance, beta).conditional_batch(patterns)


def success_probability(instance: SINRInstance, q, beta) -> np.ndarray:
    """Theorem 1: exact probability ``Q_i(q_1..q_n, β)`` for every link.

    Returns ``q_i`` times the conditional success probability — i.e. the
    unconditional probability that link ``i`` transmits *and* reaches SINR
    ``β_i`` under Rayleigh fading.
    """
    qv = check_probability_vector(q, instance.n)
    return qv * success_probability_conditional(instance, qv, beta)
