"""Block-fading channel: coherent gains over a coherence time ``L``.

The temporally-correlated member of the channel family, modelling block
fading for any :class:`~repro.fading.models.FadingModel`: instantaneous
gains stay constant for ``L`` consecutive slots and are redrawn
independently between blocks.  ``L = 1`` recovers the i.i.d. assumption
of Section 2 exactly; the E15 ablation prices what the Section-4
transformation loses as ``L`` grows (repeats inside one coherence block
see the same channel, so they stop helping).

This is the one *stateful* channel: consecutive :meth:`realize` calls
advance time, and the current block's draw matrix persists between
calls — that temporal correlation is the physics being modelled, not
hidden randomness.  Fresh draws still come only from the generator the
caller passes in, so runs remain reproducible, and :meth:`reset`
restarts time for a new trial.
"""

from __future__ import annotations

import numpy as np

from repro.channel.base import Channel
from repro.core.sinr import SINRInstance
from repro.fading.models import FadingModel, RayleighFading, _sinr_from_draws
from repro.obs import metrics as _metrics
from repro.utils.rng import as_generator

__all__ = ["BlockFadingChannel"]

#: Bytes of per-slot draw matrices :meth:`BlockFadingChannel.transformed_steps`
#: stages before evaluating them in one kernel call.
STEP_BUFFER_BYTES = 1 << 20


class BlockFadingChannel(Channel):
    """Channel whose realisation is frozen for ``block_length`` slots.

    Parameters
    ----------
    instance, beta:
        Mean signals, noise, threshold.
    block_length:
        Coherence time ``L`` in slots; ``1`` is the paper's i.i.d. model.
    model:
        Fading family of the per-block draws (default Rayleigh).
    """

    def __init__(
        self,
        instance: SINRInstance,
        beta: float,
        *,
        block_length: int = 1,
        model: "FadingModel | None" = None,
    ):
        super().__init__(instance, beta)
        if block_length <= 0:
            raise ValueError(f"block_length must be positive, got {block_length}")
        self.block_length = int(block_length)
        self.model = model if model is not None else RayleighFading()
        self._t = 0
        self._draws: "np.ndarray | None" = None

    @property
    def name(self) -> str:
        return f"block(L={self.block_length}, {self.model.name})"

    @property
    def time(self) -> int:
        """Number of slots realized since construction / :meth:`reset`."""
        return self._t

    def reset(self) -> None:
        self._t = 0
        self._draws = None

    def _step_draws(self, rng) -> np.ndarray:
        """Advance one slot, redrawing at block boundaries only."""
        if self._draws is None or self._t % self.block_length == 0:
            _metrics.add("channel.block_redraws")
            self._draws = self.model.sample(self.instance.gains, as_generator(rng))
        self._t += 1
        return self._draws

    def _advance_chunks(self, num_slots: int, rng):
        """Yield ``(start, stop, draws)`` coherence-block chunks covering
        ``num_slots`` consecutive slots, advancing the channel clock.

        Redraws happen exactly where the slot-by-slot loop would redraw
        (at clock multiples of ``block_length``), from the same generator,
        so chunked and looped execution consume identical randomness.
        """
        gen = as_generator(rng)
        done = 0
        while done < num_slots:
            if self._draws is None or self._t % self.block_length == 0:
                _metrics.add("channel.block_redraws")
                self._draws = self.model.sample(self.instance.gains, gen)
            left_in_block = self.block_length - (self._t % self.block_length)
            take = min(left_in_block, num_slots - done)
            self._t += take
            yield done, done + take, self._draws
            done += take

    def realize(self, active, rng=None) -> np.ndarray:
        mask = self._mask(active)
        draws = self._step_draws(rng)
        if not mask.any():
            return np.zeros(self.n, dtype=bool)
        sinr = _sinr_from_draws(draws[None, :, :], mask, self.instance.noise)[0]
        return sinr >= self.beta

    def realize_batch(self, patterns: np.ndarray, rng=None) -> np.ndarray:
        """Coherence-block-chunked batch: slots sharing a block are
        evaluated against their common draw matrix in one vectorized
        pass, with redraws (and hence randomness consumption) exactly
        where the slot-by-slot loop would place them."""
        pats = self._patterns(patterns)
        _metrics.add("channel.realize_slots", pats.shape[0])
        out = np.zeros(pats.shape, dtype=bool)
        for start, stop, draws in self._advance_chunks(pats.shape[0], rng):
            chunk = pats[start:stop]
            sinr = self._chunk_sinr(draws, chunk)
            out[start:stop] = sinr >= self.beta
        return out

    def _chunk_sinr(self, draws: np.ndarray, chunk: np.ndarray) -> np.ndarray:
        """SINRs of a pattern chunk against one coherence block's draws.

        Dense float64 operators take the exact einsum kernel verbatim —
        the default config stays byte-identical.  Sparse/float32 modes
        gather the block's draw values onto the top-k selection built
        from the *mean* gains (the draws themselves stay dense, so
        randomness consumption is backend-independent).
        """
        op = self.instance.gains_operator(keep_diagonal=True)
        if not op.is_sparse and op.dtype == np.float64:
            return _sinr_from_draws(draws, chunk, self.instance.noise)
        signal = np.diagonal(draws)
        total = op.gather_matmul(chunk.astype(op.dtype), draws)
        denom = total - chunk * signal + self.instance.noise
        out = np.zeros(denom.shape, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(
                np.broadcast_to(signal, denom.shape),
                denom,
                out=out,
                where=chunk & (denom > 0.0),
            )
        out[chunk & (denom <= 0.0)] = np.inf
        return out

    def slot_fields(self, num_slots: int, rng=None):
        """Coherence-block chunks for the next ``num_slots`` slots.

        Fields are the ``(start, stop, draws)`` chunks of
        :meth:`_advance_chunks`: the channel clock advances as fields
        are *drawn* (strictly in slot order), so chunk boundaries — and
        hence redraw positions — land exactly where the slot-by-slot
        loop would put them, for any speculation window.
        """
        if num_slots <= 0:
            return []
        return list(self._advance_chunks(num_slots, rng))

    def apply_slot_fields(self, fields, patterns, offset: int = 0) -> np.ndarray:
        pats = self._patterns(patterns)
        out = np.zeros(pats.shape, dtype=bool)
        for start, stop, draws in fields:
            lo = max(start, offset)
            hi = min(stop, offset + pats.shape[0])
            if lo >= hi:
                continue
            chunk = pats[lo - offset : hi - offset]
            out[lo - offset : hi - offset] = self._chunk_sinr(draws, chunk) >= self.beta
        return out

    def counterfactual(self, active, rng=None) -> np.ndarray:
        mask = self._mask(active)
        draws = self._step_draws(rng)
        return self._counterfactual_against(draws, mask[None, :])[0]

    def counterfactual_batch(self, patterns: np.ndarray, rng=None) -> np.ndarray:
        """Coherence-block-chunked had-I-sent masks for ``(B, n)``
        patterns; the clock advances by ``B`` slots."""
        pats = self._patterns(patterns)
        _metrics.add("channel.counterfactual_slots", pats.shape[0])
        out = np.zeros(pats.shape, dtype=bool)
        for start, stop, draws in self._advance_chunks(pats.shape[0], rng):
            out[start:stop] = self._counterfactual_against(draws, pats[start:stop])
        return out

    def _counterfactual_against(
        self, draws: np.ndarray, patterns: np.ndarray
    ) -> np.ndarray:
        """Had-I-sent masks for a chunk of patterns sharing one draw.

        The product routes through the instance's gain operator: a dense
        float64 operator computes ``patterns @ draws`` byte-identically;
        the top-k form gathers this block's draw values onto the sparse
        selection built from the mean gains.
        """
        op = self.instance.gains_operator(keep_diagonal=True)
        signal = np.diagonal(draws)
        total = op.gather_matmul(patterns.astype(op.dtype), draws)
        denom = total - patterns * signal + self.instance.noise
        with np.errstate(divide="ignore", invalid="ignore"):
            sinr = np.where(denom > 0.0, signal / np.maximum(denom, 1e-300), np.inf)
        return sinr >= self.beta

    def transformed_step(self, q, rng=None, *, repeats: int = 4) -> np.ndarray:
        """One Section-4 transformed protocol step under this channel
        (:meth:`transformed_steps` with one step)."""
        return self.transformed_steps(q, 1, rng, repeats=repeats)[0]

    def transformed_steps(
        self, q, num_steps: int, rng=None, *, repeats: int = 4
    ) -> np.ndarray:
        """``num_steps`` consecutive Section-4 transformed protocol steps.

        Each of a step's ``repeats`` executions is one slot: it redraws
        the transmit pattern (protocol randomness is always fresh) but
        the channel refreshes only at block boundaries — the regime E15
        studies.  Returns the ``(num_steps, n)`` per-step any-execution
        success masks.

        Slot by slot, the generator calls are those of a loop of
        ``pattern = rng.random(n) < q`` then ``realize(pattern, rng)``:
        the pattern draw, then the block redraw at block boundaries.
        The walk goes block by block in that order — the block's first
        pattern row, its draw matrix, then its other pattern rows in one
        call — staging as many blocks as fit in
        :data:`STEP_BUFFER_BYTES` (at least one).  One SINR kernel call
        per staged group evaluates every slot against its block's draw,
        so masks, clock and redraw counts equal the loop's.  A walk that
        enters mid-block evaluates the head of the run against the held
        draw, and one that ends mid-block leaves its last draw held.
        """
        if num_steps < 1:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        if repeats < 1:
            raise ValueError(f"repeats must be positive, got {repeats}")
        gen = as_generator(rng)
        qv = np.asarray(q, dtype=np.float64)
        n, length, gains = self.n, self.block_length, self.instance.gains
        total = num_steps * repeats
        # Slots staged per block; a longer block is walked in pieces.
        rows = min(length, total, max(1, STEP_BUFFER_BYTES // (8 * n)))
        group = min(max(1, STEP_BUFFER_BYTES // (8 * n * (n + rows))), total // rows)
        uniforms = np.empty((group * rows, n), dtype=np.float64)
        draws = np.empty((group, n, n), dtype=np.float64)
        hits = np.empty((total, n), dtype=bool)
        unit_gains = self.model.unit_gains
        held, redraws, done = self._draws, 0, 0
        while done < total:
            # A group is up to `group` whole blocks, or one piece of a
            # block: entered mid-way, cut by the run's end, or too long.
            phase = self._t % length
            fresh = held is None or phase == 0
            size = min(length - phase, total - done, rows)
            count = min(group, (total - done) // length) if fresh and size == length else 1
            slots = count * size
            u = uniforms[:slots]
            gen.random(out=u[0])
            if fresh:
                for k in range(count):
                    # FadingModel.sample's product, written into the buffer.
                    np.multiply(unit_gains(gen, gains.shape), gains, out=draws[k])
                    # This block's other rows and the next block's first.
                    rest = u[k * size + 1 : (k + 1) * size + 1]
                    if len(rest):
                        gen.random(out=rest)
                redraws += count
                staged = draws[:count]
                held = staged[-1]
            else:
                if size > 1:
                    gen.random(out=u[1:])
                staged = held[None]
            sinr = _sinr_from_draws(
                staged[:, None], (u < qv).reshape(count, size, n), self.instance.noise
            )
            hits[done : done + slots] = (sinr >= self.beta).reshape(slots, n)
            self._t += slots
            done += slots
        if redraws:
            _metrics.add("channel.block_redraws", redraws)
            self._draws = held.copy()
        return hits.reshape(num_steps, repeats, n).any(axis=1)

    def expected_successes(self, subset, rng=None) -> float:
        """Single-slot expectation by Monte Carlo (coherence is temporal
        and does not change the one-slot marginal law).  Stateless: does
        not advance the channel's clock."""
        mask = self._mask(np.asarray(subset))
        if not mask.any():
            return 0.0
        gen = as_generator(rng)
        trials = 400
        total = 0
        for _ in range(trials):
            draws = self.model.sample(self.instance.gains, gen)
            sinr = _sinr_from_draws(draws[None, :, :], mask, self.instance.noise)[0]
            total += int((sinr >= self.beta).sum())
        return total / trials

    def subchannel(self, indices) -> "Channel":
        raise NotImplementedError(
            "a block-fading channel carries temporal state tied to the full "
            "gain matrix; build a fresh channel on the sub-instance instead"
        )
