"""The batched slot-loop engine — speculative block execution of protocols.

Every latency protocol in this library is, at heart, the same loop: draw
a transmit pattern for the current slot from the protocol's randomness,
realize the channel, update the served set, repeat.  Executed one slot
at a time that loop pays an interpreter round trip plus a full kernel
call per slot; this module executes it in **speculative blocks of B
slots** instead:

1. **Positional randomness.**  The engine spawns two child streams from
   the caller's generator — one for transmit coin flips, one for the
   channel's exogenous randomness ("fields") — and assigns every
   physical slot ``t`` its own field *by position*: slot ``t`` always
   reads rows ``t`` of both streams, no matter how slots are grouped
   into blocks.  Uniform/exponential/gamma generators fill arrays
   element-sequentially, and the model-specific overrides of
   :meth:`~repro.channel.base.Channel.slot_fields` preserve that order,
   so the per-slot draw schedule is **identical for every block size**
   — ``B = 1`` *is* the sequential reference, byte for byte.
2. **Speculative evaluation.**  A block of ``m`` slots is evaluated
   under the optimistic assumption that the served set does not change
   inside the block: patterns ``(U_t < q_t) & unserved`` for all ``m``
   rows at once, then one batched channel evaluation against the cached
   fields.
3. **Longest-valid-prefix commit.**  A slot's speculation is invalid
   exactly when some link that succeeded *earlier in the block* still
   transmits in it.  With ``first_hit[i]`` the first row where link
   ``i`` succeeded, row ``r`` is valid iff no transmitting link has
   ``first_hit < r`` — a single vectorized ``argmax`` test.  The valid
   prefix is committed; evaluation resumes from the first invalidated
   slot with the corrected served set **against the same cached
   fields** (common random numbers — the fields are independent of the
   protocol state, so re-evaluation stays distribution- and
   schedule-exact).
4. **Block-fading alignment.**  :class:`~repro.channel.block.
   BlockFadingChannel` draws its fields through ``_advance_chunks``, so
   coherence-block boundaries fall exactly where the slot-by-slot loop
   would redraw; the cached chunks are sliced per speculation window.

The RNG-schedule contract this engine defines (and the equivalence
suite pins): *every physical slot owns one field draw, even when its
transmit set is empty.*  The pre-engine loops skipped the channel call
on empty slots; under the positional contract the field is drawn and
simply never read, which is what makes outcomes independent of how
state updates land.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as _metrics
from repro.utils.rng import as_generator

__all__ = [
    "DEFAULT_SLOT_BLOCK",
    "ContentionResult",
    "SlotFieldBuffer",
    "iter_slot_blocks",
    "resolve_replay_block",
    "resolve_slot_block",
    "run_contention",
    "run_fixed_pattern",
]

#: Default speculative block size.  Large enough to amortize interpreter
#: and kernel-launch overhead, small enough that a mid-block state
#: change wastes little work (the engine additionally adapts its
#: speculation window inside this cap).
DEFAULT_SLOT_BLOCK = 64

#: Replay paths (recorded schedules, transform samplers) have no state
#: feedback, so bigger blocks are a pure win; they default to this many
#: slots per chunk.
_REPLAY_BLOCK = 512

#: Size of a contention run's first speculation window, in link-slots:
#: ``max(executions, 8, _FIRST_WINDOW_LINK_SLOTS // n)`` rows, capped at
#: the block cap.  That is 32 rows at n = 100 and 8 rows from n = 400 up,
#: so a repeat-4 ALOHA or decay run of 35-40 slots at n = 100 takes about
#: two windows rather than five.
_FIRST_WINDOW_LINK_SLOTS = 3200

#: Cost cap for one speculation window, in predicted transmitting
#: pairs (Σ over admitted slots of the squared expected active count —
#: the scaling of the kernel's ragged entry gather).  Bounds both the
#: wasted work when a window is invalidated deep inside and the peak
#: gather size under protocols that sweep the access probability high.
_WINDOW_PAIR_BUDGET = 1 << 21

_EMPTY_SLOT = np.empty(0, dtype=np.intp)
_EMPTY_SLOT.setflags(write=False)


def _check_block(block) -> int:
    b = int(block)
    if b < 1:
        raise ValueError(f"slot block must be >= 1, got {block}")
    return b


def resolve_slot_block(slot_block: "int | None") -> int:
    """``None`` means :data:`DEFAULT_SLOT_BLOCK`; explicit values are checked."""
    if slot_block is None:
        return DEFAULT_SLOT_BLOCK
    return _check_block(slot_block)


def resolve_replay_block(slot_block: "int | None") -> int:
    """Block size for state-free replay paths: an explicit value wins;
    the default is ``512`` (replay has no speculation cost, so small
    blocks only add per-chunk overhead)."""
    if slot_block is None:
        return _REPLAY_BLOCK
    return _check_block(slot_block)


def iter_slot_blocks(total: int, slot_block: "int | None" = None):
    """Yield ``(lo, hi)`` chunk bounds covering ``range(total)``."""
    block = resolve_slot_block(slot_block)
    lo = 0
    while lo < total:
        hi = min(total, lo + block)
        yield lo, hi
        lo = hi


class SlotFieldBuffer:
    """Positional cache of a channel's per-slot fields.

    Fields are drawn strictly in slot order from one dedicated stream
    (so the draw schedule never depends on block grouping) and cached in
    windows; :meth:`apply` evaluates a pattern batch against the cached
    rows, re-usably — the prefix-commit loop re-applies corrected
    patterns to the *same* fields.  :meth:`release` drops windows wholly
    below the committed frontier to bound memory.
    """

    def __init__(self, channel, rng):
        self._channel = channel
        self._gen = as_generator(rng)
        self._windows: "list[tuple[int, int, object]]" = []  # (start, stop, fields)
        self._drawn = 0

    def ensure(self, upto: int) -> None:
        """Draw fields for every slot below ``upto`` not yet drawn."""
        if upto > self._drawn:
            fields = self._channel.slot_fields(upto - self._drawn, self._gen)
            self._windows.append((self._drawn, upto, fields))
            self._drawn = upto

    def _spans(self, start: int, m: int):
        """``(lo, hi, fields, offset)`` for each cached window overlapping
        slots ``start .. start+m-1``, drawing what is missing first;
        ``lo``/``hi`` are relative to ``start``."""
        self.ensure(start + m)
        for ws, we, fields in self._windows:
            lo = max(ws, start)
            hi = min(we, start + m)
            if lo < hi:
                yield lo - start, hi - start, fields, lo - ws

    def apply(self, start: int, patterns: np.ndarray) -> np.ndarray:
        """Success masks of ``patterns`` at slots ``start, start+1, ...``."""
        pats = np.ascontiguousarray(patterns)
        out = np.zeros(pats.shape, dtype=bool)
        for lo, hi, fields, offset in self._spans(start, pats.shape[0]):
            out[lo:hi] = self._channel.apply_slot_fields(fields, pats[lo:hi], offset=offset)
        return out

    def apply_repeated(self, start: int, mask: np.ndarray, m: int) -> np.ndarray:
        """Success masks of one transmit ``mask`` at slots ``start ..
        start+m-1``: ``apply`` of ``m`` copies of it, which a channel
        may evaluate once for all rows
        (:meth:`~repro.channel.base.Channel.apply_repeated_fields`)."""
        out = np.zeros((m, mask.size), dtype=bool)
        for lo, hi, fields, offset in self._spans(start, m):
            out[lo:hi] = self._channel.apply_repeated_fields(
                fields, mask, hi - lo, offset=offset
            )
        return out

    def release(self, below: int) -> None:
        """Forget windows that end at or before slot ``below``."""
        self._windows = [w for w in self._windows if w[1] > below]


class _TransmitBuffer:
    """Positional cache of per-slot transmit uniforms (one row per slot)."""

    def __init__(self, n: int, rng):
        self._n = n
        self._gen = as_generator(rng)
        self._start = 0
        self._rows = np.empty((0, n), dtype=np.float64)

    def rows(self, start: int, m: int) -> np.ndarray:
        need = start + m - (self._start + self._rows.shape[0])
        if need > 0:
            fresh = self._gen.random((need, self._n))
            self._rows = np.concatenate([self._rows, fresh], axis=0)
        lo = start - self._start
        return self._rows[lo : lo + m]

    def release(self, below: int) -> None:
        drop = below - self._start
        if drop > 0:
            self._rows = self._rows[drop:]
            self._start = below


@dataclass(frozen=True)
class ContentionResult:
    """Outcome of :func:`run_contention`.

    ``slots`` lists the executed transmit sets (padded with empty slots
    to the protocol-step boundary, as the sequential loops do);
    ``served_at`` holds the physical slot of each link's first service
    (``-1`` if never served); ``finished`` is False when the step budget
    ran out first.
    """

    finished: bool
    slots: "list[np.ndarray]"
    served_at: np.ndarray


def _q_rows(q_of_step, start, m, executions, n):
    """Per-row probability matrix for slots ``start .. start+m-1``.

    ``q_of_step(step)`` may return a scalar or an ``(n,)`` vector; it is
    called once per protocol step the rows span, in step order, and rows
    sharing a step share that evaluation.
    """
    first = start // executions
    probe = np.asarray(q_of_step(first), dtype=np.float64)
    width = n if probe.ndim == 1 else 1
    per_step = np.empty(((start + m - 1) // executions - first + 1, width), dtype=np.float64)
    per_step[0] = probe
    for k in range(1, per_step.shape[0]):
        per_step[k] = np.asarray(q_of_step(first + k), dtype=np.float64)
    return per_step[(start + np.arange(m)) // executions - first]


def run_contention(
    channel,
    q_of_step,
    rng=None,
    *,
    executions: int = 1,
    max_steps: int,
    slot_block: "int | None" = None,
) -> ContentionResult:
    """Run a contention protocol (every unserved link transmits with a
    per-step probability) to completion or budget exhaustion.

    Parameters
    ----------
    channel:
        The :class:`~repro.channel.base.Channel` serving transmissions.
    q_of_step:
        ``step -> probability`` (scalar or per-link vector); the
        protocol step of physical slot ``t`` is ``t // executions``.
    rng:
        Parent stream; the engine spawns the transmit and field streams
        from it (one ``spawn(2)``, independent of the block size).
    executions:
        Physical slots per protocol step (the Section-4 ``repeats``
        under stochastic channels; 1 for deterministic ones).
    max_steps:
        Protocol-step budget; the run executes at most
        ``max_steps * executions`` physical slots.
    slot_block:
        Speculative block cap ``B`` (``None`` → :data:`DEFAULT_SLOT_BLOCK`).
        **Results are identical for every value** — the engine's RNG
        schedule is positional; ``B`` only trades throughput against
        wasted speculation.

    The first window has ``max(executions, 8, 3200 // n)`` rows, capped
    at ``B``: small networks finish in few slots, so their runs start
    wide.  Later windows double after a window that settled without
    re-evaluation and halve after one that re-evaluated more rows than
    it held.  Window sizes, like ``B``, never change results.
    """
    if executions < 1:
        raise ValueError(f"executions must be >= 1, got {executions}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    gen = as_generator(rng)
    tx_stream, field_stream = gen.spawn(2)
    n = channel.n
    cap = resolve_slot_block(slot_block)
    max_slots = max_steps * executions

    unserved = np.ones(n, dtype=bool)
    served_at = np.full(n, -1, dtype=np.int64)
    slots: "list[np.ndarray]" = []
    txbuf = _TransmitBuffer(n, tx_stream)
    fields = SlotFieldBuffer(channel, field_stream)
    row_index = np.arange(cap)[:, None]

    t = 0
    window = min(cap, max(executions, 8, _FIRST_WINDOW_LINK_SLOTS // max(n, 1)))
    while unserved.any() and t < max_slots:
        m = min(window, max_slots - t)
        q = _q_rows(q_of_step, t, m, executions, n)
        if m > 1:
            # Cost-bounded admission: expected per-slot evaluation work
            # scales with the square of the active count (the kernel's
            # ragged gather touches a² entries per slot), so admit rows
            # only while the predicted total stays inside the budget.
            # A protocol sweeping q up to 1/2 (decay) would otherwise
            # fill a block with enormously expensive slots.  Window
            # sizing never affects results — only throughput.
            act = q @ unserved if q.shape[1] == n else q[:, 0] * unserved.sum()
            # Dense slots are screened at ~K lookups per transmitting
            # entry (kernel top-K bound) instead of the full a² gather,
            # so their admission price grows linearly past the cutoff.
            cost = np.minimum(act * act, act * 64.0)
            cum = np.cumsum(cost)
            admitted = int(np.searchsorted(cum, _WINDOW_PAIR_BUDGET) + 1)
            # Cost-cliff cut: never append rows an order of magnitude
            # more expensive than the window's mean so far.  A protocol
            # that sweeps its access probability back up (decay) restarts
            # its expensive phase there; deferring those rows to the next
            # window means they are evaluated with an already-settled
            # served set instead of being speculatively re-evaluated
            # after every service in the cheap phase before them.
            jumps = np.flatnonzero(
                cost[1:] > 16.0 * (cum[:-1] / np.arange(1, m)) + 32.0
            )
            if jumps.size:
                admitted = min(admitted, int(jumps[0]) + 1)
            if admitted < m:
                m = admitted
                q = q[:m]
        uniforms = txbuf.rows(t, m)
        pats = (uniforms < q) & unserved
        pats0 = pats.copy()
        ok = fields.apply(t, pats) & pats
        _metrics.add("slotloop.slots_speculated", m)

        # Settle the window in place.  The sequential trajectory is the
        # unique fixed point where every link transmits per protocol up
        # to and including its first-service row and is silent after —
        # so iterate: derive the desired patterns from the current
        # first-service beliefs, re-evaluate the span of rows whose
        # patterns changed (against the same cached fields — common
        # random numbers), repeat until stable.  For every channel whose
        # field evaluation is monotone in the transmit set (removing an
        # interferer never revokes a success — all in-tree channels),
        # services only move earlier, the desired sets shrink
        # monotonically, and this settles in a handful of passes.  A
        # strict mode guards the general case: silencing only services
        # that lie before the first invalid row provably advances that
        # frontier every pass, terminating within m passes.
        passes = 0
        reapplied = 0
        strict = False
        while True:
            has = ok.any(axis=0)
            first_hit = np.where(has, ok.argmax(axis=0), m)
            if strict:
                later_tx = pats & (row_index[:m] > first_hit[None, :])
                invalid_rows = later_tx.any(axis=1)
                if not invalid_rows.any():
                    break
                v = int(invalid_rows.argmax())
                frontier = np.where(has & (first_hit < v), first_hit, m)
                desired = pats0 & (row_index[:m] <= frontier[None, :])
            else:
                desired = pats0 & (row_index[:m] <= first_hit[None, :])
            diff_rows = np.flatnonzero((desired != pats).any(axis=1))
            if diff_rows.size == 0:
                break
            passes += 1
            strict = strict or passes > m
            reapplied += diff_rows.size
            # One span from the first to the last changed row.  Rows are
            # evaluated independently against their own fixed fields, so
            # the unchanged rows in between re-derive the masks they
            # already hold; one call costs less than one per run.
            lo, hi = int(diff_rows[0]), int(diff_rows[-1]) + 1
            pats[lo:hi] = desired[lo:hi]
            ok[lo:hi] = fields.apply(t + lo, pats[lo:hi]) & pats[lo:hi]
        _metrics.add("slotloop.settle_passes", passes)
        _metrics.add("slotloop.settle_rows", reapplied)

        newly = has
        if not (unserved & ~newly).any():
            # Everyone served inside the window: stop at the slot of the
            # last first-service (later rows would have had empty
            # transmit sets anyway).
            commit = int(first_hit[newly].max()) + 1
        else:
            commit = m

        commit_rows, commit_cols = np.nonzero(pats[:commit])
        bounds = np.searchsorted(commit_rows, np.arange(commit + 1)).tolist()
        slots.extend([commit_cols[a:b] for a, b in zip(bounds, bounds[1:])])
        served_at[newly] = t + first_hit[newly]
        unserved &= ~newly
        t += commit
        _metrics.add("slotloop.slots_committed", commit)
        _metrics.add("slotloop.blocks")

        txbuf.release(t)
        fields.release(t)
        # Adapt the speculation window: grow while windows settle
        # cleanly, shrink when settling re-evaluated more rows than the
        # window committed (speculation is wasting work).
        if reapplied == 0:
            window = min(cap, window * 2)
        elif reapplied > m:
            window = max(1, window // 2)

    finished = not unserved.any()
    if finished:
        # The sequential loops finish a protocol step before stopping:
        # the remaining executions of the final step run with empty
        # transmit sets.  Pad to the step boundary so latency stays a
        # multiple of ``executions``.
        slots.extend([_EMPTY_SLOT] * ((-len(slots)) % executions))
    return ContentionResult(finished=finished, slots=slots, served_at=served_at)


def run_fixed_pattern(
    fields: SlotFieldBuffer,
    start: int,
    mask: np.ndarray,
    *,
    max_rows: int,
    slot_block: "int | None" = None,
) -> "tuple[int, np.ndarray]":
    """Repeat one transmit ``mask`` from slot ``start`` until some
    transmitting link succeeds, or ``max_rows`` slots pass.

    The fixed-pattern analogue of the speculative prefix: schedulers
    that re-plan only after a success (repeated maximization, multi-hop
    frontiers) repeat the same set slot after slot, so whole blocks can
    be evaluated at once and truncated at the first row with any
    success.  Returns ``(rows_used, ok)`` where ``ok`` is the success
    mask of the last evaluated slot — all-False when the budget ran out
    without a success.

    The speculation window starts at one slot and doubles up to the
    block cap, so high-success channels never over-draw fields.  Every
    row of a window holds the same pattern, so the window goes to the
    channel as one pattern and a row count
    (:meth:`SlotFieldBuffer.apply_repeated`): the Rayleigh channel then
    evaluates the pattern's Theorem-1 probabilities once and thresholds
    each row's uniforms against them.
    """
    cap = resolve_slot_block(slot_block)
    n = mask.size
    used = 0
    window = 1
    while used < max_rows:
        m = min(window, max_rows - used)
        ok = fields.apply_repeated(start + used, mask, m) & mask
        _metrics.add("slotloop.slots_speculated", m)
        hit_rows = ok.any(axis=1)
        if hit_rows.any():
            r = int(hit_rows.argmax())
            _metrics.add("slotloop.slots_committed", r + 1)
            return used + r + 1, ok[r]
        used += m
        _metrics.add("slotloop.slots_committed", m)
        window = min(cap, window * 2)
    return used, np.zeros(n, dtype=bool)
