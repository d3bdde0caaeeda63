"""One interference-model abstraction for the whole library.

The paper's program is moving scheduling algorithms *between*
interference models — non-fading SINR ↔ Rayleigh (Lemma 2, Theorem 2)
and onward to "further realistic" models (Section 8).  This package is
the single place that answers "does a transmission succeed":

* :class:`~repro.channel.base.Channel` — the protocol: per-slot
  sampling (:meth:`realize`), batched ``(B, n)`` pattern evaluation
  (:meth:`realize_batch`), the game's counterfactual outcomes
  (:meth:`counterfactual`), and exact or estimated success
  probabilities.
* :class:`~repro.channel.nonfading.NonFadingChannel` — the
  deterministic model of Section 2.
* :class:`~repro.channel.rayleigh.RayleighChannel` — the Theorem-1
  closed form plus distribution-exact Bernoulli sampling.
* :class:`~repro.channel.montecarlo.MonteCarloChannel` — any
  :class:`~repro.fading.models.FadingModel` (Nakagami-m, Rician-K) by
  explicit sampling on the batched CRN kernels.
* :class:`~repro.channel.block.BlockFadingChannel` — temporally
  coherent draws over a block length.
* :func:`~repro.channel.spec.make_channel` — CLI-friendly spec strings
  (``"rayleigh"``, ``"nakagami:m=2"``, ``"block:coherence=5"``).

The game (:mod:`repro.learning.game`), the latency schedulers
(:mod:`repro.latency`), the model transfers (:mod:`repro.transform`),
and the experiment drivers all evaluate service through a channel,
named by a :class:`Channel` or a spec string.
"""

from repro.channel.base import Channel
from repro.channel.block import BlockFadingChannel
from repro.channel.montecarlo import MonteCarloChannel
from repro.channel.nonfading import NonFadingChannel
from repro.channel.rayleigh import RayleighChannel
from repro.channel.spec import (
    CHANNEL_KINDS,
    make_channel,
    make_fading_model,
    parse_channel_spec,
)

__all__ = [
    "CHANNEL_KINDS",
    "Channel",
    "BlockFadingChannel",
    "MonteCarloChannel",
    "NonFadingChannel",
    "RayleighChannel",
    "make_channel",
    "make_fading_model",
    "parse_channel_spec",
]
