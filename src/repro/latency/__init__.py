"""Latency minimization — serve every request at least once, fast.

Section 4 of the paper transfers two classes of latency algorithms to
Rayleigh fading:

* **Repeated single-slot maximization** (:mod:`~repro.latency.repeated_max`)
  — schedule a capacity-maximizing set, remove the served links, recurse
  (the ``O(log n)``-approximation skeleton of [8]).  Under fading, served
  links are the ones whose *drawn* SINR cleared ``β``.
* **ALOHA-style contention resolution** (:mod:`~repro.latency.aloha`)
  — every unserved link transmits with a small probability tuned to the
  contention measure (Kesselheim–Vöcking [9]); under fading each step is
  executed 4 times per the Section-4 transformation.

:mod:`~repro.latency.multihop` composes single-hop schedules along paths
(requests relayed over intermediate nodes), as in [6], [9], [10];
:mod:`~repro.latency.schedule` holds the schedule data type and its
validity checks.

All schedulers execute on the shared slot-loop engine
(:mod:`~repro.latency.slotloop`): per-slot randomness is pre-drawn
positionally in speculative blocks and settled in place, so results are
identical for every ``slot_block`` — the block size is purely a
throughput knob (default :data:`~repro.latency.slotloop.DEFAULT_SLOT_BLOCK`).
"""

from repro.latency.aloha import aloha_latency
from repro.latency.decay import decay_latency
from repro.latency.multihop import (
    MultiHopRequest,
    multihop_latency,
    multihop_lower_bound,
)
from repro.latency.repeated_max import repeated_max_latency
from repro.latency.schedule import Schedule, replay_schedule, validate_schedule
from repro.latency.slotloop import (
    ContentionResult,
    SlotFieldBuffer,
    iter_slot_blocks,
    resolve_slot_block,
    run_contention,
    run_fixed_pattern,
)

__all__ = [
    "ContentionResult",
    "MultiHopRequest",
    "Schedule",
    "SlotFieldBuffer",
    "aloha_latency",
    "decay_latency",
    "iter_slot_blocks",
    "multihop_latency",
    "multihop_lower_bound",
    "repeated_max_latency",
    "replay_schedule",
    "resolve_slot_block",
    "run_contention",
    "run_fixed_pattern",
    "validate_schedule",
]
