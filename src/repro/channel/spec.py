"""Channel spec strings — ``"rayleigh"``, ``"nakagami:m=2"``, ``"block:coherence=5"``.

One compact, CLI-friendly grammar for naming an interference model:

.. code-block:: text

    nonfading                       deterministic SINR test
    rayleigh                        exact Theorem-1 channel (fast path)
    rayleigh-mc[:slots=4000]        Rayleigh by explicit sampling (validation)
    nakagami:m=2[,slots=4000]       Nakagami-m family, Monte Carlo
    rician:k=4[,slots=4000]         Rician-K family, Monte Carlo
    block:coherence=5[,family=nakagami,m=2]
                                    block fading, coherent over L slots

The grammar is ``name[:key=value[,key=value...]]``.  ``slots`` sets the
sample count of the Monte-Carlo probability estimators; ``family``
selects the per-block fading family of the block channel (default
rayleigh).  Experiment drivers, the ``channel=`` keyword of the game
and the latency schedulers, and the CLI's ``--channel`` flag all pass
these strings through :func:`make_channel`.
"""

from __future__ import annotations

from repro.channel.base import Channel
from repro.channel.block import BlockFadingChannel
from repro.channel.montecarlo import MonteCarloChannel
from repro.channel.nonfading import NonFadingChannel
from repro.channel.rayleigh import RayleighChannel
from repro.core.sinr import SINRInstance
from repro.fading.models import (
    FadingModel,
    NakagamiFading,
    NoFading,
    RayleighFading,
    RicianFading,
)

__all__ = [
    "CHANNEL_KINDS",
    "FADING_FAMILIES",
    "make_channel",
    "make_fading_model",
    "parse_channel_spec",
]

#: Recognised spec heads, for error messages and the CLI help text.
CHANNEL_KINDS = ("nonfading", "rayleigh", "rayleigh-mc", "nakagami", "rician", "block")

#: Fading families a ``block:...,family=...`` parameter may name.
FADING_FAMILIES = ("rayleigh", "nakagami", "rician", "nonfading")


def parse_channel_spec(spec: str) -> "tuple[str, dict[str, str]]":
    """Split ``"name:k1=v1,k2=v2"`` into ``(name, {k1: v1, k2: v2})``."""
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"channel spec must be a non-empty string, got {spec!r}")
    head, _, tail = spec.strip().partition(":")
    name = head.strip().lower()
    params: "dict[str, str]" = {}
    if tail:
        for part in tail.split(","):
            key, eq, value = part.partition("=")
            if not eq or not key.strip() or not value.strip():
                raise ValueError(
                    f"bad channel parameter {part!r} in {spec!r}; expected key=value"
                )
            params[key.strip().lower()] = value.strip()
    return name, params


def _pop_float(params: "dict[str, str]", *names: str) -> "float | None":
    for key in names:
        if key in params:
            raw = params.pop(key)
            try:
                return float(raw)
            except ValueError:
                raise ValueError(
                    f"channel parameter {key}={raw!r} must be a number"
                ) from None
    return None


def _pop_int(params: "dict[str, str]", *names: str) -> "int | None":
    for key in names:
        if key in params:
            raw = params.pop(key)
            try:
                value = float(raw)
            except ValueError:
                value = None
            if value is None or not value.is_integer():
                raise ValueError(
                    f"channel parameter {key}={raw!r} must be an integer"
                )
            return int(value)
    return None


def _reject_leftovers(name: str, params: "dict[str, str]") -> None:
    if params:
        raise ValueError(
            f"unknown parameter(s) {sorted(params)} for channel {name!r}"
        )


def make_fading_model(name: str, params: "dict[str, str]") -> FadingModel:
    """Build the :class:`~repro.fading.models.FadingModel` a spec names.

    Mutates ``params`` by popping the keys it consumes, so callers can
    reject leftovers afterwards.
    """
    if name in ("rayleigh", "rayleigh-mc"):
        return RayleighFading()
    if name == "nakagami":
        m = _pop_float(params, "m")
        if m is None:
            raise ValueError("nakagami channel needs an m parameter, e.g. nakagami:m=2")
        return NakagamiFading(m)
    if name == "rician":
        k = _pop_float(params, "k", "k_factor")
        if k is None:
            raise ValueError("rician channel needs a k parameter, e.g. rician:k=4")
        return RicianFading(k)
    if name == "nonfading":
        return NoFading()
    raise ValueError(
        f"unknown fading family {name!r}; choose from {FADING_FAMILIES}"
    )


def make_channel(
    spec: "str | Channel", instance: SINRInstance, beta: float
) -> Channel:
    """Resolve a channel spec (or pass through an existing channel).

    An already-built :class:`Channel` is returned unchanged provided it
    was built on the same instance; strings go through the grammar
    above.
    """
    if isinstance(spec, Channel):
        if spec.instance is not instance and spec.n != instance.n:
            raise ValueError(
                "channel was built for a different instance "
                f"(n={spec.n}, expected n={instance.n})"
            )
        return spec
    name, params = parse_channel_spec(spec)
    if name == "nonfading":
        _reject_leftovers(name, params)
        return NonFadingChannel(instance, beta)
    if name == "rayleigh":
        _reject_leftovers(name, params)
        return RayleighChannel(instance, beta)
    if name in ("rayleigh-mc", "nakagami", "rician"):
        slots = _pop_int(params, "slots", "mc_slots")
        model = make_fading_model(name, params)
        _reject_leftovers(name, params)
        kwargs = {} if slots is None else {"mc_slots": slots}
        return MonteCarloChannel(instance, beta, model, **kwargs)
    if name == "block":
        length = _pop_int(params, "coherence", "l", "block_length")
        if length is None:
            raise ValueError(
                "block channel needs a coherence length, e.g. block:coherence=5"
            )
        family = params.pop("family", "rayleigh")
        model = make_fading_model(family, params)
        _reject_leftovers(name, params)
        return BlockFadingChannel(instance, beta, block_length=length, model=model)
    raise ValueError(f"unknown channel {name!r}; choose from {CHANNEL_KINDS}")
