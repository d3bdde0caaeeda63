"""The channel spec grammar and :func:`make_channel` resolution."""

import numpy as np
import pytest

from repro.channel import (
    BlockFadingChannel,
    MonteCarloChannel,
    NonFadingChannel,
    RayleighChannel,
    make_channel,
    parse_channel_spec,
)
from repro.core.sinr import SINRInstance
from repro.fading.models import NakagamiFading, RayleighFading, RicianFading


class TestParse:
    def test_bare_name(self):
        assert parse_channel_spec("rayleigh") == ("rayleigh", {})

    def test_name_with_params(self):
        name, params = parse_channel_spec("nakagami:m=2,slots=500")
        assert name == "nakagami"
        assert params == {"m": "2", "slots": "500"}

    def test_case_and_whitespace_normalised(self):
        name, params = parse_channel_spec("  Block : Coherence = 5 ")
        assert name == "block"
        assert params == {"coherence": "5"}

    @pytest.mark.parametrize("bad", ["", "   ", "nakagami:m", "nakagami:=2", "rician:k="])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_channel_spec(bad)

    def test_non_string_rejected(self):
        with pytest.raises(ValueError):
            parse_channel_spec(None)


class TestMakeChannel:
    def test_nonfading(self, two_link_instance):
        ch = make_channel("nonfading", two_link_instance, 1.0)
        assert isinstance(ch, NonFadingChannel)
        assert ch.is_deterministic

    def test_rayleigh(self, two_link_instance):
        ch = make_channel("rayleigh", two_link_instance, 1.0)
        assert isinstance(ch, RayleighChannel)
        assert ch.has_exact_probabilities

    def test_rayleigh_mc(self, two_link_instance):
        ch = make_channel("rayleigh-mc:slots=123", two_link_instance, 1.0)
        assert isinstance(ch, MonteCarloChannel)
        assert isinstance(ch.model, RayleighFading)
        assert ch.mc_slots == 123

    def test_nakagami(self, two_link_instance):
        ch = make_channel("nakagami:m=2", two_link_instance, 1.0)
        assert isinstance(ch, MonteCarloChannel)
        assert isinstance(ch.model, NakagamiFading)
        assert ch.model.m == pytest.approx(2.0)

    def test_rician(self, two_link_instance):
        ch = make_channel("rician:k=4", two_link_instance, 1.0)
        assert isinstance(ch.model, RicianFading)

    def test_block_with_family(self, two_link_instance):
        ch = make_channel("block:coherence=5,family=nakagami,m=2", two_link_instance, 1.0)
        assert isinstance(ch, BlockFadingChannel)
        assert ch.block_length == 5
        assert isinstance(ch.model, NakagamiFading)

    def test_block_needs_coherence(self, two_link_instance):
        with pytest.raises(ValueError, match="coherence"):
            make_channel("block", two_link_instance, 1.0)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("block:coherence=2.5", "coherence"),
            ("block:coherence=inf", "coherence"),
            ("block:coherence=nan", "coherence"),
            ("nakagami:m=2,slots=inf", "slots"),
        ],
    )
    def test_integer_parameters_must_be_finite_integers(self, two_link_instance, spec, key):
        with pytest.raises(ValueError, match=f"channel parameter {key}=.* must be an integer"):
            make_channel(spec, two_link_instance, 1.0)

    def test_nakagami_needs_m(self, two_link_instance):
        with pytest.raises(ValueError, match="m parameter"):
            make_channel("nakagami", two_link_instance, 1.0)

    def test_unknown_name_rejected(self, two_link_instance):
        with pytest.raises(ValueError, match="unknown channel"):
            make_channel("weibull", two_link_instance, 1.0)

    def test_leftover_params_rejected(self, two_link_instance):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_channel("rayleigh:m=2", two_link_instance, 1.0)

    def test_built_channel_passes_through(self, two_link_instance):
        ch = RayleighChannel(two_link_instance, 1.0)
        assert make_channel(ch, two_link_instance, 1.0) is ch

    def test_foreign_channel_rejected(self, two_link_instance):
        other = SINRInstance(np.eye(3) * 4.0 + 0.5, noise=0.1)
        ch = RayleighChannel(other, 1.0)
        with pytest.raises(ValueError, match="different instance"):
            make_channel(ch, two_link_instance, 1.0)

    def test_name_round_trips_as_spec(self, two_link_instance):
        for spec in ("nonfading", "rayleigh"):
            ch = make_channel(spec, two_link_instance, 1.0)
            assert ch.name == spec
