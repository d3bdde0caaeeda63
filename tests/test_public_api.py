"""The public API surface: exports exist, docstring example runs."""

import numpy as np
import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert missing == []

    def test_all_is_sorted(self):
        assert list(repro.__all__) == sorted(repro.__all__)

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.capacity
        import repro.channel
        import repro.core
        import repro.experiments
        import repro.fading
        import repro.geometry
        import repro.io
        import repro.latency
        import repro.learning
        import repro.transform
        import repro.utility
        import repro.utils  # noqa: F401

    def test_one_copy_of_each_piece(self):
        """Block fading lives only in the channel layer, and the array
        backend has no second engine to pick."""
        import repro.backend
        import repro.channel
        import repro.fading

        assert repro.BlockFadingChannel is repro.channel.BlockFadingChannel
        assert not hasattr(repro.fading, "BlockFadingChannel")
        for name in ("numba_available", "NumbaUnavailableError", "BACKENDS"):
            assert not hasattr(repro.backend, name)
            assert name not in repro.backend.__all__

    def test_one_sampler_per_scheme(self):
        """The fading samplers live only in ``repro.fading.models``: the
        Rayleigh-only module and its duplicates are gone everywhere."""
        import importlib

        import repro.fading
        import repro.fading.models

        deleted = (
            "sample_fading_gains",
            "simulate_slot",
            "simulate_slots_bernoulli",
            "simulate_slots_with_model",
            "simulate_sinr_patterns_with_model",
        )
        for ns in (repro, repro.fading, repro.fading.models):
            for name in deleted:
                assert not hasattr(ns, name), (ns.__name__, name)
                assert name not in ns.__all__, (ns.__name__, name)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.fading.rayleigh")
        assert repro.simulate_slots is repro.fading.models.simulate_slots
        assert repro.fading.simulate_sinr_patterns is repro.fading.models.simulate_sinr_patterns

    def test_one_record_of_the_run_settings(self):
        """A run's settings live in one ``RunContext``: the per-setting
        setters and scopes, the worker bundle, the array-backend resolver
        and the process-wide slot-block default are gone everywhere."""
        import repro.backend
        import repro.backend.config
        import repro.backend.core
        import repro.engine.backends.base
        import repro.latency
        import repro.latency.slotloop
        from repro.cli import build_parser
        from repro.engine import chaos, guards
        from repro.obs import metrics, trace

        deleted = {
            repro.backend: ("ArrayBackend", "active", "backend_scope", "get_config",
                            "set_config"),
            repro.backend.config: ("backend_scope", "get_config", "set_config"),
            repro.backend.core: ("ArrayBackend", "active"),
            repro.engine.backends.base: ("install_worker_bundle", "worker_bundle"),
            guards: ("enabled", "get_guard_mode", "guard_scope", "set_guard_mode"),
            chaos: ("active", "current_plan", "install", "install_from_env",
                    "install_from_file", "uninstall"),
            metrics: ("set_collection",),
            trace: ("set_span_collection", "span_collection"),
            repro.latency: ("get_default_slot_block", "set_default_slot_block"),
            repro.latency.slotloop: ("_default_block", "get_default_slot_block",
                                     "set_default_slot_block"),
        }
        for ns, names in deleted.items():
            for name in names:
                assert not hasattr(ns, name), (ns.__name__, name)
                assert name not in getattr(ns, "__all__", ()), (ns.__name__, name)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E13", "--slot-block", "4"])

    def test_graph_views_are_arrays(self):
        """The conflict graph is a boolean matrix, and the networkx-only
        affectance digraph is gone from every namespace."""
        import repro.analysis

        for ns in (repro, repro.analysis):
            assert not hasattr(ns, "affectance_digraph")
            assert "affectance_digraph" not in ns.__all__
        inst = repro.SINRInstance(np.full((3, 3), 5.0), noise=0.0)
        assert repro.conflict_graph(inst, 2.0).dtype == bool


class TestDocstringExample:
    def test_quickstart_from_module_docstring(self):
        """The exact snippet advertised in the package docstring."""
        senders, receivers = repro.paper_random_network(50, rng=0)
        net = repro.Network(senders, receivers)
        inst = repro.SINRInstance.from_network(
            net, repro.UniformPower(2.0), alpha=2.2, noise=4e-7
        )
        chosen = repro.greedy_capacity(inst, beta=2.5)
        q = np.zeros(50)
        q[chosen] = 1.0
        expected = repro.success_probability(inst, q, 2.5)
        assert bool(expected[chosen].sum() >= len(chosen) / np.e)

    def test_doctest_of_package(self):
        import doctest

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0


class TestCrossModuleSanity:
    def test_full_pipeline_binary(self):
        """network -> instance -> schedule -> transfer -> latency, one go."""
        senders, receivers = repro.paper_random_network(30, rng=1)
        net = repro.Network(senders, receivers)
        inst = repro.SINRInstance.from_network(net, repro.UniformPower(2.0), 2.2, 4e-7)
        beta = 2.5
        report = repro.transfer_capacity_algorithm(
            inst,
            repro.BinaryUtility(30, beta),
            lambda i: repro.greedy_capacity(i, beta),
        )
        assert report.ratio >= 1 / np.e - 1e-12
        latency = repro.repeated_max_latency(inst, beta).latency
        assert latency >= repro.latency_lower_bound(inst, beta, rng=0) - 1
        gap = repro.measured_optimum_gap(inst, beta, rng=2, restarts=2)
        assert gap.ratio == pytest.approx(gap.rayleigh_value / gap.nonfading_value)
