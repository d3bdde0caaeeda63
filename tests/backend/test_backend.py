"""Tests for the array-backend layer itself.

Covers the configuration object (validation, round-tripping, the ambient
install/scope mechanics), the dense operator's byte-identity contract,
the top-k selection and both sparse product engines, worker shipping
through the executor, and the CLI flag surface.  Cross-channel
*numerical* equivalence lives in
``tests/channel/test_backend_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import backend
from repro.backend import (
    DTYPE_RTOL,
    DTYPES,
    ArrayBackend,
    BackendConfig,
    DenseGains,
    TopKGains,
    backend_scope,
    topk_indices,
)
from repro.engine.executor import make_tasks, map_tasks

N = 20


@pytest.fixture(autouse=True)
def _restore_backend_config():
    """The backend config is process-global (it ships to pool workers);
    never let a test leak a non-default policy into its neighbours."""
    previous = backend.get_config()
    yield
    backend.set_config(previous)


@pytest.fixture()
def matrix() -> np.ndarray:
    m = np.random.default_rng(0).random((N, N)) + 0.01
    m[m < 0.3] *= 1e-3  # a weak tail, like real path-loss gains
    return m


def _describe_active_backend(task) -> str:
    """Module-level (picklable) task fn reporting the worker's config."""
    return backend.get_config().describe()


class TestBackendConfig:
    def test_default_is_the_byte_identical_policy(self):
        cfg = BackendConfig()
        assert cfg.is_default()
        assert cfg.dtype == "float64"
        assert cfg.topk is None
        assert cfg.np_dtype == np.float64
        assert cfg.rtol == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"topk": "8"},
            {"dtype": "float16"},
            {"topk": 0},
            {"topk": -3},
            {"topk": True},
            {"topk": 2.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackendConfig(**kwargs)

    def test_round_trips_through_plain_data(self):
        for cfg in (
            BackendConfig(),
            BackendConfig(dtype="float32"),
            BackendConfig(topk=8),
            BackendConfig(dtype="float32", topk=4),
        ):
            assert BackendConfig.from_dict(cfg.to_dict()) == cfg

    def test_plain_data_keeps_the_numpy_backend_label(self):
        """summary.json and run journals record the same document as when
        the config had a backend field, so old runs resume and compare."""
        doc = {"backend": "numpy", "dtype": "float32", "topk": 4}
        assert BackendConfig(dtype="float32", topk=4).to_dict() == doc
        assert BackendConfig.from_dict(doc).to_dict() == doc

    def test_describe(self):
        assert BackendConfig().describe() == "numpy/float64/dense"
        assert (
            BackendConfig(dtype="float32", topk=16).describe()
            == "numpy/float32/topk=16"
        )

    def test_float32_tolerance_is_documented(self):
        assert BackendConfig(dtype="float32").rtol == DTYPE_RTOL["float32"] > 0.0

    def test_flag_choices_cover_every_config_value(self):
        assert set(DTYPES) == {"float64", "float32"}


class TestAmbientConfig:
    def test_set_config_returns_previous(self):
        cfg = BackendConfig(dtype="float32")
        previous = backend.set_config(cfg)
        assert backend.get_config() == cfg
        assert backend.set_config(previous) == cfg

    def test_set_config_rejects_non_config(self):
        with pytest.raises(TypeError):
            backend.set_config({"backend": "numpy"})

    def test_scope_restores_on_exception(self):
        before = backend.get_config()
        with pytest.raises(RuntimeError):
            with backend_scope(BackendConfig(topk=4)):
                assert backend.get_config().topk == 4
                raise RuntimeError("boom")
        assert backend.get_config() == before

    def test_active_backend_follows_the_config(self):
        default = backend.active()
        assert isinstance(default, ArrayBackend)
        assert backend.active() is default  # cached
        with backend_scope(BackendConfig(dtype="float32")):
            assert backend.active().dtype == np.float32
        assert backend.active().dtype == np.float64


class TestDenseGains:
    def test_wraps_the_callers_float64_array_without_copy(self, matrix):
        op = ArrayBackend(BackendConfig()).gain_operator(matrix)
        assert isinstance(op, DenseGains)
        assert op.matrix is matrix

    def test_products_are_byte_identical_to_plain_numpy(self, matrix):
        op = DenseGains(matrix)
        x = np.random.default_rng(1).random((7, N))
        assert op.matmul(x).tobytes() == (x @ matrix).tobytes()
        assert op.matvec(x[0]).tobytes() == (x[0] @ matrix).tobytes()
        other = np.random.default_rng(2).random((N, N))
        assert op.gather_matmul(x, other).tobytes() == (x @ other).tobytes()

    def test_gain_operator_stays_dense_when_topk_covers_everything(self, matrix):
        be = ArrayBackend(BackendConfig(topk=N - 1))
        assert isinstance(be.gain_operator(matrix), DenseGains)
        be = ArrayBackend(BackendConfig(topk=N + 5))
        assert isinstance(be.gain_operator(matrix), DenseGains)


class TestTopKSelection:
    def test_matches_brute_force_per_column(self, matrix):
        k = 5
        idx = topk_indices(matrix, k)
        assert idx.shape == (k, N)
        mag = np.abs(matrix)
        for col in range(N):
            order = [
                j for j in np.argsort(mag[:, col], kind="stable") if j != col
            ]
            assert set(idx[:, col]) == set(order[-k:])
            assert list(idx[:, col]) == sorted(idx[:, col])  # deterministic

    def test_k_is_clamped_to_every_off_diagonal_entry(self, matrix):
        assert topk_indices(matrix, 10_000).shape == (N - 1, N)

    def test_rejects_bad_inputs(self, matrix):
        with pytest.raises(ValueError):
            topk_indices(matrix[:2], 1)  # non-square
        with pytest.raises(ValueError):
            topk_indices(matrix, 0)
        with pytest.raises(ValueError):
            topk_indices(np.ones((1, 1)), 1)

    def test_diagonal_never_competes_for_a_slot(self):
        m = np.eye(6) * 100.0 + 0.01  # huge diagonal, tiny off-diagonal
        idx = topk_indices(m, 2)
        cols = np.broadcast_to(np.arange(6), idx.shape)
        assert not np.any(idx == cols)


class TestTopKGains:
    def _masked_dense(self, matrix, op) -> np.ndarray:
        """The dense matrix equivalent of the operator's sparse pattern."""
        approx = np.zeros_like(matrix)
        cols = np.broadcast_to(np.arange(matrix.shape[0]), op.indices.shape)
        approx[op.indices, cols] = matrix[op.indices, cols]
        return approx

    def test_keep_diagonal_stores_the_exact_diagonal_first(self, matrix):
        op = TopKGains.build(matrix, 4, keep_diagonal=True)
        assert op.keeps_diagonal and op.k == 4
        np.testing.assert_array_equal(op.indices[0], np.arange(N))
        np.testing.assert_array_equal(op.values[0], np.diagonal(matrix))

    def test_matmul_equals_masked_dense_product(self, matrix):
        x = np.random.default_rng(3).random((9, N))
        for keep in (False, True):
            op = TopKGains.build(matrix, 6, keep_diagonal=keep)
            expected = x @ self._masked_dense(matrix, op)
            np.testing.assert_allclose(op.matmul(x), expected, rtol=1e-12)
            np.testing.assert_allclose(op.matvec(x[0]), expected[0], rtol=1e-12)

    def test_gather_matmul_takes_values_from_the_substitute(self, matrix):
        op = TopKGains.build(matrix, 6, keep_diagonal=True)
        draws = np.random.default_rng(4).random((N, N))
        x = np.random.default_rng(5).random((9, N))
        expected = x @ self._masked_dense(draws, op)
        np.testing.assert_allclose(op.gather_matmul(x, draws), expected, rtol=1e-12)

    def test_einsum_fallback_matches_the_scipy_engine(self, matrix):
        """The pure-NumPy product must agree with scipy's CSR product —
        the fallback is what CI's no-scipy environments would run."""
        fast = TopKGains.build(matrix, 6, keep_diagonal=True, use_scipy=True)
        slow = TopKGains.build(matrix, 6, keep_diagonal=True, use_scipy=False)
        assert slow._csr is None
        x = np.random.default_rng(6).random((9, N))
        np.testing.assert_allclose(slow.matmul(x), fast.matmul(x), rtol=1e-12)
        draws = np.random.default_rng(7).random((N, N))
        np.testing.assert_allclose(
            slow.gather_matmul(x, draws), fast.gather_matmul(x, draws), rtol=1e-12
        )

    def test_float32_build_casts_values_only(self, matrix):
        op = TopKGains.build(matrix, 6, dtype=np.float32)
        assert op.dtype == np.float32
        assert op.indices.dtype == np.intp

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            TopKGains(np.zeros((2, 3), dtype=np.intp), np.zeros((3, 2)), keeps_diagonal=False)


class TestWorkerShipping:
    def test_config_reaches_pool_workers(self):
        """``--jobs N`` determinism requires every worker to compute under
        the parent's policy; the bundle ships it via the initializer."""
        cfg = BackendConfig(dtype="float32", topk=4)
        with backend_scope(cfg):
            out = map_tasks(_describe_active_backend, make_tasks(range(3)), jobs=2)
        assert out == ["numpy/float32/topk=4"] * 3

    def test_serial_backend_sees_the_same_config(self):
        with backend_scope(BackendConfig(topk=7)):
            out = map_tasks(_describe_active_backend, make_tasks(range(2)), jobs=1)
        assert out == ["numpy/float64/topk=7"] * 2


class TestCLIFlags:
    def test_topk_must_be_positive(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "E11", "--topk", "0"])

    def test_backend_flag_is_gone(self, capsys):
        from repro.cli import main

        for command in ("run", "report"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "E11", "--backend", "numpy"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_run_records_backend_in_summary(self, tmp_path, capsys):
        import json

        from repro.cli import main

        code = main(
            ["run", "E11", "--out", str(tmp_path), "--dtype", "float32", "--topk", "8"]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["backend"] == {"backend": "numpy", "dtype": "float32", "topk": 8}
