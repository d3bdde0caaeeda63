"""Every registered experiment, timed once and checked.

One case per registry entry (``test_experiment[E1]`` … ``[E22]``), run
at the scale ``repro run --scale`` reads from the registry; the
``scale`` fixture and ``record_result`` are in ``conftest.py``.
"""

import pytest

from repro.engine.registry import all_specs

SPECS = all_specs()


@pytest.mark.parametrize("exp_id", list(SPECS))
def test_experiment(benchmark, record_result, scale, exp_id):
    result = benchmark.pedantic(
        SPECS[exp_id].run, args=(scale,), rounds=1, iterations=1
    )
    record_result(result)
