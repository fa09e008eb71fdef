"""Layer microbenchmarks: the leapfrog integrator per particle-step.

They sit outside the test suite (pyproject's `testpaths` is `tests`) and use
pytest-benchmark.  From the repository root:

    PYTHONPATH=src python -m pytest benchmarks -q

pytest-benchmark times one `evolve_batch` call of STEPS steps on a (B, N)
ensemble; each result's `extra_info["ns_per_particle_step"]` is its median
divided by B * N * STEPS, the unit of perfbench's `chain.ns_per_particle_step`.
"""

import numpy as np
import pytest

from fpu_packets.chain import ChainParams, ChainState, evolve_batch

STEPS = 20


@pytest.mark.parametrize("B", [1, 64, 384])
@pytest.mark.parametrize("N", [127, 255, 1023])
def test_evolve_batch_per_particle_step(benchmark, N, B):
    rng = np.random.default_rng(0)
    states = ChainState(0.1 * rng.normal(size=(B, N)), 0.1 * rng.normal(size=(B, N)))
    (end,) = benchmark(evolve_batch, states, ChainParams(N=N), 0.02, [STEPS])
    assert end.p.shape == (B, N)
    benchmark.extra_info["ns_per_particle_step"] = (
        benchmark.stats.stats.median * 1e9 / (B * N * STEPS))
