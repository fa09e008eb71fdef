"""Layer microbenchmarks: the unit costs under the experiments, one layer at a
time, at N in {127, 255, 1023} (one Gibbs sweep at the sampler-chain
workload's N in {8, 64, 128, 256}).

They sit outside the test suite (pyproject's `testpaths` is `tests`) and use
pytest-benchmark.  From the repository root:

    PYTHONPATH=src python -m pytest benchmarks -q

Every input (sampler, states, corrector table, profile) is built outside the
timed call.  Where a call does several units of work, its `extra_info` holds
the median divided by the units, in perfbench's unit where it has one:
`ns_per_particle_step` for the leapfrog (`chain.ns_per_particle_step`),
`ns_per_row` for the sine transform (`spectral.ns_per_row`), `us_per_phi0`
for Phi0 on an ensemble (`packet.us_per_phi0`), `ns_per_site_sweep` for a
Gibbs sweep over N+1 bonds (`gibbs.ns_per_site_sweep`) and
`ns_per_grid_point` for h1 on a family, 8 (g+1)^2 points per profile
(`profiles.ns_per_grid_point`).
"""

import functools

import numpy as np
import pytest

from fpu_packets.chain import ChainParams, ChainState, evolve_batch
from fpu_packets.experiments import RATIO_PROFILE_SPEC, THEOREM2_FAMILY
from fpu_packets.gibbs import GibbsSampler, solve_theta
from fpu_packets.packet import build_phi1_table, mode_weights, phi0, phi1, phi_dot
from fpu_packets.profiles import eval_h1, make_profile
from fpu_packets.spectral import sine_transform

STEPS = 20
ROWS = 64
SIZES = [127, 255, 1023]
SWEEP_SIZES = [8, 64, 128, 256]
BETA = 100.0
# the profile of ratio-scaling, where phi_dot and the table cost most
PROFILE = make_profile(RATIO_PROFILE_SPEC)


def ensemble(B, N):
    rng = np.random.default_rng(0)
    return ChainState(0.1 * rng.normal(size=(B, N)), 0.1 * rng.normal(size=(B, N)))


@functools.lru_cache(maxsize=1)
def table(N):
    """One corrector table at a time: at N=1023 it is about 215 MiB with its scratch."""
    return build_phi1_table(PROFILE, N)


def per_unit(benchmark, key, units, scale=1e9):
    if benchmark.stats is not None:    # None under --benchmark-disable
        benchmark.extra_info[key] = benchmark.stats.stats.median * scale / units


# the default configs evolve 384 (autocorrelation), 400 (multi-packet) and
# 1500 (chebyshev) states at N = 127; at B = 1500 the buffers outgrow L2
@pytest.mark.parametrize("N, B", [(N, B) for N in SIZES for B in (1, 64, 384)] + [(127, 1500)])
def test_evolve_batch_per_particle_step(benchmark, N, B):
    # the observer only reads the end state's shape, so the timed work is the flow
    (shape,) = benchmark(evolve_batch, ensemble(B, N), ChainParams(N=N), 0.02, [STEPS],
                         lambda state: state.p.shape)
    assert shape == (B, N)
    per_unit(benchmark, "ns_per_particle_step", B * N * STEPS)


@pytest.mark.parametrize("N", SIZES)
def test_sample_states_one_draw(benchmark, N):
    # burn-in and the pilot run happen here, outside the timed draw
    sampler = GibbsSampler(ChainParams(N=N, beta=BETA), np.random.default_rng(0))
    states = benchmark(sampler.sample_states, 1)
    assert states.p.shape == (1, N)


@pytest.mark.parametrize("N", SWEEP_SIZES)
def test_gibbs_sweep_per_site(benchmark, N):
    sampler = GibbsSampler(ChainParams(N=N, beta=BETA), np.random.default_rng(0))
    benchmark(sampler.sweep)
    assert abs(sampler.r.sum()) <= 1e-12 * (N + 1)
    per_unit(benchmark, "ns_per_site_sweep", N + 1)


@pytest.mark.parametrize("N", SIZES)
def test_sine_transform_per_row(benchmark, N):
    rows = ensemble(ROWS, N).q
    assert benchmark(sine_transform, rows).shape == (ROWS, N)
    per_unit(benchmark, "ns_per_row", ROWS)


@pytest.mark.parametrize("N", SIZES)
def test_build_phi1_table(benchmark, N):
    pk = benchmark(build_phi1_table, PROFILE, N)
    assert pk.n_triples > 0


@pytest.mark.parametrize("N", SIZES)
def test_phi0_per_state(benchmark, N):
    nu_k = mode_weights(PROFILE, N)[1]
    assert benchmark(phi0, ensemble(ROWS, N), nu_k).shape == (ROWS,)
    per_unit(benchmark, "us_per_phi0", ROWS, scale=1e6)


@pytest.mark.parametrize("N", SIZES)
def test_phi1_per_state(benchmark, N):
    state, pk = ensemble(1, N)[0], table(N)
    assert np.isfinite(benchmark(phi1, state, pk))


@pytest.mark.parametrize("N", SIZES)
def test_phi_dot_per_state(benchmark, N):
    state, pk = ensemble(1, N)[0], table(N)
    assert np.isfinite(benchmark(phi_dot, state, pk, ChainParams(N=N, beta=BETA))).all()


@pytest.mark.parametrize("beta", [50.0, 100.0, 200.0])
def test_solve_theta(benchmark, beta):
    assert np.isfinite(benchmark(solve_theta, beta, 1.0))


# eval_h1 has no N: its unit is one grid, at the h1-grid workload's sizes and
# at 4096, the largest grid of the default theorem2-h1 config.  The call is
# theorem2-h1's: the default family, and g(x) = x at the smallest and the
# largest grid of the workload (256, 1536) and of the default config (4096).
@pytest.mark.parametrize("grid", [256, 1024, 1536, 4096])
def test_eval_h1_per_grid(benchmark, grid):
    specs = THEOREM2_FAMILY + ([{"kind": "linear"}] if grid != 1024 else [])
    family = [make_profile(spec) for spec in specs]
    results = benchmark(eval_h1, family, grid)
    assert all(np.isfinite(res.value) for res in results)
    per_unit(benchmark, "ns_per_grid_point", len(family) * 8 * (grid + 1) ** 2)
