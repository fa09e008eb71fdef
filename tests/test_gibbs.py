import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import energies, metropolis_round
from scipy.integrate import quad

from fpu_packets import gibbs
from fpu_packets.chain import ChainParams
from fpu_packets.experiments import validate_config
from fpu_packets.gibbs import (GibbsSampler, ThetaSolveError, _InverseCdf, bonds_to_state,
                               sample_momenta, slab_rejection_bonds, solve_theta,
                               tilted_density)

ROOT = Path(__file__).resolve().parents[1]

BETA, A = 100.0, 1.0

# regression pin, established with an independent adaptive-quadrature +
# root-bracketing run (scipy.integrate.quad / brentq)
THETA_PIN = -0.9702613746618087


def test_theta_pin_and_independent_residual():
    theta = solve_theta(BETA, A)
    assert theta == pytest.approx(THETA_PIN, abs=1e-9)
    val, _ = quad(lambda r: r * np.exp(-theta * r - BETA * (r**2 / 2 + r**3 / 3 + A * r**4 / 4)),
                  -2.0, 2.0, epsabs=1e-15)
    td = tilted_density(BETA, A)
    assert td.theta == theta
    # zero mean, so the variance is the second moment
    assert abs(val) / td.q_theta <= 1e-12 * np.sqrt(td.moments[2])


def test_theta_zero_for_symmetric_potential():
    sym = lambda r: r**2 / 2 + A * r**4 / 4
    assert abs(solve_theta(BETA, A, potential=sym)) < 1e-10


def test_theta_approaches_large_beta_limit():
    # empirical extrapolation of theta(beta) is -1; larger beta lands closer
    th100 = solve_theta(100.0, A)
    th400 = solve_theta(400.0, A)
    assert abs(th400 + 1.0) < abs(th100 + 1.0)


def test_theta_bracketing_failure_signals():
    with pytest.raises(ThetaSolveError):
        solve_theta(BETA, A, bracket=(5.0, 10.0))


def _config_betas() -> list[float]:
    """Every beta of `configs/*.json` (defaults filled in) and of the perfbench
    workload configs."""
    bodies = [p.read_text() for p in sorted((ROOT / "configs").glob("*.json"))]
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    bodies += [json.dumps({**w["config"], "seed": 1}) for w in workloads.values()]
    betas = set()
    for body in bodies:
        betas.update(getattr(validate_config(body), "beta_list", []))
    return sorted(betas)


def _tilted_mean_and_sigma(beta: float, A: float, theta: float) -> tuple[float, float]:
    """(<r>, sigma) of exp(-theta r - beta V(r)) by scipy's adaptive quadrature.

    Each moment is summed from its two halves at r = 0, near the density's
    peak, where each integrand keeps one sign and so meets a relative
    tolerance of 2e-14; the interval ends where the density has fallen below
    exp(-700) of its value at 0."""
    def log_w(r):
        return -theta * r - beta * (r**2 / 2 + r**3 / 3 + A * r**4 / 4)

    L = 1.0
    while max(log_w(-L), log_w(L)) > -700.0:
        L *= 2.0

    def moment(n):
        return sum(quad(lambda r: r**n * math.exp(log_w(r)), a, b, epsabs=0.0,
                        epsrel=2e-14, limit=200)[0] for a, b in ((-L, 0.0), (0.0, L)))

    m0, m1, m2 = (moment(n) for n in range(3))
    mean = m1 / m0
    return mean, math.sqrt(m2 / m0 - mean**2)


@pytest.mark.parametrize("A", [0.25, 1.0, 2.0, 5.0])
def test_theta_zeroes_the_mean_by_independent_quadrature(A):
    for beta in _config_betas():
        mean, sigma = _tilted_mean_and_sigma(beta, A, solve_theta(beta, A))
        assert abs(mean) <= 1e-12 * sigma, (beta, mean, sigma)


def test_theta_solver_refuses_when_out_of_steps(monkeypatch):
    # a mean that jumps from +1 to -1 at 0.3: bracketed, but never within tolerance
    calls = []

    def jump(beta, gamma, V, n_max=8, tol=1e-9):
        calls.append(gamma)
        m = 1.0 if gamma < 0.3 else -1.0
        return 1.0, np.array([1.0, m, 1.0 + m * m])

    monkeypatch.setattr(gibbs, "_quad_moments", jump)
    with pytest.raises(ThetaSolveError, match="above tolerance"):
        solve_theta(BETA, A)
    assert len(calls) == 2 + gibbs._THETA_MAX_STEPS
    assert abs(calls[-1] - 0.3) <= 1e-12


def test_tilted_moments_basics():
    td = tilted_density(BETA, A)
    assert td.moments[0] == 1.0
    assert abs(td.moments[1]) <= 1e-12 * np.sqrt(td.moments[2])
    assert td.moments[2] == pytest.approx(1.0 / BETA, rel=0.15)
    assert td.moments.size == 9    # <r^0> .. <r^8>


def test_tilted_moments_against_scipy():
    td = tilted_density(BETA, A)
    V = lambda r: r**2 / 2 + r**3 / 3 + A * r**4 / 4
    for n in (2, 4):
        num, _ = quad(lambda r: r**n * np.exp(-td.theta * r - BETA * V(r)), -2, 2,
                      epsabs=1e-16)
        assert td.moments[n] == pytest.approx(num / td.q_theta, rel=1e-9)


def test_sample_momenta_statistics_and_determinism():
    rng = np.random.default_rng(0)
    n = 1_000_000
    p = sample_momenta(rng, n, BETA)
    se_mean = 1.0 / np.sqrt(BETA * n)
    assert abs(p.mean()) <= 4 * se_mean
    se_var = np.sqrt(2.0 / n) / BETA
    assert abs(p.var() - 1.0 / BETA) <= 4 * se_var
    a = sample_momenta(np.random.default_rng(42), 100, BETA)
    b = sample_momenta(np.random.default_rng(42), 100, BETA)
    assert np.array_equal(a, b)


def test_sample_bonds_constraint():
    sampler = GibbsSampler(ChainParams(N=32, beta=BETA), np.random.default_rng(1))
    sampler.sweep(50)
    assert sampler.r.size == 33
    assert abs(sampler.r.sum()) <= 1e-12


def test_sampler_acceptance_band_and_determinism():
    params = ChainParams(N=64, beta=BETA)
    s1 = GibbsSampler(params, np.random.default_rng(2))
    s1.sweep(50)
    assert 0.2 <= s1.acceptance_rate <= 0.6
    s2 = GibbsSampler(params, np.random.default_rng(2))
    s2.sweep(50)
    assert np.array_equal(s1.r, s2.r)


class _ReferenceSampler(GibbsSampler):
    """GibbsSampler whose every round, burn-in and pilot included, is the
    reference `metropolis_round`."""

    def _round(self):
        self._accepted += metropolis_round(self.r, self._vpot, self.rng, self.sigma_prop,
                                           self.params.beta, self.params.A)
        self._proposed += self.r.size // 2


@given(N=st.integers(3, 300), beta=st.floats(1.0, 400.0), A=st.floats(0.1, 2.0),
       sigma=st.floats(1e-3, 1.0), sweeps=st.integers(1, 20), burn_in=st.integers(0, 10),
       seed=st.integers(0, 2**32 - 1))
@example(N=3, beta=100.0, A=1.0, sigma=0.2, sweeps=3, burn_in=0, seed=0)     # N+1 even
@example(N=4, beta=100.0, A=1.0, sigma=0.2, sweeps=3, burn_in=5, seed=0)     # N+1 odd
@settings(max_examples=30, deadline=None)
def test_sweep_is_bit_identical_to_the_reference_round(N, beta, A, sigma, sweeps, burn_in,
                                                       seed):
    params = ChainParams(N=N, A=A, beta=beta)
    shipped = GibbsSampler(params, seed, burn_in=burn_in)
    reference = _ReferenceSampler(params, seed, burn_in=burn_in)
    for sampler in (shipped, reference):
        sampler.sigma_prop = sigma
        sampler.sweep(sweeps)
    assert shipped.r.tobytes() == reference.r.tobytes()
    assert shipped._vpot.tobytes() == reference._vpot.tobytes()
    assert (shipped._accepted, shipped._proposed) == (reference._accepted, reference._proposed)
    assert shipped.rng.bit_generator.state == reference.rng.bit_generator.state


def test_bonds_to_state_examples():
    q = bonds_to_state(np.zeros(4), np.zeros(3)).q
    assert np.all(q == 0.0)
    st = bonds_to_state(np.array([1.0, -1.0, 0.0, 0.0]), np.zeros(3))
    assert st.q == pytest.approx([1.0, 0.0, 0.0])
    rng = np.random.default_rng(3)
    r = rng.normal(size=9)
    r -= r.mean()
    st = bonds_to_state(r, np.zeros(8))
    back = np.diff(st.q, prepend=0.0, append=0.0)
    assert np.abs(back - r).max() < 1e-14
    with pytest.raises(ValueError):
        bonds_to_state(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))
    with pytest.raises(ValueError):
        bonds_to_state(np.zeros(4), np.zeros(4))


def test_single_site_moment_matches_quadrature():
    params = ChainParams(N=64, beta=BETA)
    sampler = GibbsSampler(params, np.random.default_rng(4))
    n = 3000
    r2 = np.empty(n)
    for i in range(n):
        sampler.sweep(sampler.stride)
        r2[i] = sampler.r[0] ** 2
    oracle = tilted_density(BETA, A).moments[2]
    se = r2.std(ddof=1) / np.sqrt(n)
    assert abs(r2.mean() - oracle) <= 3 * se


def test_equipartition_and_seed_independence():
    params = ChainParams(N=127, beta=BETA)
    means = []
    for seed in (5, 6):
        sampler = GibbsSampler(params, np.random.default_rng(seed))
        h0 = np.array([energies(sampler.sample(), params)[0] for _ in range(1200)])
        means.append((h0.mean(), h0.std(ddof=1) / np.sqrt(h0.size)))
        assert abs(h0.mean() - params.N / BETA) <= 0.05 * params.N / BETA
    z = abs(means[0][0] - means[1][0]) / np.hypot(means[0][1], means[1][1])
    assert z <= 4.0


def test_tilted_iid_marginal():
    theta = solve_theta(BETA, A)
    r = _InverseCdf(BETA, A, theta).draw(np.random.default_rng(10), 4000)
    se = r.std(ddof=1) / np.sqrt(r.size)
    assert abs(r.mean() - tilted_density(BETA, A).moments[1]) <= 4 * se


def test_slab_rejection_matches_constrained_sampler():
    params = ChainParams(N=8, beta=BETA)
    n = 1500
    ref = slab_rejection_bonds(np.random.default_rng(11), tilted_density(BETA, params.A),
                               params.N, n)
    assert np.abs(ref.sum(axis=1)).max() <= 1e-3
    sampler = GibbsSampler(params, np.random.default_rng(12))
    mc = np.empty(n)
    for i in range(n):
        sampler.sweep(sampler.stride)
        mc[i] = sampler.r[0] ** 2
    ref2 = ref[:, 0] ** 2
    se = np.hypot(mc.std(ddof=1) / np.sqrt(n), ref2.std(ddof=1) / np.sqrt(n))
    assert abs(mc.mean() - ref2.mean()) <= 3 * se

