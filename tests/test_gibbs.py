import json
import math
from pathlib import Path

import numpy as np
import pytest
from oracles import energies
from scipy.integrate import quad
from scipy.optimize import brentq

from fpu_packets.chain import ChainParams
from fpu_packets.experiments import validate_config
from fpu_packets.gibbs import (GibbsSampler, ThetaSolveError, _brentq, _default_potential,
                               _InverseCdf, _quad_moments, bonds_to_state, sample_momenta,
                               slab_rejection_bonds, solve_theta, tilted_density)

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


def _same_bits(x: float, y: float) -> bool:
    return float(x).hex() == float(y).hex()


@pytest.mark.parametrize("A", [0.25, 1.0, 2.0, 5.0])
def test_brentq_port_bit_identical_on_theta_mean(A):
    # solve_theta's mean function and its call, against scipy's brentq
    V = _default_potential(A)
    for beta in _config_betas():
        def mean_at(g):
            return _quad_moments(beta, g, V, n_max=2)[1][1]
        ours = _brentq(mean_at, -10.0, 10.0, xtol=1e-14, rtol=8.9e-16)
        assert _same_bits(ours, brentq(mean_at, -10.0, 10.0, xtol=1e-14, rtol=8.9e-16))


def _smooth_function(rng):
    """A seeded smooth function of one of four shapes."""
    a, b, c = rng.uniform(0.1, 5.0, 3)
    s = rng.uniform(-3.0, 3.0)
    kind = rng.integers(4)
    if kind == 0:
        return lambda x: math.exp(a * x) - c
    if kind == 1:
        return lambda x: x**3 - a * x - s
    if kind == 2:
        return lambda x: math.tanh(a * (x - s)) + b * 1e-3 * (x - s) - c * 1e-4
    return lambda x: math.sin(a * x) + 0.5 * math.sin(b * x + c) + 0.3 * s


@pytest.mark.parametrize("tols", [{"xtol": 1e-14, "rtol": 8.9e-16}, {}, {"xtol": 0.1}],
                         ids=["solve_theta", "scipy-default", "coarse"])
def test_brentq_port_bit_identical_on_random_brackets(tols):
    # a coarse xtol makes the steps of size delta and the bound
    # 3|sbis| - delta decide some iterations
    rng = np.random.default_rng(20261018)
    n = 0
    while n < 1200:
        f = _smooth_function(rng)
        lo, hi = np.sort(rng.uniform(-4.0, 4.0, 2))
        if f(lo) * f(hi) >= 0:
            continue
        ours = _brentq(f, lo, hi, **tols)
        assert _same_bits(ours, brentq(f, lo, hi, **tols)), (n, lo, hi)
        n += 1


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-170])
def test_brentq_port_bit_identical_where_c_divides_by_zero(scale):
    # f values this small underflow the extrapolation's denominator to 0,
    # where C's inf or nan step makes brentq bisect
    for f, lo, hi in [(lambda x: scale * (x**3 - 2 * x - 5), 2.0, 3.0),
                      (lambda x: scale * (math.exp(x) - 3.0), -4.0, 7.0)]:
        assert _same_bits(_brentq(f, lo, hi), brentq(f, lo, hi))


@pytest.mark.parametrize("args, kwargs, error", [
    ((lambda x: x * x + 1.0, -1.0, 1.0), {}, ValueError),              # same-sign bracket
    ((lambda x: math.nan if abs(x) < 0.6 else x, -1.0, 1.0), {}, ValueError),  # NaN
    ((lambda x: math.atan(x) - 0.5, -9.0, 11.0), {"maxiter": 3}, RuntimeError),
], ids=["same-sign", "nan", "maxiter"])
def test_brentq_port_refuses_as_scipy_does(args, kwargs, error):
    with pytest.raises(error):
        brentq(*args, **kwargs)
    with pytest.raises(error):
        _brentq(*args, **kwargs)


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

