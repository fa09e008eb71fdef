import json

import numpy as np
import pytest

from fpu_packets.chain import ChainParams, bond_extensions, evolve_batch
from fpu_packets.experiments import (_chebyshev_cell, _lemma3_cell, _multipacket_cell,
                                     _steps, validate_config)
from fpu_packets.gibbs import GibbsSampler, sample_momenta
from fpu_packets.packet import _corrector_pass, build_phi1_table, mode_weights, phi0, phi_dot
from fpu_packets.profiles import DEFAULT_PROFILE_SPEC, make_profile
from fpu_packets.spectral import actions, sine_transform, to_modes
from fpu_packets.stats import (autocorrelation, estimate_from_samples, fit_power_law,
                               half_life, half_life_jackknife, std_jackknife)

OMEGA_PROFILE = {"kind": "constant", "value": 1.0}


def gibbs_states(N, beta, n, seed):
    return GibbsSampler(ChainParams(N=N, beta=beta), np.random.default_rng(seed)).sample_states(n)


def measured_curve(observable, states, params, dt, times, harmonic_only=False):
    """The autocorrelation curve of `observable` along the flow of `states`,
    the grid starting at t = 0 and snapped to whole steps of dt."""
    snaps = evolve_batch(states, params, dt, _steps(times, dt), harmonic_only)
    return autocorrelation(np.array([observable(snap) for snap in snaps]).T, times)


def test_mc_estimate_constant_observable():
    est = estimate_from_samples(np.full(10, 3.25))
    assert est.mean == 3.25
    assert est.variance == 0.0
    assert est.n_samples == 10


def test_mc_estimate_gaussian_mode_momentum():
    beta, N, n = 100.0, 32, 4000
    rng = np.random.default_rng(0)
    k = 7
    est = estimate_from_samples([sine_transform(sample_momenta(rng, N, beta))[k] ** 2
                                 for _ in range(n)])
    assert abs(est.mean - 1.0 / beta) <= 3 * est.stderr_mean


def test_variance_of_phi0_matches_harmonic_oracle():
    # for nu = omega: Var(Phi0) -> N / beta^2 in the near-harmonic regime
    N, beta = 127, 200.0
    nu_k = mode_weights(make_profile(OMEGA_PROFILE), N)[1]
    states = gibbs_states(N, beta, 2500, seed=1)
    est = estimate_from_samples(phi0(states, nu_k))
    assert est.variance == pytest.approx(N / beta**2, rel=0.10)


def test_estimator_consistency_sqrt_n():
    rng = np.random.default_rng(2)
    x = rng.normal(size=4000)
    se_half = estimate_from_samples(x[:2000]).stderr_mean
    se_full = estimate_from_samples(x).stderr_mean
    assert se_full / se_half == pytest.approx(1 / np.sqrt(2), rel=0.2)


def test_autocorrelation_t0_equals_sigma2():
    N = 31
    nu_k = mode_weights(make_profile(DEFAULT_PROFILE_SPEC), N)[1]
    states = gibbs_states(N, 100.0, 40, seed=3)
    curve = measured_curve(lambda s: phi0(s, nu_k), states, ChainParams(N=N), 0.02,
                           [0.0, 1.0, 2.0])
    assert curve.values[0] == curve.sigma2
    assert curve.normalized[0] == 1.0
    # Cauchy-Schwarz on the measured grid
    assert (np.abs(curve.values) <= curve.sigma2 + 3 * curve.stderrs + 1e-30).all()


def test_autocorrelation_harmonic_hook_action_is_flat():
    N = 15
    k = 4
    states = gibbs_states(N, 50.0, 30, seed=4)
    curve = measured_curve(lambda s: actions(to_modes(s))[:, k], states, ChainParams(N=N),
                           0.02, [0.0, 5.0, 20.0, 50.0], harmonic_only=True)
    for v, se in zip(curve.normalized[1:], curve.normalized_stderrs[1:]):
        assert abs(v - 1.0) <= max(3 * se, 1e-3)


def test_half_life_synthetic_and_flat():
    times = np.linspace(0.0, 10.0, 101)
    tau = 2.0
    assert half_life(times, np.exp(-times / tau)) == pytest.approx(tau * np.log(2),
                                                                  abs=times[1] - times[0])
    assert half_life(times, np.ones_like(times)) is None


def test_autocorrelation_grid_after_zero():
    # a grid that starts after t = 0 takes one extra leading column, the time-0 values
    rng = np.random.default_rng(14)
    x = rng.normal(size=40)
    vals = np.array([x, 0.8 * x + 0.2 * rng.normal(size=40),
                     0.1 * x + rng.normal(size=40)]).T    # (n, 3)
    full = autocorrelation(vals, [0.0, 1.0, 2.0])
    late = autocorrelation(vals, [1.0, 2.0])
    np.testing.assert_array_equal(late.times, [1.0, 2.0])
    np.testing.assert_array_equal(late.values, full.values[1:])
    np.testing.assert_array_equal(late.stderrs, full.stderrs[1:])
    assert late.sigma2 == pytest.approx(vals[:, 0].var(), rel=1e-12)
    t_half, se = half_life_jackknife(late)
    assert 1.0 < t_half < 2.0
    assert se is None
    with pytest.raises(ValueError):
        autocorrelation(vals, [0.0, 1.0])      # a column too many
    with pytest.raises(ValueError):
        autocorrelation(vals, [2.0, 1.0])      # not ascending
    with pytest.raises(ValueError):
        autocorrelation(vals[:2], [0.0, 1.0, 2.0])    # fewer than 3 states


def test_half_life_jackknife_on_measured_curve():
    N = 31
    nu_k = mode_weights(make_profile({"kind": "bump", "center": 0.5, "width": 0.2}), N)[1]
    states = gibbs_states(N, 25.0, 60, seed=5)
    curve = measured_curve(lambda s: phi0(s, nu_k), states, ChainParams(N=N, beta=25.0),
                           0.02, np.linspace(0.0, 120.0, 13))
    th, se = half_life_jackknife(curve)
    if th is not None and se is not None:
        assert se >= 0.0
        assert th > 0.0


def test_fit_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    slope, se = fit_power_law(x, x**2)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)
    slope, _ = fit_power_law(x, np.full(4, 3.3))
    assert slope == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(6)
    y = x**-1.0 * (1 + 0.05 * rng.normal(size=4))
    slope, _ = fit_power_law(x, y)
    assert -1.15 <= slope <= -0.85
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        fit_power_law([1.0, 2.0, 3.0], [1.0, np.inf, 3.0])
    with pytest.raises(ValueError, match="finite"):
        fit_power_law([1.0, 2.0, 3.0], [1.0, np.nan, 3.0])


def test_ratio_theorem1_harmonic_hook_vanishes():
    # {Phi0, H0} = 0 on the states the ratio-scaling cell draws: Phi0 is
    # conserved by the harmonic flow, so its drift there is rounding
    N = 31
    pk = build_phi1_table(make_profile(OMEGA_PROFILE), N)
    sampler = GibbsSampler(ChainParams(N=N, beta=100.0), np.random.default_rng(7))
    brackets = np.empty(50)
    values = np.empty(50)
    for i in range(50):
        st = sampler.sample()
        values[i], _, d0, _ = _corrector_pass(st, pk, gradient=True)
        dq, dp = (sine_transform(g) for g in d0)
        # grad H0 = (-diff r, p)
        brackets[i] = dq @ st.p - dp @ -np.diff(bond_extensions(st.q))
    assert np.sqrt(np.mean(brackets**2)) / values.std() <= 1e-10


def test_ratio_theorem1_inadmissible_profile_inflates_corrector():
    # at matched h2, the g'(0) != 0 profile carries a much larger corrector
    N = 63
    params = ChainParams(N=N, beta=200.0)
    adm = make_profile({"kind": "constant", "value": 1 / np.sqrt(3.0)})
    inadm = make_profile({"kind": "linear"})
    pk_a = build_phi1_table(adm, N)
    pk_i = build_phi1_table(inadm, N, require_admissible=False)

    def sigma_phi1_over_sigma_phi0(pk, seed):
        # validation refuses the inadmissible profile, so no config can reach
        # the ratio-scaling cell with it: draw the cell's 300 states directly
        sampler = GibbsSampler(params, np.random.default_rng(seed))
        v0, v1, _ = np.array([phi_dot(sampler.sample(), pk, params) for _ in range(300)]).T
        return std_jackknife(v1)[0] / std_jackknife(v0)[0]

    assert sigma_phi1_over_sigma_phi0(pk_i, 9) >= 1.5 * sigma_phi1_over_sigma_phi0(pk_a, 8)
    assert np.abs(pk_i.coeffs).max() >= 10 * np.abs(pk_a.coeffs).max()


def test_lemma3_scan_rows():
    cfg = validate_config(json.dumps({"experiment": "lemma3-scan", "seed": 10,
                                      "n_samples": 200, "profile": OMEGA_PROFILE}))
    points = [(31, 50.0), (31, 100.0), (63, 50.0), (63, 100.0)]
    rows = [_lemma3_cell(cfg, np.random.SeedSequence(10 + i), "Phi0", N, beta)[0][0]
            for i, (N, beta) in enumerate(points)]
    for r in rows:
        assert r["kind"] == "Phi0" and r["s"] == 2
        assert r["normalized"] > 0
    # for nu = omega the normalized variance is ~ sum(g^2)/N = 1 up to
    # anharmonic and sampling corrections
    vals = [r["normalized"] for r in rows]
    assert max(vals) / min(vals) < 2.0


def test_chebyshev_bound_holds():
    # a = 0.7 is refused by validation (test_rejects_bad_or_vacuous_values)
    cfg = validate_config(json.dumps({"experiment": "chebyshev", "seed": 11, "a": 0.4,
                                      "n_samples": 300, "profile": DEFAULT_PROFILE_SPEC}))
    (row,), _ = _chebyshev_cell(cfg, np.random.SeedSequence(11), 63, 50.0)
    assert 0.0 <= row["empirical_prob"] <= 1.0
    slack = 3 * np.hypot(row["prob_stderr"], row["bound_stderr"])
    assert row["empirical_prob"] <= row["chebyshev_bound"] + slack


def _multipacket_rows(K, seed):
    cfg = validate_config(json.dumps({"experiment": "multi-packet", "seed": seed, "a": 0.4,
                                      "n_samples": 200, "K": K}))
    rows, _ = _multipacket_cell(cfg, np.random.SeedSequence(seed), 63, 50.0)
    assert [r["packet"] for r in rows] == list(range(K))
    return rows


def test_multi_packet_single_reduces_to_marginal():
    (row,) = _multipacket_rows(1, 12)
    assert row["joint_rate"] == row["exceed_rate"]
    assert row["joint_rate"] <= row["sum_individual"] + 1e-12


def test_multi_packet_union_bound():
    row = _multipacket_rows(3, 13)[0]
    assert row["joint_rate"] <= row["sum_individual"] + 3 * row["joint_stderr"]
