import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (TAU8, bracket_norm_check, energies, from_modes, full_corrector_table,
                     integrate)

from fpu_packets.chain import ChainParams, ChainState, bond_extensions, cubic_energy
from fpu_packets.gibbs import GibbsSampler
from fpu_packets.packet import (_CUBIC_PREFACTOR, TAU_PATTERNS, _corrector_pass,
                                build_phi1_table, homological_residual, mode_weights, phi0,
                                phi1, phi_dot, ps_observable)
from fpu_packets.profiles import DEFAULT_PROFILE_SPEC, eval_h1, make_profile
from fpu_packets.spectral import frequencies, sine_transform, to_complex, to_modes

OMEGA_PROFILE = {"kind": "constant", "value": 1.0}   # nu = omega


def random_gibbs_states(N, beta, n, seed):
    sampler = GibbsSampler(ChainParams(N=N, beta=beta), np.random.default_rng(seed))
    return [sampler.sample() for _ in range(n)]


def _triples(pk):
    """The table's triples as (k1, k2, k3, 'sum' or 'wrap') tuples."""
    return {(int(a), int(b), int(c), "wrap" if a + b > pk.N else "sum")
            for a, b, c in zip(pk.k1, pk.k2, pk.k3)}


def _ratios(pk):
    """(tau.nu)/(tau.omega) per triple and sign pattern, recovered from the
    coefficients: coeffs = prefactor * ratio * (3 or -1) * tau1 tau2 tau3."""
    weight = np.where(pk.k1 + pk.k2 > pk.N, -1.0, 3.0)[:, None]
    return pk.coeffs / (_CUBIC_PREFACTOR * weight * TAU_PATTERNS.prod(axis=1)[None, :])


def _grad_phi(state, pk):
    """Particle-space gradient (d/dq, d/dp) of Phi0 and of Phi1."""
    _, _, d0, d1 = _corrector_pass(state, pk, gradient=True)
    return [sine_transform(g) for g in d0], [sine_transform(g) for g in d1]


def _phi_dot_split(state, pk, params):
    """{Phi1, H1+H2} + {Phi0, H2}: the form of Phi-dot that the homological
    identity reduces {Phi, H} to, an independent reference for phi_dot.  H1
    and H2 carry no momentum, so {F, G} = -dF/dp . dG/dq for both."""
    r = bond_extensions(state.q)
    (_, dp0), (_, dp1) = _grad_phi(state, pk)
    return (-(dp1 @ -np.diff(r * r * (1.0 + params.A * r)))
            - dp0 @ -np.diff(params.A * r**3))


def test_triple_enumeration_n3():
    pk = build_phi1_table(make_profile(OMEGA_PROFILE), 3)
    assert _triples(pk) == {
        (1, 1, 2, "sum"), (1, 2, 3, "sum"), (2, 1, 3, "sum"),
        (2, 3, 3, "wrap"), (3, 2, 3, "wrap"), (3, 3, 2, "wrap"),
    }


def test_triple_enumeration_matches_bruteforce():
    N = 31
    pk = build_phi1_table(make_profile(OMEGA_PROFILE), N)
    expect = set()
    for k1 in range(1, N + 1):
        for k2 in range(1, N + 1):
            if k1 + k2 <= N:
                expect.add((k1, k2, k1 + k2, "sum"))
            k3 = 2 * (N + 1) - k1 - k2
            if 1 <= k3 <= N:
                expect.add((k1, k2, k3, "wrap"))
    assert _triples(pk) == expect


def test_triple_count_scaling():
    # the full (k1, k2) grid without the anti-diagonal k1 + k2 = N + 1
    for N in (3, 63, 127):
        pk = build_phi1_table(make_profile(OMEGA_PROFILE), N)
        assert pk.n_triples == N * N - N
        assert pk.coeffs.shape == (N * N - N, 4)


def test_ratios_unity_for_nu_equals_omega():
    ratios = _ratios(build_phi1_table(make_profile(OMEGA_PROFILE), 15))
    assert np.abs(np.abs(ratios) - 1.0).max() < 1e-12
    # fully aligned pattern (+,+,+) is the first row of the pattern table
    assert np.abs(ratios[:, 0] - 1.0).max() < 1e-12


def test_table_coefficients_bounded_by_h1():
    prof = make_profile(DEFAULT_PROFILE_SPEC)
    h1 = eval_h1(prof, 2048).value
    assert np.abs(_ratios(build_phi1_table(prof, 127))).max() <= h1 * 1.05


def test_inadmissible_profile_rejected_unless_forced():
    lin = make_profile({"kind": "linear"})
    with pytest.raises(ValueError):
        build_phi1_table(lin, 15)
    pk = build_phi1_table(lin, 15, require_admissible=False)
    assert pk.n_triples > 0


def test_denominator_floor_scaling():
    # smallest |tau.omega| tracks the (N+1)^-3 lower-bound scaling, factor 10
    for N in (31, 63, 127):
        pk = build_phi1_table(make_profile(OMEGA_PROFILE), N)
        scaled = pk.min_denominator * (N + 1) ** 3
        assert 0.5 <= scaled <= 10.0


def test_phi0_examples():
    N = 15
    prof = make_profile(DEFAULT_PROFILE_SPEC)
    nu_k = mode_weights(prof, N)[1]
    om = frequencies(N)
    x = np.arange(1, N + 1) / (N + 1)
    nu = prof.nu(x)
    for k in (2, 9):
        e = np.zeros(N)
        e[k - 1] = 1.0
        st = from_modes(e, np.zeros(N))
        assert phi0(st, nu_k) == pytest.approx(nu[k - 1] / (2 * om[k - 1]), rel=1e-12)
    zero = ChainState(np.zeros(N), np.zeros(N))
    assert phi0(zero, nu_k) == 0.0
    nu_om = mode_weights(make_profile(OMEGA_PROFILE), N)[1]
    rng = np.random.default_rng(0)
    st = ChainState(rng.normal(size=N), rng.normal(size=N))
    assert phi0(st, nu_om) == pytest.approx(energies(st, ChainParams(N=N))[0], rel=1e-12)
    with pytest.raises(ValueError):
        phi0(ChainState(np.zeros(8), np.zeros(8)), nu_k)


def test_phi1_equals_cubic_energy_for_nu_equals_omega():
    # with nu = omega the corrector degenerates to H1 exactly
    pk = build_phi1_table(make_profile(OMEGA_PROFILE), 31)
    rng = np.random.default_rng(1)
    for _ in range(5):
        st = ChainState(0.2 * rng.normal(size=31), 0.2 * rng.normal(size=31))
        expected = cubic_energy(st)
        assert phi1(st, pk) == pytest.approx(expected, rel=1e-11, abs=1e-14)


def test_phi1_zero_state_and_homogeneity():
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), 15)
    assert phi1(ChainState(np.zeros(15), np.zeros(15)), pk) == 0.0
    rng = np.random.default_rng(2)
    st = ChainState(rng.normal(size=15), rng.normal(size=15))
    lam = 1.7
    scaled = ChainState(lam * st.p, lam * st.q)
    assert phi1(scaled, pk) == pytest.approx(lam**3 * phi1(st, pk), rel=1e-11)


def test_phi1_beta_scaling():
    # corrector-to-packet magnitude shrinks like 1/sqrt(beta)
    N = 63
    pk = build_phi1_table(make_profile({"kind": "poly_x2", "coeffs": [1.0, 0.5]}), N)
    med = {}
    for beta in (100.0, 400.0):
        states = random_gibbs_states(N, beta, 300, seed=int(beta))
        r = [abs(phi1(s, pk)) / abs(phi0(s, pk.nu_k)) for s in states]
        med[beta] = np.median(r)
    assert med[400.0] <= 0.6 * med[100.0]


def _phi1_reference(state, pk, coeffs8):
    """Phi1 summed over all 8 sign patterns of the full table coeffs8."""
    xi = to_complex(to_modes(state))
    eta = np.conj(xi)
    i1, i2, i3 = pk.k1 - 1, pk.k2 - 1, pk.k3 - 1
    total = 0.0j
    for m in range(8):
        t1, t2, t3 = TAU8[m]
        f = ((xi if t1 > 0 else eta)[i1]
             * (xi if t2 > 0 else eta)[i2]
             * (xi if t3 > 0 else eta)[i3])
        total += coeffs8[:, m] @ f
    return float((1j * total / np.sqrt(pk.N + 1)).real)


def _grad_phi1_reference(state, pk, coeffs8):
    """Mode-space gradient of Phi1, scattered from all 8 sign patterns of the
    full table coeffs8."""
    xi = to_complex(to_modes(state))
    eta = np.conj(xi)
    i1, i2, i3 = pk.k1 - 1, pk.k2 - 1, pk.k3 - 1
    dxi = np.zeros(pk.N, dtype=complex)
    deta = np.zeros(pk.N, dtype=complex)

    def scatter_add(dest, idx, vals):
        dest += (np.bincount(idx, weights=vals.real, minlength=pk.N)
                 + 1j * np.bincount(idx, weights=vals.imag, minlength=pk.N))

    for m in range(8):
        t1, t2, t3 = TAU8[m]
        f1 = (xi if t1 > 0 else eta)[i1]
        f2 = (xi if t2 > 0 else eta)[i2]
        f3 = (xi if t3 > 0 else eta)[i3]
        c = coeffs8[:, m]
        scatter_add(dxi if t1 > 0 else deta, i1, c * f2 * f3)
        scatter_add(dxi if t2 > 0 else deta, i2, c * f1 * f3)
        scatter_add(dxi if t3 > 0 else deta, i3, c * f1 * f2)
    pref = 1j / np.sqrt(pk.N + 1)
    dxi *= pref
    deta *= pref
    dqh = (1j * pk.omega * (dxi - deta) / np.sqrt(2.0)).real
    dph = ((dxi + deta) / np.sqrt(2.0)).real
    return dqh, dph


def _assert_matches_reference(pk, states):
    coeffs8, _ = full_corrector_table(pk)
    for state in states:
        _, value, _, (dqh, dph) = _corrector_pass(state, pk, gradient=True)
        assert value == phi1(state, pk) == _phi1_reference(state, pk, coeffs8)
        ref_dqh, ref_dph = _grad_phi1_reference(state, pk, coeffs8)
        assert np.array_equal(dqh, ref_dqh)
        assert np.array_equal(dph, ref_dph)


_REFERENCE_SPECS = [
    {"kind": "constant", "value": 1.0},
    {"kind": "poly_x2", "coeffs": [1.0, 0.5]},
    {"kind": "cosine", "amplitude": 1.0},
    DEFAULT_PROFILE_SPEC,
]


@pytest.mark.parametrize("spec", _REFERENCE_SPECS, ids=lambda spec: spec["kind"])
def test_table_is_the_tau1_half_of_the_full_table(spec):
    # the stored 4 patterns are the tau1 = +1 columns of the 8-pattern table
    # built from its definition, bit for bit, and the other 4 are their negatives
    assert np.array_equal(TAU_PATTERNS, TAU8[:4])
    for N in (3, 4, 15, 64, 127, 255, 511):
        pk = build_phi1_table(make_profile(spec), N)
        coeffs8, den8 = full_corrector_table(pk)
        assert np.array_equal(coeffs8[:, :4], pk.coeffs)
        assert np.array_equal(coeffs8[:, 4:], -pk.coeffs[:, ::-1])
        assert float(np.abs(den8).min()) == pk.min_denominator


@pytest.mark.parametrize("N", [3, 4, 15, 64, 127, 255])
@pytest.mark.parametrize("spec", _REFERENCE_SPECS, ids=lambda spec: spec["kind"])
def test_phi1_and_gradient_bit_identical_to_8_patterns(spec, N):
    pk = build_phi1_table(make_profile(spec), N)
    rng = np.random.default_rng(N)
    states = random_gibbs_states(N, 100.0, 3, seed=N)
    states += [ChainState(rng.normal(size=N), rng.normal(size=N)) for _ in range(3)]
    states.append(ChainState(np.zeros(N), np.zeros(N)))
    _assert_matches_reference(pk, states)


def _assert_same_pass(got, want):
    assert got[:2] == want[:2]
    if want[2] is None:
        assert got[2:] == (None, None)
        return
    for a, b in zip(got[2] + got[3], want[2] + want[3]):
        assert np.array_equal(a, b)


def test_corrector_scratch_carries_no_state():
    # a table's work buffers are reused by every pass on it: interleaved
    # states, gradient or not, another table alive at another N and a Phi1
    # observable must each give a fresh table's bits, and a returned result
    # must not change under later passes
    prof = make_profile(DEFAULT_PROFILE_SPEC)
    rng = np.random.default_rng(3)
    tables = {N: build_phi1_table(prof, N) for N in (31, 15)}
    a, b = (ChainState(rng.normal(size=31), rng.normal(size=31)) for _ in range(2))
    c = ChainState(rng.normal(size=15), rng.normal(size=15))
    observable = ps_observable("Phi1", prof, 31)[0]
    calls = [(a, True), (b, True), (c, True), (a, False), (a, True), (c, False),
             (b, False), (a, True)]
    results = []
    for state, gradient in calls:
        results.append(_corrector_pass(state, tables[state.n], gradient))
        other = b if state is a else a
        assert observable(other) == phi1(other, build_phi1_table(prof, 31))
    for (state, gradient), got in zip(calls, results):
        _assert_same_pass(got, _corrector_pass(state, build_phi1_table(prof, state.n),
                                               gradient))


def test_phi_dot_allocates_no_triple_sized_array():
    # after a warm-up pass on the table, one phi_dot allocates less than one
    # complex array of the T = N^2 - N triples: its scratch lives with the table
    N = 127
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), N)
    params = ChainParams(N=N, beta=100.0)
    state = random_gibbs_states(N, 100.0, 1, seed=1)[0]
    phi_dot(state, pk, params)
    tracemalloc.start()
    try:
        phi_dot(state, pk, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * pk.n_triples


_BUMP_SPECS = st.builds(
    lambda lo, width, amplitude: {"kind": "bump", "center": lo + width / 2,
                                  "width": width, "amplitude": amplitude},
    lo=st.floats(0.0, 0.5), width=st.floats(0.05, 0.5),
    amplitude=st.floats(-5.0, 5.0))
_POLY_SPECS = st.builds(
    lambda coeffs: {"kind": "poly_x2", "coeffs": coeffs},
    st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4))


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(_BUMP_SPECS, _POLY_SPECS), N=st.integers(3, 80),
       seed=st.integers(0, 2**32 - 1))
@example(spec={"kind": "poly_x2", "coeffs": [0.0, 0.0, 1.0, 5e-324]}, N=3, seed=0)
def test_phi1_and_gradient_bit_identical_property(spec, N, seed):
    pk = build_phi1_table(make_profile(spec), N, require_admissible=False)
    rng = np.random.default_rng(seed)
    _assert_matches_reference(pk, [ChainState(rng.normal(size=N), rng.normal(size=N))])


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(_BUMP_SPECS, _POLY_SPECS).filter(lambda s: make_profile(s).admissible),
       N=st.integers(3, 64), seed=st.integers(0, 2**32 - 1), exponent=st.floats(-2.0, 1.0))
def test_homological_residual_property(spec, N, seed, exponent):
    pk = build_phi1_table(make_profile(spec), N)
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    state = ChainState(scale * rng.normal(size=N), scale * rng.normal(size=N))
    assert homological_residual(state, pk) <= 1e-9


def test_grad_phi_matches_finite_differences():
    N = 15
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), N)
    rng = np.random.default_rng(6)
    h = 1e-6

    def f(st):
        return phi0(st, pk.nu_k) + phi1(st, pk)

    for _ in range(100):
        st = ChainState(0.5 * rng.normal(size=N), 0.5 * rng.normal(size=N))
        _, _, d0, d1 = _corrector_pass(st, pk, gradient=True)
        dq, dp = (sine_transform(a + b) for a, b in zip(d0, d1))
        fd_q = np.empty(N)
        fd_p = np.empty(N)
        for j in range(N):
            qp, qm = st.q.copy(), st.q.copy()
            qp[j] += h
            qm[j] -= h
            fd_q[j] = (f(ChainState(st.p, qp)) - f(ChainState(st.p, qm))) / (2 * h)
            pp, pm = st.p.copy(), st.p.copy()
            pp[j] += h
            pm[j] -= h
            fd_p[j] = (f(ChainState(pp, st.q)) - f(ChainState(pm, st.q))) / (2 * h)
        scale = max(np.abs(dq).max(), np.abs(dp).max(), 1e-12)
        assert np.abs(dq - fd_q).max() <= 1e-6 * scale
        assert np.abs(dp - fd_p).max() <= 1e-6 * scale


def test_grad_phi1_zero_state():
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), 15)
    _, (dq, dp) = _grad_phi(ChainState(np.zeros(15), np.zeros(15)), pk)
    assert np.abs(dq).max() == 0.0
    assert np.abs(dp).max() == 0.0


def test_phi_dot_zero_state():
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), 15)
    params = ChainParams(N=15)
    assert phi_dot(ChainState(np.zeros(15), np.zeros(15)), pk, params) == (0.0, 0.0, 0.0)


def test_phi_dot_matches_trajectory_derivative():
    N = 31
    params = ChainParams(N=N, beta=100.0)
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), N)
    states = random_gibbs_states(N, 100.0, 20, seed=7)
    dt = 1e-3
    for st in states:
        snaps = integrate(st, params, dt, 2 * dt)
        f = [phi0(s, pk.nu_k) + phi1(s, pk) for _, s in snaps]
        fd = (f[2] - f[0]) / (2 * dt)
        an = phi_dot(snaps[1][1], pk, params)[2]
        assert abs(fd - an) <= 1e-4 * max(abs(an), 1e-12)


def test_phi_dot_equals_split_form():
    N = 31
    params = ChainParams(N=N, beta=100.0)
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), N)
    for st in random_gibbs_states(N, 100.0, 10, seed=8):
        full = phi_dot(st, pk, params)[2]
        split = _phi_dot_split(st, pk, params)
        assert abs(full - split) <= 1e-9 * max(abs(full), 1e-12)


def test_phi_dot_values_are_phi0_and_phi1():
    N = 31
    params = ChainParams(N=N, beta=100.0)
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), N)
    for st in random_gibbs_states(N, 100.0, 5, seed=11):
        v0, v1, _ = phi_dot(st, pk, params)
        assert (v0, v1) == (phi0(st, pk.nu_k), phi1(st, pk))


def test_homological_residual_machine_precision():
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), 31)
    assert homological_residual(ChainState(np.zeros(31), np.zeros(31)), pk) == 0.0
    worst = max(homological_residual(st, pk)
                for st in random_gibbs_states(31, 100.0, 100, seed=9))
    assert worst <= 1e-9


def test_homological_residual_detects_corruption():
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), 15)
    bad = pk.coeffs.copy()
    bad[0, 1] *= 2.0  # the pass pairs it with its conjugate pattern: real but wrong
    broken = dataclasses.replace(pk, coeffs=bad)
    rng = np.random.default_rng(10)
    residuals = [homological_residual(ChainState(rng.normal(size=15), rng.normal(size=15)),
                                      broken) for _ in range(5)]
    assert min(residuals) > 1e-4


def test_make_ps_test_properties():
    prof_om = make_profile(OMEGA_PROFILE)
    f0, s0, norm0 = ps_observable("Phi0", prof_om, 31)
    assert (s0, norm0) == (2, pytest.approx(1.0))
    h1, s_h1, norm_h1 = ps_observable("H1", prof_om, 31)
    assert s_h1 == 3
    assert norm_h1 == ps_observable("H1", prof_om, 63)[2] == 0.25
    f1, s1, norm1 = ps_observable("Phi1", prof_om, 31)
    assert s1 == 3
    assert norm1 == pytest.approx(0.25, rel=1e-12)
    assert ps_observable("Phi1", prof_om, 63)[2] == pytest.approx(norm1, rel=1e-12)
    rng = np.random.default_rng(12)
    st = ChainState(rng.normal(size=31), rng.normal(size=31))
    assert h1(st) == pytest.approx(cubic_energy(st), rel=1e-14)
    assert f0(st) == phi0(st, mode_weights(prof_om, 31)[1])
    assert f1(st) == phi1(st, build_phi1_table(prof_om, 31))
    table = build_phi1_table(prof_om, 31)
    given, s_given, norm_given = ps_observable("Phi1", prof_om, 31, table)
    assert given.keywords["packet"] is table and (s_given, norm_given) == (s1, norm1)
    assert given(st) == f1(st)
    with pytest.raises(ValueError, match="table is for N=31, not N=63"):
        ps_observable("Phi1", prof_om, 63, table)
    with pytest.raises(ValueError):
        ps_observable("Phi2", prof_om, 31)


def test_bracket_norm_bound():
    for spec in (OMEGA_PROFILE, DEFAULT_PROFILE_SPEC):
        norm, bound = bracket_norm_check(make_profile(spec), 63)
        assert 0 < norm <= bound
