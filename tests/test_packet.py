import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpu_packets.chain import ChainParams, ChainState, cubic_energy, energies
from fpu_packets.gibbs import GibbsSampler
from fpu_packets.packet import (TAU_PATTERNS, PacketError, PhaseGradient,
                                _grad_phi1_modes, bracket_norm_check,
                                build_phi1_table, grad_hamiltonian, grad_phi,
                                homological_residual, make_ps_test, phi0, phi1,
                                phi_dot, phi_dot_split, poisson_bracket)
from fpu_packets.profiles import DEFAULT_PROFILE_SPEC, eval_h1, make_profile
from fpu_packets.spectral import advance_harmonic, frequencies, from_modes, to_complex

OMEGA_PROFILE = {"kind": "constant", "value": 1.0}   # nu = omega


def random_gibbs_states(N, beta, n, seed):
    sampler = GibbsSampler(ChainParams(N=N, beta=beta), np.random.default_rng(seed))
    return [sampler.sample().state for _ in range(n)]


def test_triple_enumeration_n3():
    pk = build_phi1_table(make_profile(OMEGA_PROFILE), 3)
    trips = {(t.k1, t.k2, t.k3, t.kind, t.weight) for t in pk.triples()}
    assert trips == {
        (1, 1, 2, "sum", 3), (1, 2, 3, "sum", 3), (2, 1, 3, "sum", 3),
        (2, 3, 3, "wrap", 1), (3, 2, 3, "wrap", 1), (3, 3, 2, "wrap", 1),
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
    assert {(t.k1, t.k2, t.k3, t.kind) for t in pk.triples()} == expect


def test_triple_count_scaling():
    n63 = build_phi1_table(make_profile(OMEGA_PROFILE), 63).n_triples
    n127 = build_phi1_table(make_profile(OMEGA_PROFILE), 127).n_triples
    assert 3.6 <= n127 / n63 <= 4.4


def test_ratios_unity_for_nu_equals_omega():
    pk = build_phi1_table(make_profile(OMEGA_PROFILE), 15)
    assert np.abs(np.abs(pk.ratios) - 1.0).max() < 1e-12
    # fully aligned pattern (+,+,+) is the first row of the pattern table
    assert np.abs(pk.ratios[:, 0] - 1.0).max() < 1e-12


def test_table_coefficients_bounded_by_h1():
    prof = make_profile(DEFAULT_PROFILE_SPEC)
    h1 = eval_h1(prof, 2048).value
    pk = build_phi1_table(prof, 127)
    assert np.abs(pk.ratios).max() <= h1 * 1.05


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
    pk = build_phi1_table(prof, N)
    om = frequencies(N)
    x = np.arange(1, N + 1) / (N + 1)
    nu = prof.nu(x)
    for k in (2, 9):
        e = np.zeros(N)
        e[k - 1] = 1.0
        st = from_modes(e, np.zeros(N))
        assert phi0(st, pk) == pytest.approx(nu[k - 1] / (2 * om[k - 1]), rel=1e-12)
    zero = ChainState(np.zeros(N), np.zeros(N))
    assert phi0(zero, pk) == 0.0
    pk_om = build_phi1_table(make_profile(OMEGA_PROFILE), N)
    rng = np.random.default_rng(0)
    st = ChainState(rng.normal(size=N), rng.normal(size=N))
    assert phi0(st, pk_om) == pytest.approx(energies(st, ChainParams(N=N))[0], rel=1e-12)
    with pytest.raises(ValueError):
        phi0(ChainState(np.zeros(8), np.zeros(8)), pk)


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
        r = [abs(phi1(s, pk)) / abs(phi0(s, pk)) for s in states]
        med[beta] = np.median(r)
    assert med[400.0] <= 0.6 * med[100.0]


def _phi1_reference(state, pk):
    """Phi1 summed over all 8 sign patterns."""
    xi = to_complex(state)
    eta = np.conj(xi)
    i1, i2, i3 = pk.k1 - 1, pk.k2 - 1, pk.k3 - 1
    total = 0.0j
    for m in range(8):
        t1, t2, t3 = TAU_PATTERNS[m]
        f = ((xi if t1 > 0 else eta)[i1]
             * (xi if t2 > 0 else eta)[i2]
             * (xi if t3 > 0 else eta)[i3])
        total += pk.coeffs[:, m] @ f
    return float((1j * total / np.sqrt(pk.N + 1)).real)


def _grad_phi1_reference(state, pk):
    """Mode-space gradient of Phi1, scattered from all 8 sign patterns."""
    xi = to_complex(state)
    eta = np.conj(xi)
    i1, i2, i3 = pk.k1 - 1, pk.k2 - 1, pk.k3 - 1
    dxi = np.zeros(pk.N, dtype=complex)
    deta = np.zeros(pk.N, dtype=complex)

    def scatter_add(dest, idx, vals):
        dest += (np.bincount(idx, weights=vals.real, minlength=pk.N)
                 + 1j * np.bincount(idx, weights=vals.imag, minlength=pk.N))

    for m in range(8):
        t1, t2, t3 = TAU_PATTERNS[m]
        f1 = (xi if t1 > 0 else eta)[i1]
        f2 = (xi if t2 > 0 else eta)[i2]
        f3 = (xi if t3 > 0 else eta)[i3]
        c = pk.coeffs[:, m]
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
    assert pk.paired
    for state in states:
        assert phi1(state, pk) == _phi1_reference(state, pk)
        dqh, dph = _grad_phi1_modes(state, pk)
        ref_dqh, ref_dph = _grad_phi1_reference(state, pk)
        assert np.array_equal(dqh, ref_dqh)
        assert np.array_equal(dph, ref_dph)


_REFERENCE_SPECS = [
    {"kind": "constant", "value": 1.0},
    {"kind": "poly_x2", "coeffs": [1.0, 0.5]},
    {"kind": "cosine", "amplitude": 1.0},
    DEFAULT_PROFILE_SPEC,
]


@pytest.mark.parametrize("N", [3, 4, 15, 64, 127, 255])
@pytest.mark.parametrize("spec", _REFERENCE_SPECS, ids=lambda spec: spec["kind"])
def test_phi1_and_gradient_bit_identical_to_8_patterns(spec, N):
    pk = build_phi1_table(make_profile(spec), N)
    rng = np.random.default_rng(N)
    states = random_gibbs_states(N, 100.0, 3, seed=N)
    states += [ChainState(rng.normal(size=N), rng.normal(size=N)) for _ in range(3)]
    states.append(ChainState(np.zeros(N), np.zeros(N)))
    _assert_matches_reference(pk, states)


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


@pytest.mark.parametrize("column", [1, 6])
def test_corrector_rejects_unpaired_table(column):
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), 15)
    bad = pk.coeffs.copy()
    bad[0, column] *= 2.0  # breaks the conjugation pairing
    broken = dataclasses.replace(pk, coeffs=bad)
    assert pk.paired and not broken.paired
    rng = np.random.default_rng(3)
    state = ChainState(rng.normal(size=15), rng.normal(size=15))
    with pytest.raises(PacketError, match="pairing"):
        phi1(state, broken)
    with pytest.raises(PacketError, match="pairing"):
        grad_phi(state, broken, "phi1")
    with pytest.raises(PacketError, match="pairing"):
        homological_residual(state, broken)


def test_poisson_bracket_basics():
    n = 6
    e2 = np.zeros(n)
    e2[2] = 1.0
    gq = PhaseGradient(dq=e2, dp=np.zeros(n))   # gradient of q_2
    gp = PhaseGradient(dq=np.zeros(n), dp=e2)   # gradient of p_2
    assert poisson_bracket(gq, gp) == 1.0
    assert poisson_bracket(gp, gq) == -1.0
    rng = np.random.default_rng(4)
    g = PhaseGradient(dq=rng.normal(size=n), dp=rng.normal(size=n))
    assert poisson_bracket(g, g) == 0.0
    with pytest.raises(ValueError):
        poisson_bracket(g, PhaseGradient(dq=np.zeros(3), dp=np.zeros(3)))


def test_hamiltonian_self_bracket_vanishes():
    params = ChainParams(N=21, A=1.4)
    rng = np.random.default_rng(5)
    for _ in range(5):
        st = ChainState(rng.normal(size=21), rng.normal(size=21))
        g_all = grad_hamiltonian(st, params, "all")
        parts = [grad_hamiltonian(st, params, p) for p in ("h0", "h1", "h2")]
        summed = PhaseGradient(dq=sum(p.dq for p in parts), dp=sum(p.dp for p in parts))
        assert np.abs(summed.dq - g_all.dq).max() < 1e-12
        val = poisson_bracket(g_all, summed)
        scale = np.abs(g_all.dq).max() * np.abs(g_all.dp).max() * 21
        assert abs(val) < 1e-10 * max(scale, 1.0)


def test_grad_phi_matches_finite_differences():
    N = 15
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), N)
    rng = np.random.default_rng(6)
    h = 1e-6

    def f(st):
        return phi0(st, pk) + phi1(st, pk)

    for _ in range(100):
        st = ChainState(0.5 * rng.normal(size=N), 0.5 * rng.normal(size=N))
        g = grad_phi(st, pk, "phi")
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
        scale = max(np.abs(g.dq).max(), np.abs(g.dp).max(), 1e-12)
        assert np.abs(g.dq - fd_q).max() <= 1e-6 * scale
        assert np.abs(g.dp - fd_p).max() <= 1e-6 * scale


def test_grad_phi1_zero_state():
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), 15)
    g = grad_phi(ChainState(np.zeros(15), np.zeros(15)), pk, "phi1")
    assert np.abs(g.dq).max() == 0.0
    assert np.abs(g.dp).max() == 0.0


def test_phi_dot_zero_state():
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), 15)
    params = ChainParams(N=15)
    assert phi_dot(ChainState(np.zeros(15), np.zeros(15)), pk, params) == 0.0


def test_phi_dot_matches_trajectory_derivative():
    from fpu_packets.chain import integrate

    N = 31
    params = ChainParams(N=N, beta=100.0)
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), N)
    states = random_gibbs_states(N, 100.0, 20, seed=7)
    dt = 1e-3
    for st in states:
        snaps = integrate(st, params, dt, 2 * dt)
        f = [phi0(s, pk) + phi1(s, pk) for _, s in snaps]
        fd = (f[2] - f[0]) / (2 * dt)
        an = phi_dot(snaps[1][1], pk, params)
        assert abs(fd - an) <= 1e-4 * max(abs(an), 1e-12)


def test_phi_dot_equals_split_form():
    N = 31
    params = ChainParams(N=N, beta=100.0)
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), N)
    for st in random_gibbs_states(N, 100.0, 10, seed=8):
        full = phi_dot(st, pk, params)
        split = phi_dot_split(st, pk, params)
        assert abs(full - split) <= 1e-9 * max(abs(full), 1e-12)


def test_homological_residual_machine_precision():
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), 31)
    assert homological_residual(ChainState(np.zeros(31), np.zeros(31)), pk) == 0.0
    worst = max(homological_residual(st, pk)
                for st in random_gibbs_states(31, 100.0, 100, seed=9))
    assert worst <= 1e-9


def test_homological_residual_detects_corruption():
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), 15)
    bad = pk.coeffs.copy()
    bad[0, 1] *= 2.0
    bad[0, 6] *= 2.0  # conjugate pattern, keeps Phi1 real but wrong
    broken = dataclasses.replace(pk, coeffs=bad)
    rng = np.random.default_rng(10)
    residuals = [homological_residual(ChainState(rng.normal(size=15), rng.normal(size=15)),
                                      broken) for _ in range(5)]
    assert min(residuals) > 1e-4


def test_phi0_invariant_under_harmonic_flow():
    N = 31
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), N)
    st = random_gibbs_states(N, 100.0, 1, seed=11)[0]
    base = phi0(st, pk)
    for t in np.linspace(5.0, 100.0, 8):
        drift = abs(phi0(advance_harmonic(st, t), pk) - base)
        assert drift <= 1e-8 * max(abs(base), 1e-12)


def test_make_ps_test_properties():
    prof_om = make_profile(OMEGA_PROFILE)
    f0 = make_ps_test("Phi0", prof_om, 31)
    assert (f0.s, f0.plus_norm) == (2, pytest.approx(1.0))
    h1 = make_ps_test("H1", None, 31)
    assert h1.s == 3
    assert h1.plus_norm == make_ps_test("H1", None, 63).plus_norm == 0.25
    f1 = make_ps_test("Phi1", prof_om, 31)
    assert f1.s == 3
    assert f1.plus_norm == pytest.approx(0.25, rel=1e-12)
    assert make_ps_test("Phi1", prof_om, 63).plus_norm == pytest.approx(f1.plus_norm, rel=1e-12)
    rng = np.random.default_rng(12)
    st = ChainState(rng.normal(size=31), rng.normal(size=31))
    assert h1.observable(st) == pytest.approx(cubic_energy(st), rel=1e-14)
    resized = f1.for_size(63)
    assert resized.N == 63
    with pytest.raises(ValueError):
        make_ps_test("Phi2", prof_om, 31)
    with pytest.raises(ValueError):
        make_ps_test("Phi0", None, 31)


def test_bracket_norm_bound():
    for spec in (OMEGA_PROFILE, DEFAULT_PROFILE_SPEC):
        norm, bound = bracket_norm_check(make_profile(spec), 63)
        assert 0 < norm <= bound
