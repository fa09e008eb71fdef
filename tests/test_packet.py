import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (TAU8, bracket_norm_check, energies, from_modes, full_corrector_table,
                     integrate, phi0_slope)

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


def _direction(pk, dq_hat, dp_hat):
    """The corrector pass's complex direction for the mode tangent (dq_hat, dp_hat)."""
    return (dp_hat + 1j * pk.omega * dq_hat) / np.sqrt(2.0)


def _phi_dot_split(state, pk, params):
    """{Phi1, H1+H2} + {Phi0, H2}: the form of Phi-dot that the homological
    identity reduces {Phi, H} to, an independent reference for phi_dot.  H1
    and H2 carry no momentum, so {F, G} = -dF/dp . dG/dq for both; dPhi1/dp
    comes from the 8-pattern oracle gradient and dPhi0/dp = T(g p_hat)."""
    r = bond_extensions(state.q)
    _, dph1 = _grad_phi1_reference(state, pk, full_corrector_table(pk)[0])
    dp1 = sine_transform(dph1)
    dp0 = sine_transform(pk.g_k * to_modes(state).p_hat)
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
    h1 = eval_h1([prof], 2048)[0].value
    assert np.abs(_ratios(build_phi1_table(prof, 127))).max() <= h1 * 1.05


def test_inadmissible_profile_table_builds():
    # config validation refuses g'(0) != 0 wherever a table is built; the
    # table itself builds for any profile
    pk = build_phi1_table(make_profile({"kind": "linear"}), 15)
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


def _assert_tangent_matches_oracle(pk, coeffs8, state, dq_hat, dp_hat):
    """The pass's dPhi1 along the mode tangent (dq_hat, dp_hat) equals the
    oracle gradient dotted with it, to a rounding bound; returns the pass.

    Both sides add the same leg terms, c times two legs of xi times the third
    leg's tangent, 24 per triple, in other orders: the pass in gathered dots,
    the oracle in scattered bins and then a 2N-term real dot.  By the
    recursive-summation bound (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, sec. 4.2) each side is within gamma_n A of the
    exact value, where A is the sum of the terms' moduli, scaled as in dPhi1,
    and n = 24 T + 2N + 16 counts the additions on a term's path plus 16 for
    its multiplications.  The oracle's real form bounds each term by
    sqrt(2) |c x x dxi|, not |c x x dxi|, so the sides differ by at most
    4 gamma_n A.

    That bound assumes no underflow.  With gradual underflow the standard
    model is fl(x op y) = (x op y)(1 + delta) + eta, where eta = 0 for + and -
    and |eta| <= 2^-1075 for * and / (Higham, sec. 2.1).  The deltas give
    4 gamma_n A; the etas add an absolute error, which is all there is when
    A is subnormal (an amplitude of 5e-324 makes A about 3e-323, and
    4 gamma_n A rounds to 0).  The pass multiplies by c last, one eta per
    stored term, then scales by 2/sqrt(N+1) <= 1.  The oracle forms each of
    its 24 T leg terms as (c x) x', 6 real products, and each of its 2N bins
    takes at most 6 more in the scalings and the final dots.  That is at most
    4 T + 1 + 6 (24 T) + 12 N <= 8 n etas.  An eta is carried to the result
    only by the factors after it: at most one leg |x| <= L = max(1, max|xi|),
    a bin's scaling (omega + 1) / sqrt(2 (N+1)) <= 2 (a bin reaches both
    dq_hat and dp_hat, and omega <= 2), and one tangent component
    <= D = max(1, max|dq_hat|, max|dp_hat|).  So the sides also differ by at
    most 8 n (2 L D) 2^-1075 = 8 n L D 2^-1074, which is far below
    4 gamma_n A unless A is near underflow.
    """
    ms = to_modes(state)
    got = _corrector_pass(ms, pk, _direction(pk, dq_hat, dp_hat))
    dqh, dph = _grad_phi1_reference(state, pk, coeffs8)
    xi = np.abs(to_complex(ms))
    dxi = np.abs(_direction(pk, dq_hat, dp_hat))
    (a1, b1), (a2, b2), (a3, b3) = ((xi[k - 1], dxi[k - 1]) for k in (pk.k1, pk.k2, pk.k3))
    legs = b1 * a2 * a3 + a1 * b2 * a3 + a1 * a2 * b3
    moduli = 2.0 * (np.abs(pk.coeffs).sum(axis=1) @ legs) / np.sqrt(pk.N + 1)
    n = 24 * pk.n_triples + 2 * pk.N + 16
    u = np.finfo(float).eps / 2
    L = max(1.0, xi.max())
    D = max(1.0, np.abs(dq_hat).max(), np.abs(dp_hat).max())
    underflow = 8 * n * L * D * 2.0**-1074
    assert abs(got[2] - (dqh @ dq_hat + dph @ dp_hat)) <= \
        4 * n * u / (1 - n * u) * moduli + underflow
    return got


def _assert_matches_reference(pk, states, rng):
    # Phi1 bit for bit, with and without a direction; its tangent to rounding
    coeffs8, _ = full_corrector_table(pk)
    for state in states:
        dq_hat, dp_hat = rng.normal(size=(2, pk.N))
        _, value, _ = _assert_tangent_matches_oracle(pk, coeffs8, state, dq_hat, dp_hat)
        assert value == phi1(state, pk) == _phi1_reference(state, pk, coeffs8)


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
    _assert_matches_reference(pk, states, rng)


def test_corrector_scratch_carries_no_state():
    # a table's work buffers are reused by every pass on it: interleaved
    # states, with a direction or without, another table alive at another N
    # and a Phi1 observable must each give a fresh table's bits, and a
    # returned result must not change under later passes
    prof = make_profile(DEFAULT_PROFILE_SPEC)
    rng = np.random.default_rng(3)
    tables = {N: build_phi1_table(prof, N) for N in (31, 15)}
    a, b = (ChainState(rng.normal(size=31), rng.normal(size=31)) for _ in range(2))
    c = ChainState(rng.normal(size=15), rng.normal(size=15))
    directions = {N: rng.normal(size=N) + 1j * rng.normal(size=N) for N in (31, 15)}
    observable = ps_observable("Phi1", prof, 31, build_phi1_table(prof, 31))[0]
    calls = [(a, True), (b, True), (c, True), (a, False), (a, True), (c, False),
             (b, False), (a, True)]

    def corrector(state, tangent, table):
        return _corrector_pass(to_modes(state), table, directions[state.n] if tangent else None)

    results = []
    for state, tangent in calls:
        results.append(corrector(state, tangent, tables[state.n]))
        other = b if state is a else a
        assert observable(other) == phi1(other, build_phi1_table(prof, 31))
    for (state, tangent), got in zip(calls, results):
        assert got == corrector(state, tangent, build_phi1_table(prof, state.n))


def test_phi_dot_allocates_no_triple_sized_array():
    # after a warm-up pass on the table, one phi_dot or homological_residual
    # allocates less than one complex array of the T = N^2 - N triples: its
    # scratch lives with the table
    N = 127
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), N)
    state = random_gibbs_states(N, 100.0, 1, seed=1)[0]
    for observe in (partial(phi_dot, params=ChainParams(N=N, beta=100.0)),
                    homological_residual):
        observe(state, pk)
        tracemalloc.start()
        try:
            observe(state, pk)
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
@example(spec={"kind": "poly_x2", "coeffs": [5e-324]}, N=3, seed=0)    # subnormal A
def test_phi1_and_gradient_bit_identical_property(spec, N, seed):
    pk = build_phi1_table(make_profile(spec), N)
    rng = np.random.default_rng(seed)
    _assert_matches_reference(pk, [ChainState(rng.normal(size=N), rng.normal(size=N))], rng)


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(_BUMP_SPECS, _POLY_SPECS), N=st.integers(3, 80),
       seed=st.integers(0, 2**32 - 1), exponent=st.floats(-2.0, 1.0),
       kind=st.sampled_from(["random", "q only", "p only", "harmonic flow"]))
@example(spec={"kind": "poly_x2", "coeffs": [5e-324]}, N=3, seed=0, exponent=0.0,
         kind="random")     # subnormal A
def test_tangent_is_oracle_gradient_along_direction_property(spec, N, seed, exponent, kind):
    pk = build_phi1_table(make_profile(spec), N)
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    state = ChainState(scale * rng.normal(size=N), scale * rng.normal(size=N))
    dq_hat, dp_hat = rng.normal(size=(2, N))
    if kind == "q only":
        dp_hat[:] = 0.0
    elif kind == "p only":
        dq_hat[:] = 0.0
    elif kind == "harmonic flow":       # the direction i omega xi of the residual
        ms = to_modes(state)
        dq_hat, dp_hat = ms.p_hat, -ms.omega**2 * ms.q_hat
    _assert_tangent_matches_oracle(pk, full_corrector_table(pk)[0], state, dq_hat, dp_hat)


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
    # the derivative of Phi0 + Phi1 along a random particle-space direction
    N = 15
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), N)
    rng = np.random.default_rng(6)
    h = 1e-6

    def f(st):
        return phi0(st, pk.nu_k) + phi1(st, pk)

    for _ in range(100):
        st = ChainState(0.5 * rng.normal(size=N), 0.5 * rng.normal(size=N))
        dq, dp = rng.normal(size=(2, N))
        ms = to_modes(st)
        dq_hat, dp_hat = sine_transform(dq), sine_transform(dp)
        slope1 = _corrector_pass(ms, pk, _direction(pk, dq_hat, dp_hat))[2]
        an = phi0_slope(ms, pk.g_k, dq_hat, dp_hat) + slope1
        fd = (f(ChainState(st.p + h * dp, st.q + h * dq))
              - f(ChainState(st.p - h * dp, st.q - h * dq))) / (2 * h)
        assert abs(an - fd) <= 1e-6 * max(abs(an), 1e-12)


def test_grad_phi1_zero_state():
    # Phi1 is cubic: at the zero state its derivative vanishes in every direction
    pk = build_phi1_table(make_profile(DEFAULT_PROFILE_SPEC), 15)
    dq_hat, dp_hat = np.random.default_rng(13).normal(size=(2, 15))
    zero = to_modes(ChainState(np.zeros(15), np.zeros(15)))
    assert _corrector_pass(zero, pk, _direction(pk, dq_hat, dp_hat))[2] == 0.0


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


def _phi_dot_longdouble(state, pk, A) -> float:
    """phi_dot's Phi-dot in extended precision (np.longdouble), from its
    textbook form: the full force T(diff V'(r)) as dp_hat, Phi0's slope with
    both of its {Phi0, H0} sums, and Phi1's slope by the product rule over
    each stored monomial's legs.  Only the table's coefficients stay float64."""
    ld = np.longdouble
    jk = np.arange(1, pk.N + 1, dtype=ld)
    pi = ld("3.14159265358979323846264338327950288")
    T = np.sqrt(ld(2) / (pk.N + 1)) * np.sin(pi * np.outer(jk, jk) / (pk.N + 1))
    omega = 2 * np.sin(pi * jk / (2 * (pk.N + 1)))
    r = np.diff(state.q.astype(ld), prepend=ld(0), append=ld(0))
    p_hat, q_hat = T @ state.p.astype(ld), T @ state.q.astype(ld)
    dq_hat, dp_hat = p_hat, T @ np.diff(r + r * r + A * r**3)
    slope0 = np.sum(pk.g_k.astype(ld) * (p_hat * dp_hat + omega**2 * q_hat * dq_hat))
    # xi and the direction at 1..N, so that legs index by k
    xi, dxi = (np.concatenate([[0], (a + 1j * omega * b) / np.sqrt(ld(2))]).astype(np.clongdouble)
               for a, b in ((p_hat, q_hat), (dp_hat, dq_hat)))
    ds = np.clongdouble(0)
    for m, tau in enumerate(TAU_PATTERNS):
        x, d = ([v[k] if t > 0 else np.conj(v[k]) for k, t in zip((pk.k1, pk.k2, pk.k3), tau)]
                for v in (xi, dxi))
        dX = d[0] * x[1] * x[2] + x[0] * d[1] * x[2] + x[0] * x[1] * d[2]
        ds += np.sum(pk.coeffs[:, m].astype(ld) * dX)
    return float(slope0 - 2 * ds.imag / np.sqrt(ld(pk.N + 1)))


def test_phi_dot_is_accurate_at_low_temperature():
    # At beta = 1e4 Phi-dot is far smaller than the two opposite sums of
    # {Phi0, H0}; formed in float64 they cost 5e-10 to 9e-9 of it (worst of
    # 20 states, seeds 1-7), and without them the worst is 5e-12 to 3e-11
    N, beta = 31, 1e4
    params = ChainParams(N=N, beta=beta)
    pk = build_phi1_table(make_profile({"kind": "poly_x2", "coeffs": [1.0, 0.5]}), N)
    worst = 0.0
    for st in random_gibbs_states(N, beta, 20, seed=1):
        ref = _phi_dot_longdouble(st, pk, params.A)
        worst = max(worst, abs(phi_dot(st, pk, params)[2] - ref) / abs(ref))
    assert worst <= 1e-10


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
    table = build_phi1_table(prof_om, 31)
    f1, s1, norm1 = ps_observable("Phi1", prof_om, 31, table)
    assert f1.keywords["packet"] is table and s1 == 3
    assert norm1 == pytest.approx(0.25, rel=1e-12)
    assert ps_observable("Phi1", prof_om, 63, build_phi1_table(prof_om, 63))[2] == \
        pytest.approx(norm1, rel=1e-12)
    rng = np.random.default_rng(12)
    st = ChainState(rng.normal(size=31), rng.normal(size=31))
    assert h1(st) == pytest.approx(cubic_energy(st), rel=1e-14)
    assert f0(st) == phi0(st, mode_weights(prof_om, 31)[1])
    assert f1(st) == phi1(st, build_phi1_table(prof_om, 31))
    with pytest.raises(ValueError, match="corrector table at N=63"):
        ps_observable("Phi1", prof_om, 63, table)
    with pytest.raises(ValueError, match="corrector table at N=31"):
        ps_observable("Phi1", prof_om, 31)
    with pytest.raises(ValueError):
        ps_observable("Phi2", prof_om, 31)


def test_bracket_norm_bound():
    for spec in (OMEGA_PROFILE, DEFAULT_PROFILE_SPEC):
        norm, bound = bracket_norm_check(make_profile(spec), 63)
        assert 0 < norm <= bound
