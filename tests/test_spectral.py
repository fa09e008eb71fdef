import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import energies, from_modes

from fpu_packets.chain import ChainParams, ChainState
from fpu_packets.gibbs import GibbsSampler
from fpu_packets.packet import mode_weights, phi0
from fpu_packets.profiles import DEFAULT_PROFILE_SPEC, make_profile
from fpu_packets.spectral import actions, frequencies, sine_transform, to_complex, to_modes


def advance_harmonic(state, t):
    """Exact linear flow: rotate each mode's phase by omega_k t.

    Leaves every action invariant to rounding; the analytic reference for the
    harmonic part of the dynamics.
    """
    ms = to_modes(state)
    c = np.cos(ms.omega * t)
    s = np.sin(ms.omega * t)
    p_new = ms.p_hat * c - ms.omega * ms.q_hat * s
    q_new = ms.q_hat * c + (ms.p_hat / ms.omega) * s
    return from_modes(p_new, q_new)


@pytest.mark.parametrize("N", [1, 2, 16, 127, 1023])
def test_involution_and_norm(N):
    rng = np.random.default_rng(N)
    v = rng.normal(size=N)
    w = sine_transform(v)
    assert np.abs(sine_transform(w) - v).max() < 1e-12
    assert abs(np.linalg.norm(w) - np.linalg.norm(v)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 256), B=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_involution_property(N, B, seed):
    # B = 0 draws one (N,) vector, B > 0 a (B, N) block
    v = np.random.default_rng(seed).normal(size=(B, N) if B else N)
    assert np.abs(sine_transform(sine_transform(v)) - v).max() <= 1e-12 * np.abs(v).max()


def test_single_site_identity():
    assert sine_transform(np.array([3.5]))[0] == pytest.approx(3.5, rel=1e-15)


def test_frequencies_values():
    om = frequencies(99)
    assert om[0] == pytest.approx(2 * np.sin(np.pi / 200), rel=1e-15)
    om = frequencies(11)  # odd N: middle mode hits sqrt(2)
    assert om[(11 + 1) // 2 - 1] == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert frequencies(4001)[-1] == pytest.approx(2.0, abs=1e-6)
    assert (np.diff(frequencies(200)) > 0).all()
    assert (frequencies(200) > 0).all() and (frequencies(200) < 2).all()


def test_actions_single_mode():
    N = 12
    om = frequencies(N)
    for k in (1, 7, N):
        e = np.zeros(N)
        e[k - 1] = 1.0
        I = actions(to_modes(from_modes(e, np.zeros(N))))
        assert I[k - 1] == pytest.approx(1.0 / (2 * om[k - 1]), rel=1e-12)
        assert np.abs(np.delete(I, k - 1)).max() < 1e-15
        I = actions(to_modes(from_modes(np.zeros(N), e)))
        assert I[k - 1] == pytest.approx(om[k - 1] / 2, rel=1e-12)


@pytest.mark.parametrize("N", [16, 255, 1023])
def test_parseval(N):
    rng = np.random.default_rng(N + 1)
    st = ChainState(rng.normal(size=N), rng.normal(size=N))
    h0 = energies(st, ChainParams(N=N))[0]
    assert abs(frequencies(N) @ actions(to_modes(st)) - h0) < 1e-10 * max(h0, 1.0)


def test_to_complex_identities():
    N = 33
    rng = np.random.default_rng(2)
    st = ChainState(rng.normal(size=N), rng.normal(size=N))
    xi = to_complex(to_modes(st))
    om = frequencies(N)
    I = actions(to_modes(st))
    assert np.abs(xi * np.conj(xi) - om * I).max() < 1e-12 * max(1.0, np.abs(om * I).max())
    h0 = energies(st, ChainParams(N=N))[0]
    assert abs((xi * np.conj(xi)).sum().real - h0) < 1e-10 * max(h0, 1.0)
    e = np.zeros(N)
    e[4] = 1.0
    xi = to_complex(to_modes(from_modes(e, np.zeros(N))))
    assert xi[4] == pytest.approx(1 / np.sqrt(2))


def test_actions_invariant_under_harmonic_flow():
    params = ChainParams(N=31, beta=50.0)
    st = GibbsSampler(params, np.random.default_rng(7)).sample()
    I0 = actions(to_modes(st))
    for t in (0.3, 7.0, 111.0):
        It = actions(to_modes(advance_harmonic(st, t)))
        assert np.abs(It - I0).max() < 1e-12 * max(1.0, I0.max())


def test_advance_harmonic_matches_mode_rotation():
    N = 9
    om = frequencies(N)
    rng = np.random.default_rng(3)
    p_hat = rng.normal(size=N)
    q_hat = rng.normal(size=N)
    st = from_modes(p_hat, q_hat)
    t = 2.7
    ms = to_modes(advance_harmonic(st, t))
    assert np.abs(ms.p_hat - (p_hat * np.cos(om * t) - om * q_hat * np.sin(om * t))).max() < 1e-12


def test_phi0_invariant_under_harmonic_flow():
    N = 31
    nu_k = mode_weights(make_profile(DEFAULT_PROFILE_SPEC), N)[1]
    st = GibbsSampler(ChainParams(N=N, beta=100.0), np.random.default_rng(11)).sample()
    base = phi0(st, nu_k)
    for t in np.linspace(5.0, 100.0, 8):
        drift = abs(phi0(advance_harmonic(st, t), nu_k) - base)
        assert drift <= 1e-8 * max(abs(base), 1e-12)
