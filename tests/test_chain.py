import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import copied, energies, from_modes, integrate, potential_dv, total_energy

from fpu_packets import chain
from fpu_packets.chain import (BlowupError, ChainParams, ChainState, bond_extensions,
                               potential_v)
from fpu_packets.gibbs import GibbsSampler
from fpu_packets.packet import mode_weights, phi0
from fpu_packets.profiles import DEFAULT_PROFILE_SPEC, make_profile
from fpu_packets.spectral import frequencies, sine_transform


def forces(q, A, harmonic_only=False):
    """-dH/dq from the shipped leapfrog's force kernel at c = 1, on a one-state
    site-major buffer: the fixed ends are the zero rows around q."""
    q = np.asarray(q, dtype=float)
    n = q.size
    z = np.zeros((n + 2, 1))
    z[1:-1, 0] = q
    r, w = np.empty((2, n + 1, 1))
    chain._batch_forces(z[1:], z[:-1], r, r[1:], r[:-1], w, w[:-1], A, 1.0, harmonic_only)
    return w[:-1, 0]


def plain_force(q, A, harmonic_only=False):
    """F_j = V'(r_j) - V'(r_{j-1}), with V'(r) = r on the harmonic chain."""
    r = bond_extensions(q)
    return np.diff(r if harmonic_only else potential_dv(r, A))


def leapfrog_step(p, q, A, dt, harmonic_only=False):
    """One leapfrog step (half kick, drift, half kick) on plain arrays, in the
    classic form: an oracle independent of the shipped kick-drift order."""
    half = 0.5 * dt
    p_half = p + half * plain_force(q, A, harmonic_only)
    q_new = q + dt * p_half
    return p_half + half * plain_force(q_new, A, harmonic_only), q_new


def scaled_force(q, A, c, harmonic_only=False):
    """c F(q) on plain arrays, as the shipped kernel evaluates it:
    c V'(r) = r (c + r (c + c A r)), or c r on the harmonic chain."""
    r = bond_extensions(q)
    return np.diff(r * c if harmonic_only else r * (c + r * (c + (c * A) * r)))


def kick_drift_start(p, q, A, dt, harmonic_only=False):
    """P = dt p at the first half step: dt p + (dt^2 / 2) F(q)."""
    return dt * p + scaled_force(q, A, 0.5 * (dt * dt), harmonic_only)


def kick_drift_step(P, q, A, dt, harmonic_only=False):
    """One leapfrog step in kick-drift form on plain arrays, in the operation
    order of chain.evolve_batch: drift q += P, f = dt^2 F(q), kick P += f.
    Returns (P, q, f); the full-step momentum is (P - f/2) / dt."""
    q = q + P
    f = scaled_force(q, A, dt * dt, harmonic_only)
    return P + f, q, f


def test_potential_values():
    assert potential_v(0.0, 1.0) == 0.0
    assert potential_v(1.0, 1.0) == pytest.approx(13.0 / 12.0, rel=1e-15)
    assert potential_v(-1.0, 1.0) == pytest.approx(5.0 / 12.0, rel=1e-15)


def test_potential_derivative_matches_fd():
    r = np.linspace(-1.2, 1.2, 41)
    h = 1e-6
    fd = (potential_v(r + h, 0.7) - potential_v(r - h, 0.7)) / (2 * h)
    assert np.abs(potential_dv(r, 0.7) - fd).max() < 1e-8


def test_params_validation():
    with pytest.raises(ValueError):
        ChainParams(N=2)
    with pytest.raises(ValueError):
        ChainParams(N=8, A=0.0)
    with pytest.raises(ValueError):
        ChainParams(N=8, beta=-1.0)


def test_state_validation():
    with pytest.raises(ValueError):
        ChainState(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        ChainState(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        ChainState(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))
    with pytest.raises(ValueError):
        ChainState(np.array([np.inf, 0.0]), np.zeros(2))
    with pytest.raises(TypeError):
        len(ChainState(np.zeros(3), np.zeros(3)))
    with pytest.raises(TypeError):
        ChainState(np.zeros(3), np.zeros(3))[0]
    with pytest.raises(TypeError):
        chain.evolve_batch(ChainState(np.zeros(3), np.zeros(3)), ChainParams(N=3), 0.1, [0],
                           copied)


def test_ensemble_len_and_indexing():
    ens = ChainState(np.arange(6.0).reshape(2, 3), -np.arange(6.0).reshape(2, 3))
    assert len(ens) == 2 and ens.n == 3
    assert np.array_equal(ens[1].p, [3.0, 4.0, 5.0]) and ens[1].n == 3
    assert len(ens[1:]) == 1
    assert [s.q[0] for s in ens] == [0.0, -3.0]


def test_energies_examples():
    params = ChainParams(N=3, A=1.0)
    e1 = np.array([1.0, 0.0, 0.0])
    zero = np.zeros(3)
    assert energies(ChainState(e1, zero), params) == (0.5, 0.0, 0.0)
    h0, h1, h2 = energies(ChainState(zero, e1), params)
    assert (h0, h2) == (1.0, 0.5)
    assert h1 == pytest.approx(0.0, abs=1e-15)
    assert energies(ChainState(zero, zero), params) == (0.0, 0.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(3, 64), B=st.integers(1, 6), A=st.floats(0.1, 2.0),
       scale=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
def test_energy_matches_the_oracle_state_by_state(N, B, A, scale, seed):
    rng = np.random.default_rng(seed)
    ens = ChainState(rng.normal(scale=scale, size=(B, N)), rng.normal(scale=scale, size=(B, N)))
    params = ChainParams(N=N, A=A)
    h = chain.energy(ens, A)
    assert h.shape == (B,) and h.dtype == np.float64
    for b in range(B):
        h0, h1, h2 = energies(ens[b], params)
        assert h[b] == pytest.approx(total_energy(ens[b], params),
                                     rel=1e-12, abs=1e-14 * (abs(h0) + abs(h1) + abs(h2)))


def test_forces_unit_displacement_example():
    assert forces([1.0, 0.0, 0.0], 1.0) == pytest.approx([-4.0, 1.0, 0.0])
    assert forces(np.zeros(3), 1.0) == pytest.approx([0, 0, 0])


@settings(max_examples=40, deadline=None)
@given(N=st.integers(3, 64), A=st.floats(0.1, 2.0), harmonic_only=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_forces_at_unit_scale_have_the_plain_force_s_bits(N, A, harmonic_only, seed):
    # at c = 1 the scaled kernel evaluates r (1 + r (1 + A r)) as before it
    # took a scale
    q = np.random.default_rng(seed).normal(scale=0.3, size=N)
    assert np.array_equal(forces(q, A, harmonic_only), plain_force(q, A, harmonic_only))


def test_forces_match_finite_differences():
    rng = np.random.default_rng(0)
    params = ChainParams(N=17, A=1.3)
    h = 1e-5
    for _ in range(200):
        q = rng.normal(scale=0.3, size=17)
        f = forces(q, params.A)
        fd = np.empty(17)
        for j in range(17):
            qp, qm = q.copy(), q.copy()
            qp[j] += h
            qm[j] -= h
            vp = potential_v(bond_extensions(qp), params.A).sum()
            vm = potential_v(bond_extensions(qm), params.A).sum()
            fd[j] = -(vp - vm) / (2 * h)
        scale = np.abs(f).max()
        assert np.abs(f - fd).max() <= 1e-6 * max(scale, 1.0)


def test_verlet_zero_state_fixed_point():
    zero = ChainState(np.zeros((1, 5)), np.zeros((1, 5)))
    for out in chain.evolve_batch(zero, ChainParams(N=5), 0.02, [1, 50], copied):
        assert np.all(out.p == 0.0) and np.all(out.q == 0.0)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(3, 64), B=st.integers(1, 4), dt=st.floats(1e-3, 0.1),
       n_steps=st.integers(1, 50), A=st.floats(0.1, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_evolve_batch_reversibility_property(N, B, dt, n_steps, A, seed):
    # forward, flip the momenta, forward again: leapfrog returns to the start
    rng = np.random.default_rng(seed)
    params = ChainParams(N=N, A=A)
    start = ChainState(rng.uniform(-0.1, 0.1, (B, N)), rng.uniform(-0.1, 0.1, (B, N)))
    (fwd,) = chain.evolve_batch(start, params, dt, [n_steps], copied)
    (back,) = chain.evolve_batch(ChainState(-fwd.p, fwd.q), params, dt, [n_steps], copied)
    assert np.abs(-back.p - start.p).max() <= 1e-12
    assert np.abs(back.q - start.q).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(N=st.integers(3, 64), B=st.integers(1, 8), n_steps=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
@example(N=8, B=2, n_steps=1, seed=0)   # a strided np.negative misread rows b >= 1
def test_ensemble_row_has_the_bits_of_the_single_state(N, B, n_steps, seed):
    # an ensemble is evaluated row by row in the arithmetic of one state
    rng = np.random.default_rng(seed)
    ens = ChainState(rng.normal(scale=0.3, size=(B, N)), rng.normal(scale=0.3, size=(B, N)))
    nu_k = mode_weights(make_profile(DEFAULT_PROFILE_SPEC), N)[1]
    params = ChainParams(N=N)
    targets = [0, n_steps // 2, n_steps]
    snaps = chain.evolve_batch(ens, params, 0.02, targets, copied)
    values = phi0(ens, nu_k)
    transformed = sine_transform(ens.p)
    for b in range(B):
        assert np.array_equal(transformed[b], sine_transform(ens.p[b]))
        assert values[b] == phi0(ens[b], nu_k)
        for snap, alone in zip(snaps, chain.evolve_batch(ens[b:b + 1], params, 0.02, targets,
                                                            copied)):
            assert np.array_equal(snap[b].p, alone[0].p)
            assert np.array_equal(snap[b].q, alone[0].q)


def test_verlet_harmonic_mode_second_order():
    # exact harmonic solution oracle: error over one period scales like dt^2
    N, k = 15, 4
    params = ChainParams(N=N)
    om = frequencies(N)[k - 1]
    q_hat = np.zeros(N)
    q_hat[k - 1] = 1.0
    st = from_modes(np.zeros(N), q_hat)
    period = 2 * np.pi / om
    errs = []
    for n_steps in (200, 400):
        dt = period / n_steps
        snaps = integrate(st, params, dt, period, sample_stride=n_steps,
                          harmonic_only=True)
        errs.append(np.abs(snaps[-1][1].q - st.q).max())
    assert errs[0] < (om * period / 200) ** 2
    assert errs[1] < errs[0] / 3.0  # second-order convergence


def test_integrate_snapshot_counts():
    params = ChainParams(N=5)
    st = ChainState(np.zeros(5), np.zeros(5))
    assert len(integrate(st, params, 0.02, 0.0)) == 1
    snaps = integrate(st, params, 0.1, 1.0, sample_stride=3)
    assert len(snaps) == int(np.floor(1.0 / (0.1 * 3))) + 1
    snaps = integrate(st, params, 0.1, 1.0, sample_stride=1)
    assert len(snaps) == 11
    assert snaps[-1][0] == pytest.approx(1.0)


def test_energy_conservation_along_trajectory():
    params = ChainParams(N=63, beta=100.0)
    st = GibbsSampler(params, np.random.default_rng(3)).sample()
    snaps = integrate(st, params, 0.02, 200.0, sample_stride=10)
    h = np.array([total_energy(s, params) for _, s in snaps])
    assert np.abs(h - h[0]).max() / max(abs(h[0]), 1.0) <= 1e-4


def test_trajectory_reversibility():
    params = ChainParams(N=31, beta=100.0)
    st = GibbsSampler(params, np.random.default_rng(4)).sample()
    fwd = integrate(st, params, 0.02, 10.0)[-1][1]
    back = integrate(ChainState(-fwd.p, fwd.q), params, 0.02, 10.0)[-1][1]
    assert np.abs(-back.p - st.p).max() < 1e-10
    assert np.abs(back.q - st.q).max() < 1e-10


def test_blowup_detection():
    params = ChainParams(N=15, beta=1.0)
    st = ChainState(np.zeros(15), np.full(15, 30.0))
    with pytest.raises(BlowupError) as exc:
        integrate(st, params, 2.0, 50.0)
    assert exc.value.time > 0


@settings(max_examples=40, deadline=None)
@given(N=st.integers(3, 64), B=st.integers(1, 8), harmonic_only=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
# around N = 7 a stride of N + 1 elements is 8, the stride at which numpy 2.4
# misread a strided np.negative input
@example(N=7, B=4, harmonic_only=False, seed=5)
@example(N=8, B=4, harmonic_only=False, seed=5)
@example(N=9, B=4, harmonic_only=True, seed=5)
@example(N=11, B=4, harmonic_only=False, seed=5)
def test_evolve_batch_matches_stepper(N, B, harmonic_only, seed):
    rng = np.random.default_rng(seed)
    params = ChainParams(N=N)
    dt = 0.02
    states = ChainState(0.1 * rng.normal(size=(B, N)), 0.1 * rng.normal(size=(B, N)))
    targets = (0, 37, 100)
    batch = chain.evolve_batch(states, params, dt, targets, copied, harmonic_only)
    for i, state in enumerate(states):
        P, q = kick_drift_start(state.p, state.q, params.A, dt, harmonic_only), state.q
        reached = [(state.p, q)]
        for _ in range(targets[-1]):
            P, q, f = kick_drift_step(P, q, params.A, dt, harmonic_only)
            reached.append(((P - 0.5 * f) / dt, q))
        for m, target in enumerate(targets):
            assert np.array_equal(batch[m][i].p, reached[target][0])
            assert np.array_equal(batch[m][i].q, reached[target][1])


# Kick-drift and the classic half-kick/drift/half-kick form are one scheme;
# they differ only in rounding.  One step rounds about 20 times in either
# form (bonds, the force polynomial, its difference, the kicks, the drift and
# the dt and 1/dt scalings), each time by at most eps = 2.2e-16 relative to
# the entries, which are at most a few times the largest |p| or |q|.  Over
# 100 steps that is 100 * 20 * eps = 4.4e-13 of that scale if every rounding
# error added up in one direction and nothing amplified them; at amplitude
# 0.1 and t = 2 the flow does not amplify them.  ROUNDING allows 2.3x that;
# the largest difference seen over 300 random cases was 3e-15.
ROUNDING = 1e-12


@settings(max_examples=40, deadline=None)
@given(N=st.integers(3, 64), B=st.integers(1, 6), harmonic_only=st.booleans(),
       A=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
def test_evolve_batch_agrees_with_the_classic_leapfrog(N, B, harmonic_only, A, seed):
    rng = np.random.default_rng(seed)
    params = ChainParams(N=N, A=A)
    states = ChainState(0.1 * rng.normal(size=(B, N)), 0.1 * rng.normal(size=(B, N)))
    (end,) = chain.evolve_batch(states, params, 0.02, [100], copied, harmonic_only)
    for i, state in enumerate(states):
        p, q = state.p, state.q
        for _ in range(100):
            p, q = leapfrog_step(p, q, A, 0.02, harmonic_only)
        scale = max(np.abs(p).max(), np.abs(q).max())
        assert np.abs(end[i].p - p).max() <= ROUNDING * scale
        assert np.abs(end[i].q - q).max() <= ROUNDING * scale


def test_evolve_batch_allocates_no_array_per_step():
    # the traced peak of a 2000-step run is its four work buffers, (4N + 4) B
    # doubles with at most one cache line of alignment slack each, the
    # snapshot it returns and at most 4 KiB of Python objects and small
    # temporaries (3.5 KiB with numpy 2.4).  A kick written as P = P + f holds
    # two more 2 KiB buffers and fails
    B, N = 8, 31
    rng = np.random.default_rng(0)
    states = ChainState(0.1 * rng.normal(size=(B, N)), 0.1 * rng.normal(size=(B, N)))
    params = ChainParams(N=N)
    chain.evolve_batch(states, params, 0.02, [1], copied)     # numpy's one-time setup
    tracemalloc.start()
    try:
        (end,) = chain.evolve_batch(states, params, 0.02, [2000], copied)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffers = (4 * N + 4) * B * np.dtype(float).itemsize + 4 * 64
    assert end.p.nbytes + end.q.nbytes <= held
    assert peak <= buffers + held + 4096, (peak, buffers, held)


BLOWUPS = [(15, (30.0, 3.0), 2.0), (15, (3.0, 2.0), 0.5), (8, (1.0, 0.5), 1.5),
           (9, (2.0, 0.1), 1.2), (7, (0.5, 0.4), 0.9)]


def alternating(N, amplitudes) -> ChainState:
    """One state per amplitude at rest, q_j = +-amplitude in alternation."""
    signs = np.where(np.arange(N) % 2, 1.0, -1.0)
    q = np.array([a * signs for a in amplitudes])
    return ChainState(np.zeros_like(q), q)


@pytest.mark.parametrize("N, amplitudes, dt", BLOWUPS)
def test_blowup_time_is_the_stepper_s_first_non_finite_step(N, amplitudes, dt):
    # evolve_batch tests finiteness on P.P, P = dt p at the half step after
    # it, and stops at the first step at which p.p + q.q is non-finite for
    # some row of the classic stepper: once the state runs away, both sums
    # overflow in the same step.  The stepper's state itself is non-finite
    # there or one step later (its squares overflow before its entries do)
    params = ChainParams(N=N, beta=1.0)
    start = alternating(N, amplitudes)
    first_norm, first_entry = [], []     # per row: first step with p.p + q.q, p or q non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for row in start.q:
            p, x, norm_seen = np.zeros(N), row, False
            for step in range(1, 1000):
                p, x = leapfrog_step(p, x, params.A, dt)
                if not (norm_seen or np.isfinite(p @ p + x @ x)):
                    first_norm.append(step)
                    norm_seen = True
                if not (np.isfinite(p).all() and np.isfinite(x).all()):
                    first_entry.append(step)
                    break
    with pytest.raises(BlowupError) as exc:
        chain.evolve_batch(start, params, dt, [10_000], copied)
    assert exc.value.time == min(first_norm) * dt
    assert min(first_entry) - min(first_norm) in (0, 1)


@pytest.mark.parametrize("N, amplitudes, dt", BLOWUPS)
def test_observed_flow_blows_up_at_the_same_step_and_shows_only_finite_states(N, amplitudes,
                                                                              dt):
    params = ChainParams(N=N, beta=1.0)
    start = alternating(N, amplitudes)
    with pytest.raises(BlowupError) as unobserved:
        chain.evolve_batch(start, params, dt, [10_000], copied)
    finite = []
    with pytest.raises(BlowupError) as observed:
        chain.evolve_batch(start, params, dt, range(10_000),
                           lambda s: finite.append(np.isfinite(s.p).all() and
                                                   np.isfinite(s.q).all()))
    assert observed.value.time == unobserved.value.time
    # steps 0 .. k-1 were observed, k being the step that went non-finite
    assert len(finite) == round(observed.value.time / dt) and all(finite)


def test_observe_is_called_once_per_target_in_order():
    rng = np.random.default_rng(1)
    B, N, dt = 3, 9, 0.02
    params = ChainParams(N=N)
    ens = ChainState(0.1 * rng.normal(size=(B, N)), 0.1 * rng.normal(size=(B, N)))
    targets = [0, 0, 4, 4, 4, 9, 30]
    seen = []

    def observe(state):
        seen.append(copied(state))
        return len(seen)

    assert chain.evolve_batch(ens, params, dt, targets, observe) == [1, 2, 3, 4, 5, 6, 7]
    for target, snap in zip(targets, seen):
        (alone,) = chain.evolve_batch(ens, params, dt, [target], copied)
        assert np.array_equal(snap.p, alone.p) and np.array_equal(snap.q, alone.q)


@pytest.mark.parametrize("B", [1, 3, 8, 64])
def test_observed_states_are_contiguous_rows(B):
    # sine_transform may round a strided row differently from a contiguous
    # one, so the observables' bits rely on every observed state being
    # C-contiguous (B, N) rows
    N = 11
    rng = np.random.default_rng(B)
    ens = ChainState(0.1 * rng.normal(size=(B, N)), 0.1 * rng.normal(size=(B, N)))
    owned = []

    def observe(state):
        for a in (state.p, state.q):
            assert a.shape == (B, N) and a.dtype == np.float64 and a.flags.c_contiguous
        owned.append(state.p.flags.owndata or state.q.flags.owndata)

    chain.evolve_batch(ens, ChainParams(N=N), 0.02, [0, 1, 5], observe)
    assert len(owned) == 3 and not any(owned[1:])


def test_step_zero_shows_the_input_ensemble_itself():
    rng = np.random.default_rng(2)
    ens = ChainState(0.1 * rng.normal(size=(2, 5)), 0.1 * rng.normal(size=(2, 5)))
    p, q = ens.p.copy(), ens.q.copy()
    shown = chain.evolve_batch(ens, ChainParams(N=5), 0.02, [0, 0, 3], lambda s: s)
    assert shown[0] is ens and shown[1] is ens
    assert np.array_equal(ens.p, p) and np.array_equal(ens.q, q)
    # a later step's state is views into the integrator's buffers, not copies
    assert not shown[2].p.flags.owndata and not shown[2].q.flags.owndata
