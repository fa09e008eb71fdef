"""Reference functions that several test files compare the package against.

None of them is part of the package: the package integrates only ensembles
(`chain.evolve_batch`) and never needs the inverse mode transform, the energy
of one state, Phi0's derivative along a general tangent, the corrector table
over all 8 sign patterns or the coefficient table of {Phi0, H1}.  `metropolis_round` is the sampler's pair-move round as
two index halves with boolean compressions, the layout the shipped round's
bits are pinned to.  `slab_rejection_bonds` is a Monte Carlo sampler of the
constrained bonds on a code path of its own, an independent check of
`gibbs.constrained_moments`.
"""

import numpy as np

from fpu_packets.chain import ChainState, bond_extensions, evolve_batch, potential_v
from fpu_packets.gibbs import TiltedDensity, _default_potential, _support
from fpu_packets.packet import _CUBIC_PREFACTOR, _WRAP_SIGN, build_phi1_table
from fpu_packets.spectral import sine_transform


def potential_dv(r, A):
    """V'(r) = r + r^2 + A r^3."""
    r = np.asarray(r, dtype=float)
    return r * (1.0 + r * (1.0 + A * r))


def energies(state, params) -> tuple[float, float, float]:
    """(H0, H1, H2): harmonic, cubic and quartic parts of the energy."""
    r = bond_extensions(state.q)
    h0 = 0.5 * float(state.p @ state.p) + 0.5 * float(r @ r)
    r3 = r * r * r
    h1 = float(r3.sum()) / 3.0
    h2 = 0.25 * params.A * float((r3 * r).sum())
    return h0, h1, h2


def total_energy(state, params) -> float:
    return sum(energies(state, params))


def from_modes(p_hat, q_hat) -> ChainState:
    """Inverse of spectral.to_modes; the transform is involutive."""
    return ChainState(sine_transform(p_hat), sine_transform(q_hat))


def copied(state: ChainState) -> ChainState:
    """An evolve_batch observer that keeps a copy of each state it is shown,
    so the flow returns its snapshots; the shown state is valid only during
    the call."""
    return ChainState(state.p.copy(), state.q.copy())


def integrate(state, params, dt, t_final, sample_stride=1, harmonic_only=False):
    """Leapfrog trajectory of one (N,) state as [(t, state)], snapshots every
    sample_stride steps, t = 0 included: evolve_batch on a one-state ensemble."""
    n_steps = int(np.floor(t_final / dt + 1e-9))
    steps = range(0, n_steps + 1, sample_stride)
    ens = ChainState(state.p[None, :], state.q[None, :])
    snaps = evolve_batch(ens, params, dt, steps, copied, harmonic_only)
    return [(step * dt, snap[0]) for step, snap in zip(steps, snaps)]


def phi0_slope(ms, g_k, dq_hat, dp_hat) -> float:
    """Phi0's derivative along the tangent (dq_hat, dp_hat), in closed form:
    Phi0 = sum_k g_k (p_hat_k^2 + omega_k^2 q_hat_k^2) / 2."""
    return float(g_k @ (ms.p_hat * dp_hat + ms.omega**2 * ms.q_hat * dq_hat))


def metropolis_round(r, vpot, rng, sigma, beta, A) -> int:
    """One round of disjoint pair moves (r_i += delta, r_j -= delta) on the
    bonds `r` and their cached potentials `vpot`, both updated in place; the
    number of accepted moves.  Draws a permutation, then the normal steps,
    then the uniforms, the stream order of `GibbsSampler`."""
    m = r.size
    half = m // 2
    perm = rng.permutation(m)
    i = perm[:half]
    j = perm[half:2 * half]
    delta = rng.normal(0.0, sigma, half)
    ri = r[i]
    rj = r[j]
    vi_new = potential_v(ri + delta, A)
    vj_new = potential_v(rj - delta, A)
    d_en = vi_new + vj_new - vpot[i] - vpot[j]
    acc = np.log(rng.random(half)) < -beta * d_en
    ia = i[acc]
    ja = j[acc]
    r[ia] = ri[acc] + delta[acc]
    r[ja] = rj[acc] - delta[acc]
    vpot[ia] = vi_new[acc]
    vpot[ja] = vj_new[acc]
    return int(acc.sum())


_SLAB = 1e-3                # |sum r| <= _SLAB accepts a slab_rejection_bonds draw
_SLAB_MAX_BATCHES = 10_000


class _InverseCdf:
    """Inverse-CDF sampler for the one-bond tilted density (grid interpolation)."""

    def __init__(self, beta: float, A: float, gamma: float):
        V = _default_potential(A)
        lo, hi = _support(beta, gamma, V)
        x = np.linspace(lo, hi, 200_001)
        e = -gamma * x - beta * V(x)
        pdf = np.exp(e - e.max())
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5)])
        self.x = x
        self.cdf = cdf / cdf[-1]

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return np.interp(rng.random(size), self.cdf, self.x)


def slab_rejection_bonds(rng: np.random.Generator, td: TiltedDensity, N: int,
                         n_samples: int) -> np.ndarray:
    """Independent reference sampler: iid bonds of `td` accepted on |sum r| <= slab.

    Exact up to O(slab) tilt bias, which is far below Monte Carlo resolution;
    feasible only for small N.  Returns (n_samples, N+1).
    """
    inv = _InverseCdf(td.beta, td.A, td.theta)
    out = []
    got = 0
    batch = max(10_000, 4 * n_samples)
    for _ in range(_SLAB_MAX_BATCHES):
        r = inv.draw(rng, (batch, N + 1))
        keep = np.abs(r.sum(axis=1)) <= _SLAB
        if keep.any():
            out.append(r[keep])
            got += int(keep.sum())
        if got >= n_samples:
            break
    else:
        raise RuntimeError(f"slab sampler got only {got}/{n_samples} accepts")
    return np.concatenate(out)[:n_samples]


# all 8 sign patterns, fixed order: row 7-m is -(row m), rows 0..3 have tau1 = +1
TAU8 = np.array([[t1, t2, t3] for t1 in (1, -1) for t2 in (1, -1) for t3 in (1, -1)])
_TAU8_PROD = TAU8.prod(axis=1).astype(float)


def _signed_weights(packet):
    """(T, 1): the H1 weight of each triple, +3 (sum) or -1 (wrap, k1 + k2 > N)."""
    return np.where(packet.k1 + packet.k2 > packet.N, _WRAP_SIGN, 3.0)[:, None]


def _tau_dot(packet, weights):
    """tau.w over the legs of each triple, for all 8 sign patterns."""
    w3 = np.stack([weights[packet.k1 - 1], weights[packet.k2 - 1],
                   weights[packet.k3 - 1]], axis=1)
    return w3 @ TAU8.T


def full_corrector_table(packet) -> tuple[np.ndarray, np.ndarray]:
    """(coeffs8, den8): the corrector coefficients and the denominators
    tau.omega on the packet's triples for all 8 sign patterns, from their
    definition coeffs = H1 coefficient * (tau.nu)/(tau.omega)."""
    den = _tau_dot(packet, packet.omega)
    num = _tau_dot(packet, packet.nu_k)
    coeffs = _CUBIC_PREFACTOR * (num / den) * _signed_weights(packet) * _TAU8_PROD[None, :]
    return coeffs, den


def bracket_norm_check(profile, N: int) -> tuple[float, float]:
    """Plus-norm of the {Phi0, H1} coefficient table against the product bound.

    {Phi0, .} multiplies each cubic monomial coefficient by -i (tau.nu), so
    the bracket's table is explicit.  Returns (norm, 2^4 max(s,r) |f|+ |g|+).
    """
    packet = build_phi1_table(profile, N)
    tau_nu = _tau_dot(packet, packet.nu_k)
    h1_coeffs = _CUBIC_PREFACTOR * _signed_weights(packet) * _TAU8_PROD[None, :]
    bracket_norm = float(np.abs(h1_coeffs * tau_nu).max())
    f_norm = float(np.abs(packet.g_k).max())      # Phi0 in P_2
    g_norm = float(np.abs(h1_coeffs).max())       # H1 in P_3
    bound = 2.0**4 * max(2, 3) * f_norm * g_norm
    return bracket_norm, bound
