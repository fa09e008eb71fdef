"""Reference functions that several test files compare the package against.

None of them is part of the package: the package integrates only ensembles
(`chain.evolve_batch`) and never needs the inverse mode transform or the
total energy of one state.
"""

import numpy as np

from fpu_packets.chain import ChainState, energies, evolve_batch
from fpu_packets.spectral import sine_transform


def potential_dv(r, A):
    """V'(r) = r + r^2 + A r^3."""
    r = np.asarray(r, dtype=float)
    return r * (1.0 + r * (1.0 + A * r))


def total_energy(state, params) -> float:
    return sum(energies(state, params))


def from_modes(p_hat, q_hat) -> ChainState:
    """Inverse of spectral.to_modes; the transform is involutive."""
    return ChainState(sine_transform(p_hat), sine_transform(q_hat))


def integrate(state, params, dt, t_final, sample_stride=1, harmonic_only=False):
    """Leapfrog trajectory of one (N,) state as [(t, state)], snapshots every
    sample_stride steps, t = 0 included: evolve_batch on a one-state ensemble."""
    n_steps = int(np.floor(t_final / dt + 1e-9))
    steps = range(0, n_steps + 1, sample_stride)
    ens = ChainState(state.p[None, :], state.q[None, :])
    snaps = evolve_batch(ens, params, dt, steps, harmonic_only)
    return [(step * dt, snap[0]) for step, snap in zip(steps, snaps)]
