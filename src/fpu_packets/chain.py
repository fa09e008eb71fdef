"""FPU alpha-beta chain with fixed ends.

The Hamiltonian splits as H = H0 + H1 + H2 with quadratic, cubic and quartic
bond terms.  Sites are numbered 1..N; the boundary values p0 = p_{N+1} =
q0 = q_{N+1} = 0 are implicit and never stored, so there are N + 1 bonds
r_j = q_{j+1} - q_j, j = 0..N.  The flow is realized by a Stoermer-Verlet
(leapfrog) integrator: symplectic and time reversible, which is what makes
statements over times of order beta meaningful at dt = 0.02.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_DT = 0.02


class BlowupError(RuntimeError):
    """Integrator produced a non-finite state (dt too large, typically)."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t = {time:g}; reduce dt")
        self.time = time


@dataclass(frozen=True)
class ChainParams:
    """Chain size N, quartic coefficient A > 0, inverse temperature beta > 0."""

    N: int
    A: float = 1.0
    beta: float = 100.0

    def __post_init__(self):
        if self.N < 3:
            raise ValueError(f"N must be >= 3, got {self.N}")
        if not self.A > 0:
            raise ValueError(f"A must be > 0, got {self.A}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


@dataclass
class ChainState:
    """Phase-space point: momenta p and displacements q, both length N."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        self.q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if self.p.ndim != 1 or self.p.shape != self.q.shape:
            raise ValueError("p and q must be 1-d arrays of equal length")
        if not (np.isfinite(self.p).all() and np.isfinite(self.q).all()):
            raise ValueError("state contains non-finite entries")

    @property
    def n(self) -> int:
        return self.p.size

    def copy(self) -> "ChainState":
        return ChainState(self.p.copy(), self.q.copy())


def potential_v(r, A):
    """Bond potential V(r) = r^2/2 + r^3/3 + A r^4/4 (vectorized)."""
    r = np.asarray(r, dtype=float)
    return r * r * (0.5 + r * (1.0 / 3.0 + 0.25 * A * r))


def potential_dv(r, A):
    """V'(r) = r + r^2 + A r^3."""
    r = np.asarray(r, dtype=float)
    return r * (1.0 + r * (1.0 + A * r))


def bond_extensions(q: np.ndarray) -> np.ndarray:
    """All N+1 bond extensions q_{j+1} - q_j, fixed ends supplying the outer two."""
    return np.diff(q, prepend=0.0, append=0.0)


def energies(state: ChainState, params: ChainParams) -> tuple[float, float, float]:
    """(H0, H1, H2): harmonic, cubic and quartic parts of the energy."""
    r = bond_extensions(state.q)
    h0 = 0.5 * float(state.p @ state.p) + 0.5 * float(r @ r)
    r3 = r * r * r
    h1 = float(r3.sum()) / 3.0
    h2 = 0.25 * params.A * float((r3 * r).sum())
    return h0, h1, h2


def total_energy(state: ChainState, params: ChainParams) -> float:
    return sum(energies(state, params))


def cubic_energy(state: ChainState) -> float:
    """H1 alone; independent of A and beta."""
    r = bond_extensions(state.q)
    return float((r**3).sum()) / 3.0


def integrate(state: ChainState, params: ChainParams, dt: float, t_final: float,
              sample_stride: int = 1, harmonic_only: bool = False
              ) -> list[tuple[float, ChainState]]:
    """Leapfrog trajectory; snapshots every sample_stride steps, t = 0 included.

    Raises BlowupError (with the offending time) if the state goes non-finite,
    which is the fail-fast signal for a too-large dt.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if t_final < 0:
        raise ValueError("t_final must be >= 0")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    n_steps = int(np.floor(t_final / dt + 1e-9))
    steps = range(0, n_steps + 1, sample_stride)
    snaps = evolve_batch([state], params, dt, steps, harmonic_only)
    return [(step * dt, snap[0]) for step, snap in zip(steps, snaps)]


def _batch_forces(q: np.ndarray, A: float, harmonic_only: bool,
                  r: np.ndarray, f: np.ndarray) -> None:
    """Forces for a (B, N) block of trajectories, written into f; r is scratch."""
    r[:, 0] = q[:, 0]
    np.subtract(q[:, 1:], q[:, :-1], out=r[:, 1:-1])
    np.negative(q[:, -1], out=r[:, -1])
    if not harmonic_only:
        # V'(r) = r (1 + r (1 + A r)), evaluated in place
        w = r * A
        w += 1.0
        w *= r
        w += 1.0
        r *= w
    np.subtract(r[:, 1:], r[:, :-1], out=f)


def evolve_batch(states: list[ChainState], params: ChainParams, dt: float,
                 step_targets, harmonic_only: bool = False) -> list[list[ChainState]]:
    """Leapfrog an ensemble in lockstep; one entry per target step index.

    All trajectories advance together as (B, N) arrays, which is what makes
    ensemble autocorrelation runs affordable.  Returns snapshots[target][traj].
    """
    targets = [int(s) for s in step_targets]
    if any(b < a for a, b in zip(targets, targets[1:])) or (targets and targets[0] < 0):
        raise ValueError("step_targets must be ascending and non-negative")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    n = states[0].n
    p = np.stack([s.p for s in states])
    q = np.stack([s.q for s in states])
    out: list[list[ChainState]] = []

    def snapshot():
        out.append([ChainState(p[b].copy(), q[b].copy()) for b in range(len(states))])

    it = iter(targets)
    nxt = next(it, None)
    while nxt == 0:
        snapshot()
        nxt = next(it, None)
    if nxt is None:
        return out
    A = params.A
    half = 0.5 * dt
    r = np.empty((len(states), n + 1))
    f = np.empty_like(p)
    buf = np.empty_like(p)
    with np.errstate(over="ignore", invalid="ignore"):
        _batch_forces(q, A, harmonic_only, r, f)
        step = 0
        while nxt is not None:
            step += 1
            np.multiply(f, half, out=buf)
            p += buf
            np.multiply(p, dt, out=buf)
            q += buf
            _batch_forces(q, A, harmonic_only, r, f)
            np.multiply(f, half, out=buf)
            p += buf
            if not np.isfinite(np.dot(p.ravel(), p.ravel()) + np.dot(q.ravel(), q.ravel())):
                raise BlowupError(step * dt)
            while nxt == step:
                snapshot()
                nxt = next(it, None)
    return out
