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

    def __reduce__(self):
        # rebuild from the time, not the message, so the error crosses a process pool
        return BlowupError, (self.time,)


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
    """Phase-space point or ensemble: momenta p and displacements q of shape
    (N,) for one state or (B, N) for B states.  An ensemble has len() and
    indexing: ens[b] is state b, ens[a:b] a smaller ensemble."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        self.q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if self.p.ndim > 2 or self.p.shape != self.q.shape:
            raise ValueError("p and q must be arrays of equal shape, (N,) or (B, N)")
        if not (np.isfinite(self.p).all() and np.isfinite(self.q).all()):
            raise ValueError("state contains non-finite entries")

    @property
    def n(self) -> int:
        return self.p.shape[-1]

    def __len__(self) -> int:
        if self.p.ndim != 2:
            raise TypeError("a single state has no len(); only a (B, N) ensemble")
        return self.p.shape[0]

    def __getitem__(self, index) -> "ChainState":
        if self.p.ndim != 2:
            raise TypeError("a single state cannot be indexed; only a (B, N) ensemble")
        return ChainState(self.p[index], self.q[index])


def potential_v(r, A):
    """Bond potential V(r) = r^2/2 + r^3/3 + A r^4/4 (vectorized)."""
    r = np.asarray(r, dtype=float)
    return r * r * (0.5 + r * (1.0 / 3.0 + 0.25 * A * r))


def bond_extensions(q: np.ndarray) -> np.ndarray:
    """All N+1 bond extensions q_{j+1} - q_j, fixed ends supplying the outer two."""
    return np.diff(q, prepend=0.0, append=0.0)


def cubic_energy(state: ChainState) -> float:
    """H1 alone; independent of A and beta."""
    r = bond_extensions(state.q)
    return float((r**3).sum()) / 3.0


def _batch_forces(q: np.ndarray, A: float, harmonic_only: bool,
                  r: np.ndarray, f: np.ndarray) -> None:
    """Forces for a (B, N) block of trajectories, written into f; r is scratch."""
    r[:, 0] = q[:, 0]
    np.subtract(q[:, 1:], q[:, :-1], out=r[:, 1:-1])
    # not np.negative(q[:, -1], out=r[:, -1]): numpy 2.4 reads that input as if
    # contiguous when its stride is 8 elements, i.e. at N = 8
    r[:, -1] = -q[:, -1]
    if not harmonic_only:
        # V'(r) = r (1 + r (1 + A r)), evaluated in place
        w = r * A
        w += 1.0
        w *= r
        w += 1.0
        r *= w
    np.subtract(r[:, 1:], r[:, :-1], out=f)


def evolve_batch(states: ChainState, params: ChainParams, dt: float,
                 step_targets, harmonic_only: bool = False) -> tuple[ChainState, ...]:
    """Leapfrog a (B, N) ensemble in lockstep; one (B, N) snapshot per target
    step index, step 0 being the start.

    All trajectories advance together as (B, N) arrays, which is what makes
    ensemble autocorrelation runs affordable.  Raises BlowupError (with the
    offending time) if the state goes non-finite, the fail-fast signal for a
    too-large dt.
    """
    targets = [int(s) for s in step_targets]
    if any(b < a for a, b in zip(targets, targets[1:])) or (targets and targets[0] < 0):
        raise ValueError("step_targets must be ascending and non-negative")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    p = states.p.copy()
    q = states.q.copy()
    r = np.empty((len(states), states.n + 1))     # a single (N,) state has no len()
    f = np.empty_like(p)
    buf = np.empty_like(p)
    out = []

    def snapshot():
        out.append(ChainState(p.copy(), q.copy()))

    it = iter(targets)
    nxt = next(it, None)
    while nxt == 0:
        snapshot()
        nxt = next(it, None)
    A = params.A
    half = 0.5 * dt
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
    return tuple(out)
