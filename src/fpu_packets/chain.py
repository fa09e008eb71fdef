"""FPU alpha-beta chain with fixed ends.

The Hamiltonian splits as H = H0 + H1 + H2 with quadratic, cubic and quartic
bond terms.  Sites are numbered 1..N; the boundary values p0 = p_{N+1} =
q0 = q_{N+1} = 0 are not part of a ChainState, so there are N + 1 bonds
r_j = q_{j+1} - q_j, j = 0..N.  The flow is realized by a Stoermer-Verlet
(leapfrog) integrator: symplectic and time reversible, which is what makes
statements over times of order beta meaningful at dt = 0.02.

The integrator keeps a (B, N) ensemble in flat padded buffers: the rows of q
one after another, with one zero between two rows that is q_{N+1} of the row
before it and q_0 of the row after it, and a zero pad slot after each row of
p.  Bonds and forces of the whole ensemble are then one subtraction each over
contiguous memory, and the forces are set to 0 in the pad slots, so the pads
stay exactly 0.
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


def energy(states: ChainState, A: float) -> np.ndarray:
    """Total energy H = sum_j p_j^2/2 + sum_j V(r_j) of each state of a (B, N)
    ensemble, shape (B,)."""
    r = bond_extensions(states.q)
    return 0.5 * (states.p * states.p).sum(axis=-1) + potential_v(r, A).sum(axis=-1)


def _batch_forces(z: np.ndarray, n: int, A: float, harmonic_only: bool,
                  r: np.ndarray, w: np.ndarray, f: np.ndarray) -> None:
    """Forces on the padded flat displacements z of an ensemble of chains of
    n sites (see evolve_batch), written into f with 0 in every pad slot; r and
    w are scratch of f's length."""
    np.subtract(z[1:], z[:-1], out=r)      # every bond of every row
    if not harmonic_only:
        # V'(r) = r (1 + r (1 + A r)), evaluated in place
        np.multiply(r, A, out=w)
        w += 1.0
        w *= r
        w += 1.0
        r *= w
    np.subtract(r[1:], r[:-1], out=f[:-1])
    # the pad slots' differences straddle two rows; a fill, not a strided
    # ufunc: numpy 2.4 misread a strided np.negative input at a stride of 8
    f[n::n + 1] = 0.0


def evolve_batch(states: ChainState, params: ChainParams, dt: float,
                 step_targets, harmonic_only: bool = False) -> tuple[ChainState, ...]:
    """Leapfrog a (B, N) ensemble in lockstep; one (B, N) snapshot per target
    step index, step 0 being the start.

    The whole ensemble lives in two flat buffers, so every operation of a
    step is one pass over contiguous memory.  The displacements z have
    1 + B(N+1) entries: state b's q_1..q_N sit at z[1 + b(N+1):], and the
    zero between two rows is both q_{N+1} of row b and q_0 of row b+1, so
    r = z[1:] - z[:-1] holds every bond of every row.  The momenta have
    B(N+1) entries, with a pad slot after each row.  The forces are 0 in the
    pad slots, which keeps the pads of both buffers at exactly 0.  The
    closing half-kick f dt/2 of a step is also the opening half-kick of the
    next: the same product, computed once.  Snapshots are copies of the
    (B, N) views.

    Raises BlowupError (with the offending time) if the state goes
    non-finite, the fail-fast signal for a too-large dt.
    """
    targets = [int(s) for s in step_targets]
    if any(b < a for a, b in zip(targets, targets[1:])) or (targets and targets[0] < 0):
        raise ValueError("step_targets must be ascending and non-negative")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    B, N = len(states), states.n          # a single (N,) state has no len()
    z = np.zeros(1 + B * (N + 1))
    pf = np.zeros(B * (N + 1))
    zq = z[1:]
    q = zq.reshape(B, N + 1)[:, :N]
    p = pf.reshape(B, N + 1)[:, :N]
    q[...] = states.q
    p[...] = states.p
    r = np.empty_like(pf)
    w = np.empty_like(pf)
    f = np.empty_like(pf)
    kick = np.empty_like(pf)
    buf = np.empty_like(pf)
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
        _batch_forces(z, N, A, harmonic_only, r, w, f)
        np.multiply(f, half, out=kick)
        step = 0
        while nxt is not None:
            step += 1
            pf += kick
            np.multiply(pf, dt, out=buf)
            zq += buf
            _batch_forces(z, N, A, harmonic_only, r, w, f)
            np.multiply(f, half, out=kick)
            pf += kick
            if not np.isfinite(np.dot(pf, pf) + np.dot(z, z)):
                raise BlowupError(step * dt)
            while nxt == step:
                snapshot()
                nxt = next(it, None)
    return tuple(out)
