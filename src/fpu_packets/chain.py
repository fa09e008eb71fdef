"""FPU alpha-beta chain with fixed ends.

The Hamiltonian splits as H = H0 + H1 + H2 with quadratic, cubic and quartic
bond terms.  Sites are numbered 1..N; the boundary values p0 = p_{N+1} =
q0 = q_{N+1} = 0 are not part of a ChainState, so there are N + 1 bonds
r_j = q_{j+1} - q_j, j = 0..N.  The flow is realized by a Stoermer-Verlet
(leapfrog) integrator: symplectic and time reversible, which is what makes
statements over times of order beta meaningful at dt = 0.02.  It runs in
kick-drift form on the scaled momenta dt p at half steps, which is the same
scheme with fewer operations per step.

The integrator keeps a (B, N) ensemble site-major: row j of each buffer
holds site j of all B states, and the displacements carry the fixed ends as
rows 0 and N+1, which stay 0.  Bonds and forces of the whole ensemble are
then one subtraction each of two row-shifted views over contiguous memory,
and each buffer starts on a cache line.  The integrator keeps no
trajectory: it hands the ensemble's state at each requested step to an
observer, valid only during that call, so a flow holds O(B N) memory
however many steps are observed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

DEFAULT_DT = 0.02
_LINE = 64     # bytes in a cache line, where each buffer of evolve_batch starts


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


def _aligned(shape: tuple[int, int]) -> np.ndarray:
    """A zeroed C-contiguous float64 array whose first entry starts a 64-byte
    cache line: one over-allocation, sliced to the aligned start."""
    size = shape[0] * shape[1]
    buf = np.zeros(size + _LINE // 8)
    start = (-buf.ctypes.data % _LINE) // buf.itemsize
    return buf[start:start + size].reshape(shape)


def _batch_forces(z_hi: np.ndarray, z_lo: np.ndarray, r: np.ndarray, r_hi: np.ndarray,
                  r_lo: np.ndarray, w: np.ndarray, f: np.ndarray, A: float, c: float,
                  harmonic_only: bool) -> None:
    """c times the forces on the sites of a site-major ensemble (see
    evolve_batch), written into f.  z_hi and z_lo are the displacements
    without their first and without their last row, r_hi and r_lo the same
    views of the bond buffer r; w is scratch of r's shape, and f may be
    w[:-1], which the polynomial no longer needs when f is written.  c = 1
    gives the forces."""
    np.subtract(z_hi, z_lo, out=r)         # every bond of every state
    if harmonic_only:
        r *= c
    else:
        # c V'(r) = r (c + r (c + c A r)), evaluated in place
        np.multiply(r, c * A, out=w)
        w += c
        w *= r
        w += c
        r *= w
    np.subtract(r_hi, r_lo, out=f)


def evolve_batch(states: ChainState, params: ChainParams, dt: float, step_targets,
                 observe: Callable[[ChainState], Any], harmonic_only: bool = False) -> list:
    """Leapfrog a (B, N) ensemble in lockstep and call `observe` on its (B, N)
    state at each target step index, step 0 being the start; returns what
    `observe` returned, one entry per target in order.

    The state handed to `observe` is valid only during the call: step 0
    passes `states` itself, and every later step passes C-contiguous (B, N)
    arrays in the integrator's scratch, which the next step overwrites.  An
    observer keeps what it needs (a copy, or the values it computes) and
    never writes to the state.  A repeated target calls `observe` again on
    the same state.

    The ensemble lives in four site-major buffers, each starting on a 64-byte
    cache line, so every operation of a step is one pass over contiguous
    memory whose operands sit whole rows apart.  The displacements z have
    shape (N+2, B): row j holds q_j of every state, and rows 0 and N+1 are
    the fixed ends, never written, so r = z[1:] - z[:-1] holds every bond of
    every state.  The bonds r and the scratch w have shape (N+1, B), the
    momenta P shape (N, B), and the forces go into w[:-1].  The row-shifted
    views the force kernel reads are formed once per flow.

    The step is Stoermer-Verlet in kick-drift form: the momentum buffer holds
    P = dt p at the half steps, and the forces come scaled by dt^2, so a step
    is the drift q += P, the forces f = dt^2 F(q), the kick P += f and the
    finiteness test.  The half-kicks that close one step and open the next
    are that one kick.  Only at a target step is the full-step momentum
    p = (P - f/2) / dt formed, site-major in r, and then p and q are
    transposed into (B, N) rows of w and r, which are free between two
    steps.

    Raises BlowupError (with the offending time) if the state goes
    non-finite, the fail-fast signal for a too-large dt; `observe` never sees
    a non-finite state.
    """
    targets = [int(s) for s in step_targets]
    if any(b < a for a, b in zip(targets, targets[1:])) or (targets and targets[0] < 0):
        raise ValueError("step_targets must be ascending and non-negative")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    B, N = len(states), states.n          # a single (N,) state has no len()
    z = _aligned((N + 2, B))
    r = _aligned((N + 1, B))
    w = _aligned((N + 1, B))
    P = _aligned((N, B))
    q_sites, f, p_sites = z[1:-1], w[:-1], r[:-1]
    views = (z[1:], z[:-1], r, r[1:], r[:-1], w, f)
    P_flat = P.reshape(-1)
    p = w.reshape(-1)[:B * N].reshape(B, N)
    q = r.reshape(-1)[:B * N].reshape(B, N)
    q_sites[...] = states.q.T
    A = params.A
    c = dt * dt
    with np.errstate(over="ignore", invalid="ignore"):
        # the opening half-kick: P = dt p + (dt^2 / 2) F(q)
        _batch_forces(*views, A, 0.5 * c, harmonic_only)
        np.multiply(states.p.T, dt, out=P)
        P += f
    state, step, out = states, 0, []
    for target in targets:
        if target > step:
            with np.errstate(over="ignore", invalid="ignore"):
                while step < target:
                    step += 1
                    q_sites += P
                    _batch_forces(*views, A, c, harmonic_only)
                    P += f
                    if not math.isfinite(np.dot(P_flat, P_flat)):
                        raise BlowupError(step * dt)
            np.multiply(f, 0.5, out=p_sites)
            np.subtract(P, p_sites, out=p_sites)
            p_sites /= dt
            p[...] = p_sites.T      # into w, free once f has been read
            q[...] = q_sites.T      # into r, free once p has been read
            state = ChainState(p, q)
        out.append(observe(state))
    return out
