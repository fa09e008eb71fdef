"""Markov-chain sampling of the chain's Gibbs measure.

Momenta are iid Gaussian.  The configurational measure factorizes over the
bond variables r_j up to the single constraint sum_j r_j = 0, so bonds are
sampled by a Metropolis chain of pair moves (r_i += delta, r_j -= delta) that
preserve the constraint algebraically; a stride of sweeps decorrelates its
draws but does not make them independent.  A round of moves works on a
(2, half) layout of disjoint pairs: one gather of the bonds and their cached
potentials, one potential pass, one masked write-back.  Each round draws a
permutation, then the normal steps, then the uniforms; that order is the
stream contract, and a test pins the round's bits to a reference round
(tests/oracles.py).

The analytic backbone is the tilted one-bond density
exp(-gamma r - beta V(r)) / q_gamma, whose quadrature moments at the zero-mean
tilt gamma = theta serve as the oracle for the sampler's marginals (they agree
up to O(1/N)).  The tilt is the root of the mean, found by Newton steps on
the quadrature's own moments inside a shrinking bracket, so the package needs
numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import ChainParams, ChainState, potential_v

DEFAULT_BURN_IN = 100
_PILOT_SWEEPS = 400
_TARGET_ACCEPTANCE = 0.3
_SLAB = 1e-3                # |sum r| <= _SLAB accepts a slab_rejection_bonds draw
_SLAB_MAX_BATCHES = 10_000
_THETA_MAX_STEPS = 100      # Newton or bisection steps of one solve_theta


class ThetaSolveError(RuntimeError):
    pass


def _default_potential(A: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda r: potential_v(r, A)


def _support(beta: float, gamma: float, V: Callable, n_probe: int = 4001
             ) -> tuple[float, float]:
    """Interval outside which exp(-gamma r - beta V) r^n is negligible (n <= 8)."""
    L = 2.0
    while True:
        r = np.linspace(-L, L, n_probe)
        e = -gamma * r - beta * V(r)
        e_max = e.max()
        # 8 log factors cover the highest cached moment
        margin = 60.0 + 8.0 * math.log1p(L)
        if e[0] < e_max - margin and e[-1] < e_max - margin:
            keep = e > e_max - margin - 20.0
            return float(r[keep].min()), float(r[keep].max())
        if L > 1e6:
            raise ThetaSolveError(
                f"tilted density not normalizable on [-{L:g}, {L:g}]")
        L *= 2.0


def _quad_moments(beta: float, gamma: float, V: Callable, n_max: int = 8,
                  tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """(q_gamma, moments[0..n_max]) by composite Simpson with step halving."""
    lo, hi = _support(beta, gamma, V)
    n = 2048
    prev = None
    while n <= 2**22:
        x = np.linspace(lo, hi, n + 1)
        e = -gamma * x - beta * V(x)
        e_max = e.max()
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        base = np.exp(e - e_max) * w
        powers = np.vander(x, n_max + 1, increasing=True)  # (n+1, n_max+1)
        raw = base @ powers * (hi - lo) / (3.0 * n)
        q = raw[0] * math.exp(e_max)
        mom = raw / raw[0]
        if prev is not None:
            scale = np.maximum(np.abs(mom), np.sqrt(max(mom[2], 1e-300)) ** np.arange(n_max + 1))
            if (np.abs(mom - prev[1]) <= tol * scale).all() and \
                    abs(q - prev[0]) <= tol * q:
                return q, mom
        prev = (q, mom)
        n *= 2
    raise ThetaSolveError("tilted-moment quadrature did not converge")


@dataclass(frozen=True)
class TiltedDensity:
    """One-bond density exp(-theta r - beta V(r)) / q_theta at the zero-mean
    tilt theta; moments[n] is <r^n>, n = 0..8."""

    beta: float
    A: float
    theta: float
    q_theta: float
    moments: np.ndarray


def tilted_density(beta: float, A: float) -> TiltedDensity:
    """The tilted one-bond density at (beta, A), solved once per process: the
    result is frozen and its moments are read-only, so callers share it.  The
    cache sits behind this plain function because perfbench's tracer wraps
    plain functions only, and so still times the quadrature under `gibbs`."""
    return _tilted_density(beta, A)


@functools.lru_cache(maxsize=16)
def _tilted_density(beta: float, A: float) -> TiltedDensity:
    theta = solve_theta(beta, A)
    q, mom = _quad_moments(beta, theta, _default_potential(A))
    mom = mom.copy()
    mom.setflags(write=False)
    return TiltedDensity(beta=beta, A=A, theta=theta, q_theta=q, moments=mom)


def solve_theta(beta: float, A: float, potential: Callable | None = None,
                bracket: tuple[float, float] = (-10.0, 10.0)) -> float:
    """Tilt theta zeroing the mean: int r exp(-theta r - beta V) dr = 0.

    The mean m is strictly decreasing in the tilt, with derivative -Var, so
    the root is unique; bracketing failure on [-10, 10] signals pathological
    parameters.  From the midpoint, Newton steps theta += m / Var on the
    quadrature moments stay inside a bracket narrowed by the sign of m, and a
    step that would leave it bisects instead (`rtsafe`, Numerical Recipes,
    3rd ed., sec. 9.4).  The root is accepted at |m| <= 1e-12 sigma.
    """
    V = potential if potential is not None else _default_potential(A)

    def mean_var(g: float) -> tuple[float, float]:
        mom = _quad_moments(beta, g, V, n_max=2)[1]
        return mom[1], mom[2] - mom[1] ** 2

    lo, hi = bracket
    (m_lo, _), (m_hi, _) = mean_var(lo), mean_var(hi)
    if not (m_lo > 0 > m_hi):
        raise ThetaSolveError(
            f"cannot bracket theta in [{lo:g}, {hi:g}]: "
            f"mean({lo:g}) = {m_lo:.3e}, mean({hi:g}) = {m_hi:.3e}")
    theta = 0.5 * (lo + hi)
    for _ in range(_THETA_MAX_STEPS):
        m, var = mean_var(theta)
        if abs(m) <= 1e-12 * math.sqrt(var):
            return float(theta)
        lo, hi = (theta, hi) if m > 0 else (lo, theta)
        step = theta + m / var
        theta = step if lo < step < hi else 0.5 * (lo + hi)
    raise ThetaSolveError(
        f"theta residual {m:.3e} above tolerance after {_THETA_MAX_STEPS} steps")


def sample_momenta(rng: np.random.Generator, N: int, beta: float) -> np.ndarray:
    """iid normal momenta, mean 0, variance 1/beta."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    return rng.normal(0.0, 1.0 / math.sqrt(beta), size=N)


def bonds_to_state(r: np.ndarray, p: np.ndarray) -> ChainState:
    """q_j = r_0 + ... + r_{j-1}; with sum r = 0 the far end closes at zero."""
    r = np.asarray(r, dtype=float)
    p = np.asarray(p, dtype=float)
    if r.size != p.size + 1:
        raise ValueError("need N+1 bonds for N momenta")
    tol = 1e-12 * r.size
    total = float(r.sum())
    if abs(total) > tol:
        raise ValueError(f"sum of bonds is {total:.3e}, above tolerance {tol:.3e}")
    q = np.cumsum(r)[:-1]
    return ChainState(p, q)


def _integrated_autocorr_time(x: np.ndarray, c: float = 5.0) -> float:
    """Sokal-windowed integrated autocorrelation time of a scalar series."""
    x = np.asarray(x, dtype=float)
    n = x.size
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0 or n < 8:
        return 1.0
    acf = np.correlate(x, x, mode="full")[n - 1:] / (var * n)
    tau = 0.5
    for t in range(1, n // 2):
        tau += float(acf[t])
        if t >= c * tau:
            break
    return max(tau, 0.5)


class GibbsSampler:
    """Metropolis chain on the zero-sum bond hyperplane plus Gaussian momenta.

    One sweep is two rounds of random disjoint pairings, i.e. about N+1 pair
    moves.  A round draws `permutation(N+1)` and lays its first 2*half entries
    out as a (2, half) index array, row 0 the sites i and row 1 the sites j;
    then `normal(0, sigma_prop, half)` for the steps delta and `random(half)`
    for the Metropolis test.  Every proposal, energy change and acceptance is
    computed on the whole block, and `where(accepted, new, old)` writes the
    bonds and their potentials back.  The draw order (permutation, normal,
    uniform) is the stream contract that `tests/oracles.metropolis_round` pins.

    The proposal width is tuned toward 30% acceptance during burn-in and then
    frozen, so detailed balance holds for all measurement sweeps.
    The decorrelation stride is 5x the integrated autocorrelation time of the
    cubic energy, measured over a pilot run after burn-in.
    """

    def __init__(self, params: ChainParams, rng, burn_in: int = DEFAULT_BURN_IN):
        self.params = params
        self.rng = np.random.default_rng(rng)   # a Generator is used as is
        self.r = np.zeros(params.N + 1)
        self._vpot = potential_v(self.r, params.A)
        self.sigma_prop = 2.0 / math.sqrt(params.beta)
        self._accepted = 0
        self._proposed = 0
        self.n_sweeps = 0

        for _ in range(burn_in):
            self.sweep()
            self._retune()

        h1_series = np.empty(_PILOT_SWEEPS)
        for i in range(_PILOT_SWEEPS):
            self.sweep()
            r3 = self.r**3
            h1_series[i] = r3.sum() / 3.0
        self.tau_int = _integrated_autocorr_time(h1_series)
        self.stride = max(1, math.ceil(5.0 * self.tau_int))

    def _retune(self):
        rate = self._accepted / max(self._proposed, 1)
        self.sigma_prop = float(np.clip(
            self.sigma_prop * math.exp(0.25 * (rate - _TARGET_ACCEPTANCE)),
            1e-4, 5.0))
        self._accepted = 0
        self._proposed = 0

    def _round(self):
        m = self.r.size
        half = m // 2
        idx = self.rng.permutation(m)[:2 * half].reshape(2, half)
        delta = self.rng.normal(0.0, self.sigma_prop, half)
        old = self.r[idx]
        v_old = self._vpot[idx]
        new = old.copy()
        new[0] += delta
        new[1] -= delta
        v = potential_v(new, self.params.A)
        d_en = v[0] + v[1] - v_old[0] - v_old[1]
        acc = np.log(self.rng.random(half)) < -self.params.beta * d_en
        self.r[idx] = np.where(acc, new, old)
        self._vpot[idx] = np.where(acc, v, v_old)
        self._accepted += int(np.count_nonzero(acc))
        self._proposed += half

    def sweep(self, n: int = 1):
        for _ in range(2 * n):
            self._round()
        self.n_sweeps += n

    @property
    def acceptance_rate(self) -> float:
        return self._accepted / max(self._proposed, 1)

    def sample(self) -> ChainState:
        """Advance one stride and draw fresh momenta: one decorrelated state."""
        self.sweep(self.stride)
        p = sample_momenta(self.rng, self.params.N, self.params.beta)
        return bonds_to_state(self.r, p)

    def sample_states(self, n: int) -> ChainState:
        """n successive sample() draws as one (n, N) ensemble, written row by
        row, so that the draws are not held twice."""
        p = np.empty((n, self.params.N))
        q = np.empty_like(p)
        for i in range(n):
            state = self.sample()
            p[i], q[i] = state.p, state.q
        return ChainState(p, q)

    def diagnostics(self) -> dict:
        """The tuned proposal, acceptance, stride and sweep count, the
        constraint residual |sum r| of the current bonds (a record, not a
        gate), and under "rng" the `stream_record` of the stream that drew
        every sweep and momentum."""
        return {
            "sigma_prop": self.sigma_prop,
            "acceptance_rate": self.acceptance_rate,
            "tau_int": self.tau_int,
            "stride": self.stride,
            "n_sweeps": self.n_sweeps,
            "abs_sum_r": abs(float(self.r.sum())),
            "rng": stream_record(self.rng),
        }


def stream_record(rng: np.random.Generator) -> dict:
    """The random stream of `rng` as JSON: `{"seed", "spawn_key"}`, from which
    `default_rng(SeedSequence(seed, spawn_key=spawn_key))` rebuilds it."""
    seq = rng.bit_generator.seed_seq
    return {"seed": seq.entropy, "spawn_key": list(seq.spawn_key)}


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
