"""Monte Carlo estimators: moments, jackknife errors, the time
autocorrelation of an ensemble, its half-life and log-log slopes.

Averages are Gibbs-ensemble averages: many independent initial conditions,
each evolved by the chain flow where time enters.  Error bars are jackknife
over initial conditions; trajectories from one initial condition are never
treated as independent.  All scaling claims are reported as fitted log-log
slopes because the underlying constants are not quantified.  The experiments
that draw the samples and call these estimators live in `experiments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import chain as chain_mod
from .chain import ChainParams


@dataclass(frozen=True)
class Estimate:
    """Sample mean/variance with jackknife standard errors."""

    mean: float
    variance: float
    stderr_mean: float
    stderr_variance: float
    n_samples: int


def estimate_from_samples(x: np.ndarray) -> Estimate:
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    se_mean = math.sqrt(var / n)
    if n >= 3:
        s1 = float(x.sum())
        s2 = float(x @ x)
        # delete-one unbiased variances, in closed form
        mean_i = (s1 - x) / (n - 1)
        var_i = ((s2 - x * x) - (n - 1) * mean_i**2) / (n - 2)
        se_var = math.sqrt((n - 1) / n * float(((var_i - var_i.mean()) ** 2).sum()))
    else:
        se_var = var * math.sqrt(2.0 / (n - 1))
    return Estimate(mean, var, se_mean, se_var, n)


@dataclass
class CorrelationCurve:
    """Time autocorrelation C_F(t) over a Gibbs ensemble.

    sigma2 is C_F(0) computed with the same estimator on the same samples.
    delete_one holds the delete-one covariances (n_states, n_times) of the
    time-0 values with each grid time, which the half-life jackknife reuses.
    """

    times: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    sigma2: float
    normalized: np.ndarray
    normalized_stderrs: np.ndarray
    delete_one: np.ndarray = field(repr=False)


def _cov_columns(f0: np.ndarray, F: np.ndarray):
    """Covariance of f0 with each column of F, plus delete-one values."""
    n = f0.size
    prods = f0[:, None] * F
    sp = prods.sum(axis=0)
    s0 = f0.sum()
    st = F.sum(axis=0)
    cov = sp / n - (s0 / n) * (st / n)
    del_cov = (sp[None, :] - prods) / (n - 1) \
        - ((s0 - f0)[:, None] / (n - 1)) * ((st[None, :] - F) / (n - 1))
    return cov, del_cov


def autocorrelation(observable, states, params: ChainParams, dt: float,
                    t_grid, harmonic_only: bool = False) -> CorrelationCurve:
    """C_F(t) = <F F(t)> - <F><F(t)> on the given time grid.

    `states` is a (B, N) ensemble of initial states, and `observable` maps a
    (B, N) ensemble to its B values.  The ensemble is integrated once up to
    max(t_grid); grid times are snapped to whole integrator steps.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or (np.diff(t_grid) <= 0).any() or t_grid[0] < 0:
        raise ValueError("t_grid must be ascending and non-negative")
    steps = np.rint(t_grid / dt).astype(int)
    n = len(states)
    if n < 3:
        raise ValueError("need at least 3 initial conditions")
    want0 = steps[0] == 0
    targets = steps if want0 else np.concatenate([[0], steps])
    snaps = chain_mod.evolve_batch(states, params, dt, targets,
                                   harmonic_only=harmonic_only)
    # (times, n) transposed, not stacked along axis 1: _cov_columns' column
    # sums follow the memory layout, and the CSV bytes follow those sums
    vals = np.array([observable(snap) for snap in snaps]).T  # (n, times)
    f0 = vals[:, 0]
    F = vals if want0 else vals[:, 1:]
    cov, del_cov = _cov_columns(f0, F)
    se = np.sqrt((n - 1) / n * ((del_cov - del_cov.mean(axis=0)) ** 2).sum(axis=0))
    # same estimator, same samples: C(0) IS sigma^2 when the grid starts at 0
    sigma2 = float(cov[0]) if want0 else \
        float(f0 @ f0) / n - (float(f0.sum()) / n) ** 2
    # delete-one sigma2 for the normalized-curve errors
    s2 = float(f0 @ f0)
    s1 = float(f0.sum())
    del_sig = (s2 - f0**2) / (n - 1) - ((s1 - f0) / (n - 1)) ** 2
    del_norm = del_cov / del_sig[:, None]
    norm_se = np.sqrt((n - 1) / n * ((del_norm - del_norm.mean(axis=0)) ** 2).sum(axis=0))
    return CorrelationCurve(times=t_grid.copy(), values=cov, stderrs=se,
                            sigma2=sigma2, normalized=cov / sigma2,
                            normalized_stderrs=norm_se, delete_one=del_cov)


def half_life(curve: CorrelationCurve) -> float | None:
    """First time the normalized curve crosses 1/2 (linear interpolation);
    None when it never does within the grid."""
    return _half_life_from_series(curve.times, curve.normalized)


def _half_life_from_series(times, v) -> float | None:
    below = np.nonzero(v < 0.5)[0]
    if below.size == 0:
        return None
    i = int(below[0])
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    v0, v1 = v[i - 1], v[i]
    return float(t0 + (t1 - t0) * (v0 - 0.5) / (v0 - v1))


def half_life_jackknife(curve: CorrelationCurve) -> tuple[float | None, float | None]:
    """(t_half, stderr) with delete-one recomputation of the whole curve.

    stderr is None when the grid does not start at t = 0, or when the crossing
    is not reached on the full curve or on any delete-one replica.
    """
    t_half = half_life(curve)
    if t_half is None:
        return None, None
    if curve.times[0] != 0:
        return t_half, None
    del_cov = curve.delete_one
    vals = []
    for i in range(del_cov.shape[0]):
        v = del_cov[i] / del_cov[i, 0]
        th = _half_life_from_series(curve.times, v)
        if th is None:
            return t_half, None
        vals.append(th)
    vals = np.array(vals)
    n = vals.size
    se = math.sqrt((n - 1) / n * float(((vals - vals.mean()) ** 2).sum()))
    return t_half, se


def rms_jackknife(x: np.ndarray) -> tuple[float, float]:
    """Root mean square of x and its delete-one jackknife error."""
    n = x.size
    s2 = float(x @ x)
    rms = math.sqrt(s2 / n)
    del_rms = np.sqrt(np.maximum((s2 - x * x) / (n - 1), 0.0))
    se = math.sqrt((n - 1) / n * float(((del_rms - del_rms.mean()) ** 2).sum()))
    return rms, se


def std_jackknife(x: np.ndarray) -> tuple[float, float]:
    """Population standard deviation of x and its delete-one jackknife error."""
    n = x.size
    s1 = float(x.sum())
    s2 = float(x @ x)
    std = math.sqrt(max(s2 / n - (s1 / n) ** 2, 0.0))
    mean_i = (s1 - x) / (n - 1)
    var_i = np.maximum((s2 - x * x) / (n - 1) - mean_i**2, 0.0)
    del_std = np.sqrt(var_i)
    se = math.sqrt((n - 1) / n * float(((del_std - del_std.mean()) ** 2).sum()))
    return std, se


def fit_power_law(x_list, y_list) -> tuple[float, float]:
    """Least-squares slope in log-log coordinates, with its standard error."""
    x = np.asarray(x_list, dtype=float)
    y = np.asarray(y_list, dtype=float)
    if x.size < 3:
        raise ValueError("need at least 3 points")
    if (x <= 0).any() or (y <= 0).any():
        raise ValueError("power-law fit needs positive data")
    lx = np.log(x)
    ly = np.log(y)
    lx0 = lx - lx.mean()
    sxx = float(lx0 @ lx0)
    slope = float(lx0 @ ly) / sxx
    resid = ly - ly.mean() - slope * lx0
    dof = x.size - 2
    s2 = float(resid @ resid) / dof if dof > 0 else 0.0
    return slope, math.sqrt(s2 / sxx)
