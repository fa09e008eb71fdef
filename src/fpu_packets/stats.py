"""Monte Carlo estimators on arrays: moments, jackknife errors, the time
autocorrelation of an ensemble, its half-life and log-log slopes.

Averages are Gibbs-ensemble averages: many independent initial conditions,
each evolved by the chain flow where time enters.  Error bars are delete-one
jackknife over initial conditions (one formula, `_jackknife_se`);
trajectories from one initial condition are never treated as independent.
All scaling claims are reported as fitted log-log slopes because the
underlying constants are not quantified.  This module imports no other module
of the package: the cells in `experiments` draw and evolve the ensembles and
pass the observed values here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Estimate:
    """Sample mean/variance with jackknife standard errors."""

    mean: float
    variance: float
    stderr_mean: float
    stderr_variance: float
    n_samples: int


def _jackknife_se(d: np.ndarray):
    """Jackknife standard error from the delete-one values d (along axis 0)."""
    n = d.shape[0]
    return np.sqrt((n - 1) / n * ((d - d.mean(axis=0)) ** 2).sum(axis=0))


def _population_variance(x: np.ndarray) -> tuple[float, np.ndarray]:
    """Population variance of x, and of x with each entry left out in turn,
    in closed form from the sums."""
    n = x.size
    s1 = float(x.sum())
    s2 = float(x @ x)
    del_var = (s2 - x * x) / (n - 1) - ((s1 - x) / (n - 1)) ** 2
    return s2 / n - (s1 / n) ** 2, del_var


def estimate_from_samples(x: np.ndarray) -> Estimate:
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 samples")
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    s1 = float(x.sum())
    s2 = float(x @ x)
    # delete-one unbiased variances, in closed form
    mean_i = (s1 - x) / (n - 1)
    var_i = ((s2 - x * x) - (n - 1) * mean_i**2) / (n - 2)
    return Estimate(mean, var, math.sqrt(var / n), float(_jackknife_se(var_i)), n)


@dataclass
class CorrelationCurve:
    """Time autocorrelation C_F(t) over a Gibbs ensemble, on a grid that
    starts at t = 0, so values[0] is C_F(0), the variance of F.

    delete_one holds the delete-one covariances (n_states, n_times) of the
    time-0 values with each grid time, which the half-life jackknife reuses.
    """

    times: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
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


def autocorrelation(vals: np.ndarray, times) -> CorrelationCurve:
    """C_F(t) = <F F(t)> - <F><F(t)> on the grid `times`, which starts at 0.

    `vals` is the (n, k) array of F on n initial conditions, one column per
    grid time (k = len(times)).
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0 or (np.diff(times) <= 0).any():
        raise ValueError("times must be ascending from 0")
    n = vals.shape[0]
    if n < 3:
        raise ValueError("need at least 3 initial conditions")
    if vals.shape[1] != times.size:
        raise ValueError("vals needs one column per grid time")
    cov, del_cov = _cov_columns(vals[:, 0], vals)
    _, del_var0 = _population_variance(vals[:, 0])
    return CorrelationCurve(times=times.copy(), values=cov, stderrs=_jackknife_se(del_cov),
                            normalized=cov / cov[0],
                            normalized_stderrs=_jackknife_se(del_cov / del_var0[:, None]),
                            delete_one=del_cov)


def half_life(times, v) -> float | None:
    """First time the series v crosses 1/2 (linear interpolation); None when
    it never does within the grid."""
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
    """(t_half, stderr) of the normalized curve, with delete-one recomputation
    of the whole curve.

    stderr is None when the crossing is not reached on the full curve or on
    any delete-one replica.
    """
    t_half = half_life(curve.times, curve.normalized)
    if t_half is None:
        return None, None
    del_cov = curve.delete_one
    vals = []
    for i in range(del_cov.shape[0]):
        th = half_life(curve.times, del_cov[i] / del_cov[i, 0])
        if th is None:
            return t_half, None
        vals.append(th)
    return t_half, float(_jackknife_se(np.array(vals)))


def rms_jackknife(x: np.ndarray) -> tuple[float, float]:
    """Root mean square of x and its delete-one jackknife error."""
    n = x.size
    s2 = float(x @ x)
    del_rms = np.sqrt(np.maximum((s2 - x * x) / (n - 1), 0.0))
    return math.sqrt(s2 / n), float(_jackknife_se(del_rms))


def std_jackknife(x: np.ndarray) -> tuple[float, float]:
    """Population standard deviation of x and its delete-one jackknife error."""
    var, del_var = _population_variance(x)
    del_std = np.sqrt(np.maximum(del_var, 0.0))
    return math.sqrt(max(var, 0.0)), float(_jackknife_se(del_std))


def fit_power_law(x_list, y_list) -> tuple[float, float]:
    """Least-squares slope in log-log coordinates, with its standard error."""
    x = np.asarray(x_list, dtype=float)
    y = np.asarray(y_list, dtype=float)
    if x.size < 3:
        raise ValueError("need at least 3 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("power-law fit needs finite data")
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
