"""Experiment runner: JSON config in, CSV + JSON metadata + PASS/FAIL summary out.

Each experiment is one ExperimentSpec in EXPERIMENTS: its description, the
config keys its code reads (each with a default and a validator), its CSV
columns, the function that computes its rows, checks and diagnostics, and a
check of values wrong only together where there are such.  A config may set
`experiment`, `seed` and its experiment's keys, nothing else; a key that the
config's own values leave unread is refused too.  Every experiment runs as
grid cells, one per point (sampler-validation's points are its checks at
each N, theorem2-h1's its grid sizes), and every cell returns the same shape:
its CSV rows and a dict of diagnostics for the metadata.  A cell that
samples the Gibbs measure draws from its own stream; a theorem2-h1 cell
draws nothing and gets none.  A sampler-validation cell reads the bonds of
its own sampler after each decorrelated draw; every other sampling cell
draws its Gibbs ensemble through `_draw`, and the cells that evolve it do so
through `_phi0_flow`, the one caller of the integrator.  `_packets` names
the packets the grid cells observe: validation refuses a config in which one
of them is empty, and `_phi0_flow` evolves their Phi0.

Every experiment's PASS thresholds live in THRESHOLDS, which the acceptance
test suite imports, so there is a single source of truth.  (config, seed)
determines every output byte except the timestamps in the metadata file:
per-cell seeds are derived from the master seed by index, and results are
reduced in cell order no matter how many workers run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from itertools import count, product
from pathlib import Path
from types import SimpleNamespace
from typing import Any, NamedTuple

import numpy as np

from . import packet as packet_mod
from . import profiles as profiles_mod
from . import stats as stats_mod
from .chain import DEFAULT_DT, BlowupError, ChainParams, ChainState, energy, evolve_batch
from .gibbs import GibbsSampler, ThetaSolveError, constrained_moments, tilted_density
from .packet import (PacketError, PacketObservable, build_phi1_table, homological_residual,
                     ps_observable)
from .profiles import DEFAULT_PROFILE_SPEC, NuProfile, eval_h1, make_profile

THRESHOLDS = {
    "homological_residual": 1e-9,
    "lemma3_band": 3.0,
    "ratio_slope": (-1.3, -0.8),
    "phi1_phi0_slope": (-0.7, -0.3),
    "persistence_level": 0.5,
    "half_life_ratio": 2.0,
    "moment_z": 3.0,
    "lemma5_shrink": 0.7,
    "cheb_z": 3.0,
    "h1_stability": 0.05,
    "h1_divergence": 2.0,
    "acceptance_band": (0.2, 0.6),
    "sum_r_tol": 1e-12,
}

RATIO_PROFILE_SPEC = {"kind": "poly_x2", "coeffs": [1.0, 0.5]}
CHEBYSHEV_PROFILE_SPEC = {"kind": "bump", "center": 0.8, "width": 0.3, "amplitude": 1.0}
THEOREM2_FAMILY = [
    {"kind": "constant", "value": 1.0},
    {"kind": "poly_x2", "coeffs": [0.0, 1.0]},
    {"kind": "poly_x2", "coeffs": [1.0, 1.0]},
    {"kind": "cosine", "amplitude": 1.0},
    {"kind": "bump", "center": 0.18, "width": 0.25, "amplitude": 1.0},
    {"kind": "bump", "center": 0.5, "width": 0.5, "amplitude": 1.0},
]

# run() records these in the metadata and re-raises; main() exits 3 on them
NUMERICAL_FAILURES = (BlowupError, ThetaSolveError, PacketError)


class ConfigError(ValueError):
    pass


class ExperimentConfig(SimpleNamespace):
    """A validated config: `experiment`, `seed`, `raw` (the JSON object as
    given) and one attribute per key of the experiment's spec, defaults
    filled in."""


# ------------------------------------------------------------------ validators
# Each takes a JSON value and returns it normalized, or raises ValueError
# saying what the value must be.

def _real(ok: Callable[[float], bool], what: str):
    def check(v):
        try:
            x = math.nan if isinstance(v, bool) or not isinstance(v, (int, float)) else float(v)
        except OverflowError:    # an integer beyond the float range
            x = math.inf
        if not (math.isfinite(x) and ok(x)):
            raise ValueError(f"must be {what}, got {v!r}")
        return x
    return check


def _int(lo: int, hi: int | None = None):
    what = f"an integer >= {lo}" if hi is None else f"an integer in {lo}..{hi}"

    def check(v):
        if (isinstance(v, bool) or not isinstance(v, int) or v < lo
                or (hi is not None and v > hi)):
            raise ValueError(f"must be {what}, got {v!r}")
        return v
    return check


def _one_of(*options: str):
    def check(v):
        if v not in options:
            raise ValueError(f"must be one of {list(options)}, got {v!r}")
        return v
    return check


def _list(item, distinct: int = 1, longest: int | None = None, repeats: bool = True):
    """A non-empty list whose entries pass `item`, with at least `distinct`
    different entries, at most `longest` entries and, unless `repeats`, no
    two entries that `_label` writes alike."""
    def check(v):
        if not isinstance(v, list) or not v:
            raise ValueError(f"must be a non-empty list, got {v!r}")
        if longest is not None and len(v) > longest:
            raise ValueError(f"takes at most {longest} entries, got {v!r}")
        out = []
        for i, x in enumerate(v):
            try:
                out.append(item(x))
            except ValueError as exc:
                raise ValueError(f"entry {i}: {exc}") from None
        if distinct > 1 and len(set(out)) < distinct:
            raise ValueError(f"needs at least {distinct} different entries, got {v!r}")
        if not repeats and len({_label(x) for x in out}) < len(out):
            raise ValueError(f"must not repeat an entry, as metadata keys write it "
                             f"(floats to 6 significant digits), got {v!r}")
        return out
    return check


def _profile(v):
    make_profile(v)
    return v


def _admissible(v):
    """A profile with g'(0) = 0, as the corrector table and packet estimates need."""
    prof = make_profile(v)
    if not prof.admissible:
        raise ValueError(f"must be an admissible profile (g'(0) = 0), got g'(0) = {prof.dg0:g}")
    return v


def _divergent(v):
    """A profile with g'(0) != 0, the only kind whose h1 grows with the grid:
    with g'(0) = 0 the divergence check fails whatever h1 measures, or, where
    h1 is 0 (nu = 0), divides by zero."""
    prof = make_profile(v)
    if prof.admissible:
        raise ValueError(f"must be an inadmissible profile (g'(0) != 0), "
                         f"got g'(0) = {prof.dg0:g}")
    return v


def _h1_bounded(v):
    """A profile with c0 >= 0 and c0 + c2 > 0.  The bound h1 <= C (c0 + c2)
    reads c0 = g(0) and c2 = sup|g''| as sizes: with c0 < 0 the two can
    cancel and h1 / (c0 + c2) grows as large as one likes, and with
    c0 + c2 <= 0 the bound says nothing."""
    prof = make_profile(v)
    if prof.c0 < 0:
        raise ValueError(f"must have c0 = g(0) >= 0, got c0 = {prof.c0:g}")
    if not prof.c0 + prof.c2 > 0:
        raise ValueError(f"must have c0 + c2 > 0, got c0 = {prof.c0:g}, c2 = {prof.c2:g}")
    return v


def _h1_family(v):
    """Profiles that `_h1_bounded` accepts, no two with one label, the
    sorted-key JSON that the CSV writes: a repeated profile would write its
    rows twice and print its stability line twice."""
    family = _list(_h1_bounded)(v)
    labels = [json.dumps(spec, sort_keys=True) for spec in family]
    if len(set(labels)) < len(labels):
        raise ValueError(f"must not repeat a profile, as the CSV labels it, got {v!r}")
    return family


def _h1_grids(v):
    """At least two grid sizes, the largest at least h1_divergence times the
    smallest: h1 of a profile with g'(0) != 0 grows about in proportion to
    the grid, so on a smaller span the divergence check fails whatever h1
    measures.  A repeated size would write its rows twice and compare that
    grid with itself in the stability check."""
    grids = _list(_int(2), distinct=2, repeats=False)(v)
    span = max(grids) / min(grids)
    if span < THRESHOLDS["h1_divergence"]:
        raise ValueError(f"largest/smallest = {span:.3g} must be >= "
                         f"{THRESHOLDS['h1_divergence']:g}, got {v!r}")
    return grids


def _steps(t, dt: float) -> np.ndarray:
    """The whole number of integrator steps of dt nearest to each time t
    (halves round to even); every evolved ensemble is snapped by this rule."""
    return np.rint(np.asarray(t, dtype=float) / dt).astype(int)


def _whole_steps(key: str, times, dt: float) -> None:
    """Refuse a positive target time that rounds to 0 steps of dt: the run
    would measure the unevolved ensemble, and its checks would pass vacuously."""
    short = [t for t in times if t > 0 and _steps(t, dt) < 1]
    if short:
        raise ConfigError(f"field {key!r}: target time t = {min(short):g} rounds to 0 "
                          f"steps of dt = {dt:g}")


def _t_grid(v):
    """A strictly ascending grid from t = 0, the time C(t)/C(0) is read against."""
    if v is None:
        return None
    grid = _list(_real(lambda t: t >= 0, "a number >= 0"))(v)
    if grid[0] != 0:
        raise ValueError(f"must start at 0, got {v!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"must be strictly ascending, got {v!r}")
    return grid


_positive = _real(lambda v: v > 0, "a number > 0")
# grid axes: two entries that `_label` writes alike would put two cells under
# one metadata key
_N_LIST = _list(_int(3), repeats=False)
_BETAS = _list(_positive, repeats=False)
_COUNT = _int(3)


class Key(NamedTuple):
    default: Any
    check: Callable[[Any], Any]


_A = Key(1.0, _positive)
# leapfrog on the harmonic part is stable for dt * omega_max < 2, and
# omega_max = 2 sin(pi N / (2(N+1))) < 2 for every N
_DT = Key(DEFAULT_DT, _real(lambda v: 0 < v < 1, "a number in (0, 1)"))
_DRIFT_EXPONENT = Key(0.4, _real(lambda v: 0.0 <= v <= 0.5, "a number in [0, 1/2]"))


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: the config keys its code reads, its CSV columns,
    `compute(cfg, threads) -> (rows, checks, diagnostics)` and optionally
    `joint(cfg)`, which raises ConfigError on values wrong only together."""

    description: str
    keys: dict[str, Key]
    columns: tuple[str, ...]
    compute: Callable
    joint: Callable[[ExperimentConfig], None] | None = None


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config; a key its experiment does not read is
    an error, and so is an observed packet whose g vanishes at every mode of
    some N."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if "experiment" not in data:
        raise ConfigError("missing required field 'experiment'")
    name = data["experiment"]
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    spec = EXPERIMENTS[name]
    allowed = {"experiment", "seed", *spec.keys}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {name!r}: {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")
    if "seed" not in data:
        raise ConfigError("missing required field 'seed' (wall-clock defaults are "
                          "not allowed; reproducibility is mandatory)")
    values = {}
    for key, (default, check) in {"seed": Key(None, _int(0)), **spec.keys}.items():
        try:
            values[key] = check(data.get(key, default))
        except ValueError as exc:
            raise ConfigError(f"field {key!r}: {exc}") from None
    cfg = ExperimentConfig(experiment=name, raw=data, **values)
    if "N_list" in spec.keys:    # a grid experiment, whose cells observe packets
        key, packets = _packets(cfg)
        for N, (l, profile) in product(cfg.N_list, enumerate(packets)):
            if not packet_mod.mode_weights(profile, N)[0].any():
                which = "g" if key == "profile" else f"g of packet {l}"
                raise ConfigError(f"field {key!r}: {which} vanishes at every mode of N={N}, "
                                  f"so the packet is empty and every check on it is vacuous")
    if spec.joint is not None:
        spec.joint(cfg)
    return cfg


def _packets(cfg) -> tuple[str, list[NuProfile]]:
    """The packets a grid cell observes, in row order, and the config key
    that sets them: multi-packet's K disjoint bumps, or the one `profile`."""
    if cfg.experiment == "multi-packet":
        return "K", profiles_mod.disjoint_profiles(cfg.K)
    return "profile", [make_profile(cfg.profile)]


def _cell_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def _run_cell(job):
    cell, cfg, index, point = job
    # a cell that draws nothing gets no stream: a SeedSequence loads numpy.random
    draws = "beta_list" in EXPERIMENTS[cfg.experiment].keys
    return cell(cfg, _cell_seed(cfg.seed, index) if draws else None, *point)


def _label(v) -> str:
    """A grid value as metadata keys write it: floats to 6 significant digits."""
    return f"{v:g}" if isinstance(v, float) else str(v)


def _point_key(names, point) -> str:
    """A cell's metadata key: `N=127,beta=100` or `kind=Phi0,N=127,beta=100`."""
    return ",".join(f"{name}={_label(v)}" for name, v in zip(names, point))


def _grid(cell, cfg: ExperimentConfig, threads: int, points=None,
          names=("N", "beta")) -> tuple[list, dict]:
    """`cell(cfg, seed_sequence, *point) -> (rows, diag)` for every point, in
    order (default N_list x beta_list), whose entries `names` names; cell i
    is seeded by index i (by None where the experiment draws nothing), so
    the results do not depend on `threads`.  The pool has at most one worker
    per cell: under the fork start method it forks all of its workers at the
    first submit.  With one worker or one cell the cells run in this
    process, which neither starts nor imports the pool.  Returns the rows of
    every cell in cell order, and each cell's diag under its point's key."""
    points = list(product(cfg.N_list, cfg.beta_list) if points is None else points)
    jobs = [(cell, cfg, i, point) for i, point in enumerate(points)]
    if threads <= 1 or len(jobs) < 2:
        cells = [_run_cell(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            cells = list(pool.map(_run_cell, jobs))
    return ([row for rows, _ in cells for row in rows],
            {_point_key(names, point): diag for point, (_, diag) in zip(points, cells)})


@functools.lru_cache(maxsize=1)
def _cached_table(profile_json: str, N: int) -> PacketObservable:
    """The corrector table of a profile (as sorted-key JSON) at N, kept until a
    cell of this process asks for another.  Grid cells run N-major (and
    kind-major in lemma3-scan), so a process builds one table per N.  A table
    is immutable, and its work buffers carry no state from one pass to the
    next, so sharing it changes no byte."""
    return build_phi1_table(make_profile(json.loads(profile_json)), N)


def _phi1_table(cfg, N: int) -> PacketObservable:
    return _cached_table(json.dumps(cfg.profile, sort_keys=True), N)


def _draw(cfg, seed, N: int, beta: float) -> tuple[ChainParams, ChainState, dict]:
    """A grid cell's Gibbs ensemble: its chain parameters, cfg.n_samples
    successive decorrelated draws of a new sampler on `seed` as one (n, N)
    ensemble, and the sampler's diagnostics."""
    params = ChainParams(N=N, A=cfg.A, beta=beta)
    sampler = GibbsSampler(params, seed)
    return params, sampler.sample_states(cfg.n_samples), sampler.diagnostics()


def _phi0_flow(cfg, seed, N: int, beta: float, steps) -> tuple[np.ndarray, dict]:
    """Phi0 of each of the K packets of `_packets` on a cell's drawn ensemble
    after each of the ascending integrator `steps` from step 0, as a
    (K, len(steps), n) array, and the cell's diagnostics with the
    integrator's energy error (the largest |H(t) - H(0)| / |H(0)| over
    trajectories and steps) and the cell's stage times in seconds: drawing
    the ensemble, and the flow split into the observer's time and the rest.
    The observer keeps H(0), each step's energy error and the Phi0 values, no
    snapshot of the ensemble."""
    if steps[0] != 0:
        raise ValueError("the flow's steps start at 0, where H(0) is read")
    start = time.perf_counter()
    params, states, diag = _draw(cfg, seed, N, beta)
    drawn = time.perf_counter()
    weights = [packet_mod.mode_weights(p, N)[1] for p in _packets(cfg)[1]]
    vals = np.empty((len(weights), len(steps), len(states)))
    column = count()
    h0 = None
    observe_s = 0.0

    def observe(snap: ChainState) -> float:
        nonlocal h0, observe_s
        t = time.perf_counter()
        i = next(column)
        for k, nu_k in enumerate(weights):
            vals[k, i] = packet_mod.phi0(snap, nu_k)
        h = energy(snap, cfg.A)
        if h0 is None:      # step 0: the drawn ensemble itself
            h0 = h
        err = float((np.abs(h - h0) / np.abs(h0)).max())
        observe_s += time.perf_counter() - t
        return err

    err = max(evolve_batch(states, params, cfg.dt, steps, observe))
    flow_s = time.perf_counter() - drawn
    stage_s = {"sample": drawn - start, "integrate": flow_s - observe_s, "observe": observe_s}
    return vals, {"energy_rel_err": err, **diag, "stage_s": stage_s}


# ---------------------------------------------------------------- homological

def _homological_cell(cfg, seed, N, beta):
    pk = _phi1_table(cfg, N)
    _, states, diag = _draw(cfg, seed, N, beta)
    res = np.array([homological_residual(states[i], pk) for i in range(cfg.n_samples)])
    row = {"N": N, "beta": beta, "n_samples": cfg.n_samples,
           "max_residual": float(res.max()), "mean_residual": float(res.mean()),
           "min_denominator": pk.min_denominator}
    return [row], diag


def _run_homological(cfg: ExperimentConfig, threads: int):
    rows, diags = _grid(_homological_cell, cfg, threads)
    checks = []
    for r in rows:
        ok = r["max_residual"] <= THRESHOLDS["homological_residual"]
        checks.append((f"homological residual N={r['N']} beta={r['beta']:g} "
                       f"max={r['max_residual']:.3e} <= {THRESHOLDS['homological_residual']:g}",
                       ok))
    return rows, checks, diags


# --------------------------------------------------------------- ratio-scaling

def _ratio_cell(cfg, seed, N, beta):
    """||Phi-dot|| and sigma_Phi over the Gibbs ensemble, plus their ratio.

    Phi-dot comes from the analytic bracket, never from differencing, so the
    O(1/beta) ratio is not buried under finite-difference noise.  The
    sigma_Phi1/sigma_Phi0 ratio is measured on the same samples.
    """
    pk = _phi1_table(cfg, N)
    params, states, diag = _draw(cfg, seed, N, beta)
    n = cfg.n_samples
    # three contiguous series, not columns of the (n, 3) array: x @ x rounds
    # differently on a strided column, and the CSV bytes follow it
    v0, v1, pd = np.array([packet_mod.phi_dot(states[i], pk, params)
                           for i in range(n)]).T.copy()
    phidot, phidot_se = stats_mod.rms_jackknife(pd)
    sigma_phi, sigma_phi_se = stats_mod.std_jackknife(v0 + v1)
    sigma0, _ = stats_mod.std_jackknife(v0)
    sigma1, _ = stats_mod.std_jackknife(v1)
    row = {"N": N, "beta": beta, "n_samples": n,
           "phidot_norm": phidot, "phidot_stderr": phidot_se,
           "sigma_phi": sigma_phi, "sigma_phi_stderr": sigma_phi_se,
           "ratio": phidot / sigma_phi if sigma_phi > 0 else math.inf,
           "sigma_phi0": sigma0, "sigma_phi1": sigma1,
           "ratio_phi1_phi0": sigma1 / sigma0 if sigma0 > 0 else math.inf}
    return [row], {**diag, "min_denominator": pk.min_denominator}


def _run_ratio(cfg: ExperimentConfig, threads: int):
    rows, diags = _grid(_ratio_cell, cfg, threads)
    checks = []
    slopes = (("ratio slope", "ratio", THRESHOLDS["ratio_slope"]),
              ("sigma_phi1/sigma_phi0 slope", "ratio_phi1_phi0", THRESHOLDS["phi1_phi0_slope"]))
    for N in cfg.N_list:
        sub = [r for r in rows if r["N"] == N]
        betas = [r["beta"] for r in sub]
        for name, column, (lo, hi) in slopes:
            try:
                s, se = stats_mod.fit_power_law(betas, [r[column] for r in sub])
            except ValueError as exc:     # a zero or non-finite ratio has no slope
                checks.append((f"{name} N={N}: not fitted, {exc}", False))
                continue
            checks.append((f"{name} N={N}: {s:.3f}+-{se:.3f} in [{lo}, {hi}]", lo <= s <= hi))
    return rows, checks, diags


# -------------------------------------------------------------- autocorrelation

def _autocorr_cell(cfg, seed, N, beta):
    steps = _steps(_autocorr_times(cfg, beta), cfg.dt)
    flow, diag = _phi0_flow(cfg, seed, N, beta, steps)
    # (times, n) transposed, not stacked along axis 1: the estimator's column
    # sums follow the memory layout, and the CSV bytes follow those sums
    curve = stats_mod.autocorrelation(flow[0].T, steps * cfg.dt)
    t_half, t_half_se = stats_mod.half_life_jackknife(curve)
    rows = [{"N": N, "beta": beta, "t": float(t), "corr": float(c),
             "corr_stderr": float(se), "corr_normalized": float(v),
             "corr_normalized_stderr": float(vs), "sigma2": float(curve.values[0])}
            for t, c, se, v, vs in zip(curve.times, curve.values, curve.stderrs,
                                       curve.normalized, curve.normalized_stderrs)]
    return rows, {"t_half": t_half, "t_half_stderr": t_half_se, **diag}


def _autocorr_times(cfg, beta) -> np.ndarray:
    """The configured t_grid, or the default grid up to horizon_factor * beta;
    the cells evolve to, and report, its times snapped to whole steps."""
    if cfg.t_grid is not None:
        return np.asarray(cfg.t_grid, dtype=float)
    horizon = cfg.horizon_factor * beta
    near = np.linspace(0.0, min(beta, horizon), 11)
    far = np.linspace(min(beta, horizon), horizon, 18)[1:]
    # sorted, exact repeats dropped: np.unique's floats without loading numpy.ma
    t = np.sort(np.concatenate([near, far]))
    return t[np.concatenate([[True], t[1:] != t[:-1]])]


def _autocorr_joint(cfg):
    if cfg.t_grid is not None and "horizon_factor" in cfg.raw:
        raise ConfigError("field 'horizon_factor': unread, since 't_grid' replaces the "
                          "default grid it sets")
    stray = [b for b in cfg.persistence_betas if b not in cfg.beta_list]
    if stray:
        raise ConfigError(f"field 'persistence_betas': entry {stray[0]:g} is not in "
                          f"beta_list {cfg.beta_list}, so its persistence check would not run")
    key = "horizon_factor" if cfg.t_grid is None else "t_grid"
    grids = [_autocorr_times(cfg, beta) for beta in cfg.beta_list]
    _whole_steps(key, [t for times in grids for t in times], cfg.dt)
    for times in grids:    # two times on one step would write two rows of one value
        steps = _steps(times, cfg.dt)
        same = np.flatnonzero(np.diff(steps) == 0)
        if same.size:
            t, u = times[same[0]:same[0] + 2]
            raise ConfigError(f"field {key!r}: times t = {t:g} and t = {u:g} both round to "
                              f"step {steps[same[0]]} of dt = {cfg.dt:g}")


def _run_autocorr(cfg: ExperimentConfig, threads: int):
    rows, diags = _grid(_autocorr_cell, cfg, threads)
    checks = []
    level = THRESHOLDS["persistence_level"]
    for N, beta in product(cfg.N_list, cfg.beta_list):
        if beta in cfg.persistence_betas:
            last = _steps(beta, cfg.dt)
            window = [(_steps(r["t"], cfg.dt), r["corr_normalized"]) for r in rows
                      if r["N"] == N and r["beta"] == beta]
            if not any(0 < step <= last for step, _ in window):    # C/C0 = 1 at t = 0
                checks.append((f"persistence N={N} beta={beta:g}: no grid time in "
                               f"(0, beta]; inconclusive", False))
                continue
            worst = min(c for step, c in window if step <= last)
            checks.append((f"persistence N={N} beta={beta:g}: "
                           f"min C/C0 over t<=beta = {worst:.3f} >= {level}",
                           worst >= level))
    if len(cfg.beta_list) < 2:
        return rows, checks, diags
    b_lo, b_hi = min(cfg.beta_list), max(cfg.beta_list)
    horizon_lo, horizon_hi = (max(r["t"] for r in rows if r["beta"] == b) for b in (b_lo, b_hi))
    target = THRESHOLDS["half_life_ratio"]
    for N in cfg.N_list:
        lo_cell = diags[_point_key(("N", "beta"), (N, b_lo))]
        hi_cell = diags[_point_key(("N", "beta"), (N, b_hi))]
        if lo_cell["t_half"] is None:
            checks.append((f"half-life ratio N={N}: t_half(beta={b_lo:g}) "
                           f"not reached within horizon {horizon_lo:g}; inconclusive",
                           False))
            continue
        th_lo = lo_cell["t_half"]
        se_lo = lo_cell["t_half_stderr"] or 0.0
        if hi_cell["t_half"] is None:
            ratio_lb = horizon_hi / th_lo
            checks.append((f"half-life ratio N={N}: t_half(beta={b_hi:g}) > "
                           f"{horizon_hi:g}, t_half(beta={b_lo:g}) = "
                           f"{th_lo:.1f}; ratio > {ratio_lb:.2f} >= {target}",
                           ratio_lb >= target))
        else:
            th_hi = hi_cell["t_half"]
            se_hi = hi_cell["t_half_stderr"] or 0.0
            ratio = th_hi / th_lo
            se_ratio = ratio * math.sqrt((se_hi / th_hi) ** 2 + (se_lo / th_lo) ** 2)
            ok = ratio >= target or (target - ratio) <= se_ratio
            checks.append((f"half-life ratio N={N}: {th_hi:.1f}/{th_lo:.1f} = "
                           f"{ratio:.2f}+-{se_ratio:.2f} >= {target}", ok))
    return rows, checks, diags


# ------------------------------------------------------------------ lemma3-scan

def _lemma3_cell(cfg, seed, kind, N, beta):
    """Normalized variance sigma^2_f beta^s / (N |f|+^2) of one observable at
    one (N, beta); the variance bound asserts it stays below one constant."""
    table = _phi1_table(cfg, N) if kind == "Phi1" else None
    observable, s, plus_norm = ps_observable(kind, make_profile(cfg.profile), N, table)
    _, states, diag = _draw(cfg, seed.spawn(1)[0], N, beta)
    vals = np.array([observable(states[i]) for i in range(cfg.n_samples)])
    est = stats_mod.estimate_from_samples(vals)
    scale = beta**s / (N * plus_norm**2)
    row = {"kind": kind, "s": s, "N": N, "beta": beta, "n_samples": cfg.n_samples,
           "variance": est.variance, "variance_stderr": est.stderr_variance,
           "plus_norm": plus_norm, "normalized": est.variance * scale,
           "normalized_stderr": est.stderr_variance * scale}
    if table is not None:
        diag["min_denominator"] = table.min_denominator
    return [row], diag


def _lemma3_joint(cfg):
    if len(cfg.N_list) * len(cfg.beta_list) < 2:
        raise ConfigError("fields 'N_list' and 'beta_list': need at least two (N, beta) "
                          "points, or the band max/min of one value is 1 whatever it measures")
    if "Phi1" in cfg.kinds and not make_profile(cfg.profile).admissible:
        raise ConfigError("field 'profile': must be an admissible profile (g'(0) = 0) "
                          "when kinds include 'Phi1', whose corrector table needs it")


def _run_lemma3(cfg: ExperimentConfig, threads: int):
    rows, diags = _grid(_lemma3_cell, cfg, threads,
                        product(cfg.kinds, cfg.N_list, cfg.beta_list), ("kind", "N", "beta"))
    checks = []
    band = THRESHOLDS["lemma3_band"]
    for kind in cfg.kinds:
        vals = [r["normalized"] for r in rows if r["kind"] == kind]
        spread = max(vals) / min(vals) if min(vals) > 0 else math.inf
        checks.append((f"lemma3 band {kind}: max/min = {spread:.2f} <= {band}",
                       spread <= band))
    return rows, checks, diags


# ------------------------------------------------------------------- chebyshev

def _chebyshev_cell(cfg, seed, N, beta):
    """Empirical P(|Phi0(t) - Phi0| >= sigma beta^(-a/2)) at t = beta^(1-a),
    snapped to a whole step of dt; the row reports that step's time.

    Also returns the Chebyshev bound computed from the measured increment
    variance, which no distribution can beat beyond sampling noise.
    """
    a, n = cfg.a, cfg.n_samples
    step = int(_steps(beta ** (1.0 - a), cfg.dt))
    t = step * cfg.dt
    lam = beta ** (-a / 2.0)
    flow, diag = _phi0_flow(cfg, seed, N, beta, [0, step])
    before, after = flow[0]
    sigma0 = float(before.std())
    thr = lam * sigma0
    inc = after - before
    exceed = np.abs(inc) >= thr
    p_emp = float(exceed.mean())
    p_se = math.sqrt(max(p_emp * (1 - p_emp), 1e-300) / n)
    inc_est = stats_mod.estimate_from_samples(inc)
    row = {"N": N, "beta": beta, "a": a, "t": t, "threshold": thr, "n_samples": n,
           "empirical_prob": p_emp, "prob_stderr": p_se,
           "chebyshev_bound": inc_est.variance / thr**2,
           "bound_stderr": inc_est.stderr_variance / thr**2,
           "increment_variance": inc_est.variance, "sigma_phi0": sigma0}
    return [row], diag


def _run_chebyshev(cfg: ExperimentConfig, threads: int):
    rows, diags = _grid(_chebyshev_cell, cfg, threads)
    checks = []
    z = THRESHOLDS["cheb_z"]
    for r in rows:
        slack = z * math.sqrt(r["prob_stderr"] ** 2 + r["bound_stderr"] ** 2)
        ok = r["empirical_prob"] <= r["chebyshev_bound"] + slack
        checks.append((f"chebyshev bound N={r['N']} beta={r['beta']:g}: "
                       f"P = {r['empirical_prob']:.4f} <= {r['chebyshev_bound']:.4f} "
                       f"(+{slack:.4f})", ok))
    for N in cfg.N_list:
        sub = sorted((r for r in rows if r["N"] == N), key=lambda r: r["beta"])
        for prev, nxt in zip(sub, sub[1:]):
            slack = z * math.sqrt(prev["prob_stderr"] ** 2 + nxt["prob_stderr"] ** 2)
            ok = nxt["empirical_prob"] <= prev["empirical_prob"] + slack
            checks.append((f"exceedance non-increasing N={N}: "
                           f"P(beta={nxt['beta']:g}) = {nxt['empirical_prob']:.4f} <= "
                           f"P(beta={prev['beta']:g}) = {prev['empirical_prob']:.4f} "
                           f"(+{slack:.4f})", ok))
    return rows, checks, diags


# ----------------------------------------------------------------- multi-packet

def _multipacket_cell(cfg, seed, N, beta):
    """Joint drift statistics for K disjoint packets on shared trajectories,
    one row per packet.

    Measures each packet's exceedance rate at t = beta^(1-a), the joint
    rate that any packet exceeds (union-bound sanity), and each packet's
    normalized autocorrelation at t = beta/4.
    """
    a, n, K = cfg.a, cfg.n_samples, cfg.K
    lam = beta ** (-a / 2.0)
    drift_step, corr_step = _steps([beta ** (1.0 - a), beta / 4.0], cfg.dt).tolist()
    steps = sorted({0, drift_step, corr_step})
    i_drift = steps.index(drift_step)
    i_corr = steps.index(corr_step)
    flow, diag = _phi0_flow(cfg, seed, N, beta, steps)
    # std over axis 0 of a C-ordered (n, K) array: a 1-D std of one column
    # sums in another order, and the CSV bytes follow that sum
    v0 = np.ascontiguousarray(flow[:, 0].T)
    sigma = v0.std(axis=0)
    exceed = np.abs(flow[:, i_drift].T - v0) >= lam * sigma[None, :]
    rates = exceed.mean(axis=0)
    rate_se = np.sqrt(np.maximum(rates * (1 - rates), 1e-300) / n)
    joint = float(exceed.any(axis=1).mean())
    joint_se = math.sqrt(max(joint * (1 - joint), 1e-300) / n)
    corr_norm = np.empty(K)
    for l in range(K):
        c = np.cov(flow[l, 0], flow[l, i_corr], ddof=0)
        corr_norm[l] = c[0, 1] / c[0, 0]
    rows = [{"N": N, "beta": beta, "a": a, "K": K, "packet": l, "exceed_rate": rate,
             "exceed_stderr": rate_stderr, "joint_rate": joint, "joint_stderr": joint_se,
             "sum_individual": float(rates.sum()), "corr_quarter_beta": corr}
            for l, (rate, rate_stderr, corr) in enumerate(zip(
                rates.tolist(), rate_se.tolist(), corr_norm.tolist()))]
    return rows, diag


def _run_multipacket(cfg: ExperimentConfig, threads: int):
    rows, diags = _grid(_multipacket_cell, cfg, threads)
    checks = []
    level = THRESHOLDS["persistence_level"]
    for i in range(0, len(rows), cfg.K):    # K rows per cell
        cell = rows[i:i + cfg.K]
        r = cell[0]
        slack = THRESHOLDS["cheb_z"] * r["joint_stderr"]
        ok = r["joint_rate"] <= r["sum_individual"] + slack
        checks.append((f"union bound N={r['N']} beta={r['beta']:g}: joint = "
                       f"{r['joint_rate']:.4f} <= sum = {r['sum_individual']:.4f} "
                       f"(+{slack:.4f})", ok))
        worst = min(c["corr_quarter_beta"] for c in cell)
        checks.append((f"all {cfg.K} packets persist at t=beta/4, "
                       f"N={r['N']} beta={r['beta']:g}: min C/C0 = {worst:.3f} "
                       f">= {level}", worst >= level))
    return rows, checks, diags


# ------------------------------------------------------------------ theorem2-h1

@functools.cache
def _cached_profile(label: str) -> NuProfile:
    """A profile from its CSV label (sorted-key JSON), built once per process
    however many grid cells evaluate it: a poly_x2 profile finds its c2 from
    polynomial roots, which costs about as much as a 256-grid cell's h1."""
    return make_profile(json.loads(label))


def _h1_cell(cfg, seed, grid):
    """h1 at one grid of the family, and of the divergence profile at the
    smallest and the largest grid, from one eval_h1 call: one row per
    profile, and the call's wall time with the labels of the profiles it
    covered."""
    specs = cfg.profiles
    if grid in (min(cfg.grid_sizes), max(cfg.grid_sizes)):
        specs = [*specs, cfg.divergence_profile]
    labels = [json.dumps(spec, sort_keys=True) for spec in specs]
    profs = [_cached_profile(label) for label in labels]
    start = time.perf_counter()
    results = eval_h1(profs, grid)
    eval_s = time.perf_counter() - start
    # the divergence profile's h1 is read against no bound: its ratio is NaN
    rows = [{"profile": label, "admissible": prof.admissible, "grid": grid,
             "h1": res.value, "c0": prof.c0, "c2": prof.c2,
             "ratio": res.value / (prof.c0 + prof.c2) if i < len(cfg.profiles) else math.nan,
             "min_denominator": res.min_denominator}
            for i, (label, prof, res) in enumerate(zip(labels, profs, results))]
    return rows, {"eval_s": eval_s, "profiles": labels}


def _run_theorem2(cfg: ExperimentConfig, threads: int):
    grids = sorted(cfg.grid_sizes)
    rows, timings = _grid(_h1_cell, cfg, threads, [(g,) for g in grids], ("grid",))
    # the cells' rows are grid-major; the CSV's are profile-major: each family
    # profile at its grids in ascending order, then the divergence profile
    labels = [json.dumps(spec, sort_keys=True) for spec in cfg.profiles]
    order = {label: i for i, label in enumerate(labels)}
    rows.sort(key=lambda r: order.get(r["profile"], len(labels)))
    ratios_at = {(r["profile"], r["grid"]): r["ratio"] for r in rows[:-2]}
    checks = []
    stab_pair = [g for g in grids if g >= 1024][:2]
    if len(stab_pair) == 2:
        for label in labels:
            r1, r2 = (ratios_at[(label, g)] for g in stab_pair)
            drift = abs(r2 - r1) / r1
            checks.append((f"h1 ratio stable {label} grids {stab_pair[0]}->{stab_pair[1]}: "
                           f"drift {drift:.3%} <= {THRESHOLDS['h1_stability']:.0%}",
                           drift <= THRESHOLDS["h1_stability"]))
    ref = stab_pair[0] if stab_pair else grids[-1]
    family_const = max(v for (_, g), v in ratios_at.items() if g == ref)
    checks.append((f"family-wide constant on {ref}-grid: "
                   f"max h1/(c0+c2) = {family_const:.3f} finite", math.isfinite(family_const)))
    growth = rows[-1]["h1"] / rows[-2]["h1"]
    checks.append((f"divergence for g'(0) != 0: h1({grids[-1]})/h1({grids[0]}) = {growth:.2f} "
                   f">= {THRESHOLDS['h1_divergence']}",
                   growth >= THRESHOLDS["h1_divergence"]))
    return rows, checks, {"family_constant": family_const, "grids": timings}


# ------------------------------------------------------------ sampler-validation

def _sampler_cell(cfg, seed, check, N, beta):
    """One check of the sampler at one N: a new sampler on `seed`, its bonds
    read after each of the check's decorrelated draws, and one row per
    quantity with its mean over the draws against its exact finite-N value.
    The moments check adds the largest |sum r| over its draws."""
    sampler = GibbsSampler(ChainParams(N=N, A=cfg.A, beta=beta), seed)
    exact, r0_r1 = constrained_moments(beta, cfg.A, N)
    labels = [f"<r^{n}>" for n in range(1, 5)] + ["<r0 r1>"]
    refs = [*exact[1:], r0_r1]
    if check == "moments":    # r0, ..., r0^4 and |sum r| per draw
        n, labels, refs = cfg.n_samples, labels[:4], refs[:4]
        read = lambda r: (r[0], r[0]**2, r[0]**3, r[0]**4, abs(float(r.sum())))
    elif check == "slab":    # at small N the exact marginal is furthest from the one-bond moments
        n = cfg.slab_samples
        read = lambda r: (r[0], r[0]**2, r[0]**3, r[0]**4, r[0] * r[1])
    else:
        # disjoint-site covariance averaged over site pairs (valid by
        # exchangeability; single-site means vanish exactly on the constraint)
        n, labels, refs = cfg.lemma5_samples, ["disjoint-site cov"], [r0_r1]
        m = (N + 1) // 2 * 2
        read = lambda r: float((r[0:m:2] * r[1:m:2]).mean())
    out = []
    for _ in range(n):
        sampler.sweep(sampler.stride)
        out.append(read(sampler.r))
    draws = np.array(out).reshape(n, -1)
    rows = []
    for column, label, ref in zip(draws.T, labels, refs):
        est = stats_mod.estimate_from_samples(column)
        z = (est.mean - float(ref)) / est.stderr_mean if est.stderr_mean > 0 else math.inf
        rows.append({"check": check, "N": N, "beta": beta, "quantity": label, "value": est.mean,
                     "stderr": est.stderr_mean, "reference": float(ref), "z": z})
    if check == "moments":
        worst_sum = float(draws[:, 4].max())
        tol = THRESHOLDS["sum_r_tol"] * (N + 1)
        rows.append({"check": check, "N": N, "beta": beta, "quantity": "max|sum r|",
                     "value": worst_sum, "stderr": 0.0, "reference": tol,
                     "z": worst_sum / tol})
    return rows, sampler.diagnostics()


def _run_sampler_validation(cfg: ExperimentConfig, threads: int):
    beta = cfg.beta_list[0]
    names = ("check", "N", "beta")
    # one cell per enabled check and N, in a fixed order that numbers their streams
    points = [(check, N, beta) for check, Ns in (("moments", [cfg.moments_N]),
                                                 ("slab", [cfg.slab_N]),
                                                 ("lemma5", cfg.lemma5_N))
              if check in cfg.checks for N in Ns]
    rows, diags = _grid(_sampler_cell, cfg, threads, points, names)
    checks = []
    zmax = THRESHOLDS["moment_z"]
    for r in rows:
        if r["quantity"] == "max|sum r|":
            checks.append((f"constraint |sum r| max = {r['value']:.2e} <= {r['reference']:.2e}",
                           r["value"] <= r["reference"]))
            lo, hi = THRESHOLDS["acceptance_band"]
            acc = diags[_point_key(names, ("moments", r["N"], beta))]["acceptance_rate"]
            checks.append((f"acceptance rate {acc:.3f} in [{lo}, {hi}]", lo <= acc <= hi))
        elif r["check"] != "lemma5":
            name = "site moment" if r["check"] == "moments" else "slab reference"
            checks.append((f"{name} {r['quantity']} N={r['N']}: z = {r['z']:+.2f} "
                           f"within {zmax:g}", abs(r["z"]) <= zmax))
    if "lemma5" in cfg.checks:
        covs = {r["N"]: (r["value"], r["stderr"]) for r in rows if r["check"] == "lemma5"}
        n_lo, n_hi = min(cfg.lemma5_N), max(cfg.lemma5_N)
        c_lo, se_lo = covs[n_lo]
        c_hi, se_hi = covs[n_hi]
        shrink = THRESHOLDS["lemma5_shrink"]
        slack = zmax * math.sqrt(se_hi**2 + (shrink * se_lo) ** 2)
        ok = abs(c_hi) <= shrink * abs(c_lo) + slack
        checks.append((f"lemma5 trend: |cov(N={n_hi})| = {abs(c_hi):.3e} <= "
                       f"{shrink} |cov(N={n_lo})| = {shrink * abs(c_lo):.3e} "
                       f"(+{slack:.1e})", ok))
    return rows, checks, diags


def _sampler_joint(cfg):
    for check, keys in (("moments", ("n_samples", "moments_N")),
                        ("slab", ("slab_N", "slab_samples")),
                        ("lemma5", ("lemma5_N", "lemma5_samples"))):
        unread = [key for key in keys if key in cfg.raw and check not in cfg.checks]
        if unread:
            raise ConfigError(f"field {unread[0]!r}: unread, since only the {check!r} check "
                              f"reads it and 'checks' leaves that out")


# -------------------------------------------------------------------- registry

EXPERIMENTS: dict[str, ExperimentSpec] = {
    "homological": ExperimentSpec(
        "machine-precision residual of the corrector equation",
        {"N_list": Key([31], _N_LIST), "beta_list": Key([100.0], _BETAS), "A": _A,
         "n_samples": Key(100, _COUNT),
         "profile": Key({"kind": "constant", "value": 1.0}, _admissible)},
        ("N", "beta", "n_samples", "max_residual", "mean_residual", "min_denominator"),
        _run_homological),
    "ratio-scaling": ExperimentSpec(
        "drift-to-spread ratio and corrector-size slopes vs beta",
        {"N_list": Key([127], _N_LIST),
         "beta_list": Key([25.0, 50.0, 100.0, 200.0],
                          _list(_positive, distinct=3, repeats=False)),
         "A": _A,
         "n_samples": Key(4000, _COUNT), "profile": Key(RATIO_PROFILE_SPEC, _admissible)},
        ("N", "beta", "n_samples", "phidot_norm", "phidot_stderr", "sigma_phi",
         "sigma_phi_stderr", "ratio", "sigma_phi0", "sigma_phi1", "ratio_phi1_phi0"),
        _run_ratio),
    "autocorrelation": ExperimentSpec(
        "packet-energy autocorrelation persistence and half-life scaling",
        {"N_list": Key([127], _N_LIST), "beta_list": Key([50.0, 100.0, 200.0], _BETAS),
         "A": _A, "n_samples": Key(384, _COUNT),
         "profile": Key(DEFAULT_PROFILE_SPEC, _admissible), "dt": _DT,
         "t_grid": Key(None, _t_grid), "horizon_factor": Key(6.5, _positive),
         "persistence_betas": Key([100.0], _list(_positive))},
        ("N", "beta", "t", "corr", "corr_stderr", "corr_normalized",
         "corr_normalized_stderr", "sigma2"),
        _run_autocorr, _autocorr_joint),
    "lemma3-scan": ExperimentSpec(
        "normalized variance band over (N, beta) for P_s observables",
        {"N_list": Key([63, 127, 255], _N_LIST),
         "beta_list": Key([50.0, 100.0, 200.0], _BETAS), "A": _A,
         "n_samples": Key(600, _COUNT), "profile": Key(DEFAULT_PROFILE_SPEC, _profile),
         "kinds": Key(["Phi0", "H1", "Phi1"],
                      _list(_one_of("Phi0", "H1", "Phi1"), repeats=False))},
        ("kind", "s", "N", "beta", "n_samples", "variance", "variance_stderr",
         "plus_norm", "normalized", "normalized_stderr"),
        _run_lemma3, _lemma3_joint),
    "chebyshev": ExperimentSpec(
        "exceedance probability of packet drift vs the Chebyshev bound",
        {"N_list": Key([127], _N_LIST), "beta_list": Key([50.0, 100.0, 200.0], _BETAS),
         "A": _A, "n_samples": Key(1500, _COUNT),
         "profile": Key(CHEBYSHEV_PROFILE_SPEC, _admissible), "dt": _DT,
         "a": _DRIFT_EXPONENT},
        ("N", "beta", "a", "t", "threshold", "n_samples", "empirical_prob",
         "prob_stderr", "chebyshev_bound", "bound_stderr", "increment_variance",
         "sigma_phi0"),
        _run_chebyshev,
        lambda cfg: _whole_steps("beta_list", [b ** (1.0 - cfg.a) for b in cfg.beta_list],
                                 cfg.dt)),
    "multi-packet": ExperimentSpec(
        "joint drift and persistence of K disjoint packets",
        {"N_list": Key([127], _N_LIST), "beta_list": Key([100.0], _BETAS), "A": _A,
         "n_samples": Key(400, _COUNT), "dt": _DT, "a": _DRIFT_EXPONENT,
         "K": Key(4, _int(1, 16))},
        ("N", "beta", "a", "K", "packet", "exceed_rate", "exceed_stderr",
         "joint_rate", "joint_stderr", "sum_individual", "corr_quarter_beta"),
        _run_multipacket,
        lambda cfg: _whole_steps("beta_list", [t for b in cfg.beta_list
                                               for t in (b ** (1.0 - cfg.a), b / 4.0)],
                                 cfg.dt)),
    "theorem2-h1": ExperimentSpec(
        "h1/(c0+c2) bounded on the admissible family, divergent for g(x)=x",
        {"grid_sizes": Key([256, 1024, 2048, 4096], _h1_grids),
         "profiles": Key(THEOREM2_FAMILY, _h1_family),
         "divergence_profile": Key({"kind": "linear"}, _divergent)},
        ("profile", "admissible", "grid", "h1", "c0", "c2", "ratio", "min_denominator"),
        _run_theorem2),
    "sampler-validation": ExperimentSpec(
        "constrained-sampler marginals and covariance vs exact finite-N moments, 1/N covariance trend",
        {"beta_list": Key([100.0], _list(_positive, longest=1)), "A": _A,
         "n_samples": Key(10000, _COUNT),
         "moments_N": Key(128, _int(3)), "slab_N": Key(8, _int(3)),
         "lemma5_N": Key([64, 256], _list(_int(3), distinct=2, repeats=False)),
         "lemma5_samples": Key(20000, _COUNT), "slab_samples": Key(8000, _COUNT),
         "checks": Key(["moments", "slab", "lemma5"],
                       _list(_one_of("moments", "slab", "lemma5"), repeats=False))},
        ("check", "N", "beta", "quantity", "value", "stderr", "reference", "z"),
        _run_sampler_validation, _sampler_joint),
}


def experiment_schema() -> dict:
    """Per experiment: description, accepted config keys, their defaults and the
    CSV columns.  `list-experiments` prints this, and csv_schema.json is it."""
    return {name: {"description": spec.description,
                   "config_keys": sorted({"experiment", "seed", *spec.keys}),
                   "defaults": {key: k.default for key, k in spec.keys.items()},
                   "csv_columns": list(spec.columns)}
            for name, spec in EXPERIMENTS.items()}


def _write_csv(path: Path, columns, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).parent, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):    # no git, or it timed out
        pass
    return "unknown"


def run(cfg: ExperimentConfig, out_dir: str | Path, threads: int = 1) -> int:
    """Execute an experiment; write CSV, metadata JSON and PASS/FAIL summary.

    Returns 0 when every check passes, 1 otherwise; a run in which no check
    ran fails.  BlowupError, ThetaSolveError and PacketError propagate after
    the metadata file records them under "failure" (no CSV, no summary); the
    CLI reports them with exit code 3.
    """
    spec = EXPERIMENTS[cfg.experiment]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = cfg.experiment

    def write_metadata(**entries):
        metadata = {"experiment": cfg.experiment, "config": cfg.raw,
                    "thresholds": dict(THRESHOLDS), **entries, "build": _git_describe(),
                    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
        (out / f"{base}_metadata.json").write_text(json.dumps(metadata, indent=2,
                                                              default=str) + "\n")

    t0 = time.time()
    try:
        rows, checks, diags = spec.compute(cfg, threads)
    except NUMERICAL_FAILURES as exc:
        write_metadata(failure={"exception": type(exc).__name__, "message": str(exc)})
        raise
    wall = time.time() - t0
    _write_csv(out / f"{base}_results.csv", spec.columns, rows)
    if "beta_list" in spec.keys:    # the experiment samples the Gibbs measure
        tilted = {}
        for beta in cfg.beta_list:
            td = tilted_density(beta, cfg.A)
            tilted[f"beta={beta:g}"] = {"theta": td.theta, "q_theta": td.q_theta,
                                        "moments": td.moments.tolist()}
        diags = {**diags, "tilted_density": tilted}
    write_metadata(diagnostics=diags, wall_time_seconds=wall)
    if not checks:
        checks = [("no check ran", False)]
    all_ok = all(ok for _, ok in checks)
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks]
    lines.append(f"{'PASS' if all_ok else 'FAIL'}  overall: {base}")
    (out / f"{base}_summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    if not all_ok:
        first = next(name for name, ok in checks if not ok)
        print(f"first failing criterion: {first}", file=sys.stderr)
    return 0 if all_ok else 1


def list_experiments() -> str:
    lines = ['Every config sets "experiment" and "seed"; an experiment accepts '
             'only the keys listed under it.']
    for name, entry in experiment_schema().items():
        lines.append(f"{name}: {entry['description']}")
        lines.append(f"  keys and defaults: {json.dumps(entry['defaults'], sort_keys=True)}")
        lines.append(f"  csv columns: {', '.join(entry['csv_columns'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpu-packets",
        description="FPU packet-invariant experiments: run, validate, list")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("results"))
    p_run.add_argument("--threads", type=int, default=1)
    p_val = sub.add_parser("validate", help="validate a JSON config")
    p_val.add_argument("config", type=Path)
    sub.add_parser("list-experiments",
                   help="list experiments, their keys, defaults and schemas")
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "run" and args.threads < 1:
        print(f"usage error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 2
    if args.command == "list-experiments":
        print(list_experiments())
        return 0
    try:
        text = args.config.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = validate_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"valid config for experiment {cfg.experiment!r}")
        return 0
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg, args.out, threads=args.threads)
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
