"""Experiment runner: JSON config in, CSV + JSON metadata + PASS/FAIL summary out.

Each experiment is one ExperimentSpec in EXPERIMENTS: its description, the
config keys its code reads (each with a default and a validator), its CSV
columns and the function that computes its rows, checks and diagnostics.  A
config may set `experiment`, `seed` and its experiment's keys, nothing else.

Every experiment's PASS thresholds live in THRESHOLDS, which the acceptance
test suite imports, so there is a single source of truth.  (config, seed)
determines every output byte except the timestamps in the metadata file:
per-cell seeds are derived from the master seed by index, and results are
reduced in cell order no matter how many workers run.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import count, product
from pathlib import Path
from types import SimpleNamespace
from typing import Any, NamedTuple

import numpy as np

from . import packet as packet_mod
from . import profiles as profiles_mod
from . import stats as stats_mod
from .chain import ChainParams, DEFAULT_DT
from .gibbs import (GibbsSampler, make_tilted_density, slab_rejection_bonds,
                    solve_theta, tilted_moments)
from .packet import build_phi1_table, homological_residual, make_ps_test
from .profiles import DEFAULT_PROFILE_SPEC, eval_h1, make_profile

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


def _list(item, distinct: int = 1, longest: int | None = None):
    """A non-empty list whose entries pass `item`, with at least `distinct`
    different entries and at most `longest` entries."""
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
        return out
    return check


def _profile(v):
    make_profile(v)
    return v


def _t_grid(v):
    if v is None:
        return None
    grid = _list(_real(lambda t: t >= 0, "a number >= 0"))(v)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"must be strictly ascending, got {v!r}")
    return grid


_positive = _real(lambda v: v > 0, "a number > 0")
_N_LIST = _list(_int(3))
_BETAS = _list(_positive)
_COUNT = _int(2)


class Key(NamedTuple):
    default: Any
    check: Callable[[Any], Any]


_A = Key(1.0, _positive)
_DT = Key(DEFAULT_DT, _positive)
_DRIFT_EXPONENT = Key(0.4, _real(lambda v: 0.0 <= v <= 0.5, "a number in [0, 1/2]"))


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: the config keys its code reads, its CSV columns, and
    `compute(cfg, threads) -> (rows, checks, diagnostics)`."""

    description: str
    keys: dict[str, Key]
    columns: tuple[str, ...]
    compute: Callable


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config; a key its experiment does not read is
    an error."""
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
    return ExperimentConfig(experiment=name, raw=data, **values)


def _cell_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def _run_cell(job):
    cell, cfg, index, point = job
    return cell(cfg, _cell_seed(cfg.seed, index), *point)


def _grid(cell, cfg: ExperimentConfig, threads: int, axes=None) -> list:
    """`cell(cfg, seed_sequence, *point)` for every point of the product of
    `axes` (default N_list x beta_list), in order; cell i is seeded by index i,
    so the results do not depend on `threads`."""
    axes = (cfg.N_list, cfg.beta_list) if axes is None else axes
    jobs = [(cell, cfg, i, point) for i, point in enumerate(product(*axes))]
    if threads <= 1 or len(jobs) < 2:
        return [_run_cell(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_run_cell, jobs))


# ---------------------------------------------------------------- homological

def _homological_cell(cfg, seed, N, beta):
    rng = np.random.default_rng(seed)
    pk = build_phi1_table(make_profile(cfg.profile), N)
    sampler = GibbsSampler(ChainParams(N=N, A=cfg.A, beta=beta), rng)
    res = np.array([homological_residual(sampler.sample().state, pk)
                    for _ in range(cfg.n_samples)])
    row = {"N": N, "beta": beta, "n_samples": cfg.n_samples,
           "max_residual": float(res.max()), "mean_residual": float(res.mean()),
           "min_denominator": pk.min_denominator}
    return row, sampler.diagnostics()


def _run_homological(cfg: ExperimentConfig, threads: int):
    cells = _grid(_homological_cell, cfg, threads)
    rows = [row for row, _ in cells]
    checks = []
    for r in rows:
        ok = r["max_residual"] <= THRESHOLDS["homological_residual"]
        checks.append((f"homological residual N={r['N']} beta={r['beta']:g} "
                       f"max={r['max_residual']:.3e} <= {THRESHOLDS['homological_residual']:g}",
                       ok))
    return rows, checks, {f"cell{i}": diag for i, (_, diag) in enumerate(cells)}


# --------------------------------------------------------------- ratio-scaling

def _ratio_cell(cfg, seed, N, beta):
    pk = build_phi1_table(make_profile(cfg.profile), N)
    res = stats_mod.ratio_theorem1(pk, ChainParams(N=N, A=cfg.A, beta=beta),
                                   cfg.n_samples, np.random.default_rng(seed))
    return {"N": N, "beta": beta, "n_samples": cfg.n_samples,
            "phidot_norm": res.phidot_norm, "phidot_stderr": res.phidot_norm_stderr,
            "sigma_phi": res.sigma_phi, "sigma_phi_stderr": res.sigma_phi_stderr,
            "ratio": res.ratio, "sigma_phi0": res.sigma_phi0,
            "sigma_phi1": res.sigma_phi1, "ratio_phi1_phi0": res.ratio_phi1_phi0}


def _run_ratio(cfg: ExperimentConfig, threads: int):
    rows = _grid(_ratio_cell, cfg, threads)
    checks = []
    lo, hi = THRESHOLDS["ratio_slope"]
    lo2, hi2 = THRESHOLDS["phi1_phi0_slope"]
    for N in cfg.N_list:
        sub = [r for r in rows if r["N"] == N]
        betas = [r["beta"] for r in sub]
        s, se = stats_mod.fit_power_law(betas, [r["ratio"] for r in sub])
        checks.append((f"ratio slope N={N}: {s:.3f}+-{se:.3f} in [{lo}, {hi}]",
                       lo <= s <= hi))
        s2, se2 = stats_mod.fit_power_law(betas, [r["ratio_phi1_phi0"] for r in sub])
        checks.append((f"sigma_phi1/sigma_phi0 slope N={N}: {s2:.3f}+-{se2:.3f} "
                       f"in [{lo2}, {hi2}]", lo2 <= s2 <= hi2))
    return rows, checks, {}


# -------------------------------------------------------------- autocorrelation

def _autocorr_cell(cfg, seed, N, beta):
    rng = np.random.default_rng(seed)
    pk = build_phi1_table(make_profile(cfg.profile), N)
    sampler = GibbsSampler(ChainParams(N=N, A=cfg.A, beta=beta), rng)
    states = sampler.sample_states(cfg.n_samples)
    if cfg.t_grid is not None:
        grid = np.asarray(cfg.t_grid, dtype=float)
        horizon = float(grid.max())
    else:
        horizon = cfg.horizon_factor * beta
        near = np.linspace(0.0, min(beta, horizon), 11)
        far = np.linspace(min(beta, horizon), horizon, 18)[1:]
        grid = np.unique(np.concatenate([near, far]))
    curve = stats_mod.autocorrelation(lambda s: packet_mod.phi0(s, pk), states,
                                      ChainParams(N=N, A=cfg.A, beta=beta), cfg.dt, grid)
    t_half, t_half_se = stats_mod.half_life_jackknife(curve)
    rows = [{"N": N, "beta": beta, "t": float(t), "corr": float(c),
             "corr_stderr": float(se), "corr_normalized": float(v),
             "corr_normalized_stderr": float(vs), "sigma2": curve.sigma2}
            for t, c, se, v, vs in zip(curve.times, curve.values, curve.stderrs,
                                       curve.normalized, curve.normalized_stderrs)]
    return {"rows": rows, "N": N, "beta": beta, "horizon": horizon,
            "t_half": t_half, "t_half_stderr": t_half_se,
            "diag": sampler.diagnostics()}


def _run_autocorr(cfg: ExperimentConfig, threads: int):
    results = _grid(_autocorr_cell, cfg, threads)
    rows = [r for res in results for r in res["rows"]]
    checks = []
    level = THRESHOLDS["persistence_level"]
    for res in results:
        if res["beta"] in cfg.persistence_betas:
            within = [r for r in res["rows"] if r["t"] <= res["beta"] + 1e-9]
            worst = min(r["corr_normalized"] for r in within)
            checks.append((f"persistence N={res['N']} beta={res['beta']:g}: "
                           f"min C/C0 over t<=beta = {worst:.3f} >= {level}",
                           worst >= level))
    for N in cfg.N_list:
        sub = [r for r in results if r["N"] == N]
        if len(sub) < 2:
            continue
        lo_cell = min(sub, key=lambda r: r["beta"])
        hi_cell = max(sub, key=lambda r: r["beta"])
        target = THRESHOLDS["half_life_ratio"]
        if lo_cell["t_half"] is None:
            checks.append((f"half-life ratio N={N}: t_half(beta={lo_cell['beta']:g}) "
                           f"not reached within horizon {lo_cell['horizon']:g}; inconclusive",
                           False))
            continue
        th_lo = lo_cell["t_half"]
        se_lo = lo_cell["t_half_stderr"] or 0.0
        if hi_cell["t_half"] is None:
            ratio_lb = hi_cell["horizon"] / th_lo
            checks.append((f"half-life ratio N={N}: t_half(beta={hi_cell['beta']:g}) > "
                           f"{hi_cell['horizon']:g}, t_half(beta={lo_cell['beta']:g}) = "
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
    diags = {f"N={r['N']},beta={r['beta']:g}":
             {"t_half": r["t_half"], "t_half_stderr": r["t_half_stderr"], **r["diag"]}
             for r in results}
    return rows, checks, diags


# ------------------------------------------------------------------ lemma3-scan

def _lemma3_cell(cfg, seed, kind, N, beta):
    prof = make_profile(cfg.profile) if kind != "H1" else None
    fn = make_ps_test(kind, prof, N)
    return stats_mod.lemma3_scan(fn, [N], [beta], cfg.n_samples, seed=seed, A=cfg.A)[0]


def _run_lemma3(cfg: ExperimentConfig, threads: int):
    rows = _grid(_lemma3_cell, cfg, threads, axes=(cfg.kinds, cfg.N_list, cfg.beta_list))
    checks = []
    band = THRESHOLDS["lemma3_band"]
    for kind in cfg.kinds:
        vals = [r["normalized"] for r in rows if r["kind"] == kind]
        spread = max(vals) / min(vals) if min(vals) > 0 else math.inf
        checks.append((f"lemma3 band {kind}: max/min = {spread:.2f} <= {band}",
                       spread <= band))
    return rows, checks, {}


# ------------------------------------------------------------------- chebyshev

def _chebyshev_cell(cfg, seed, N, beta):
    pk = build_phi1_table(make_profile(cfg.profile), N)
    return stats_mod.chebyshev_experiment(pk, ChainParams(N=N, A=cfg.A, beta=beta),
                                          cfg.a, cfg.n_samples,
                                          np.random.default_rng(seed), dt=cfg.dt)


def _run_chebyshev(cfg: ExperimentConfig, threads: int):
    rows = _grid(_chebyshev_cell, cfg, threads)
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
    return rows, checks, {}


# ----------------------------------------------------------------- multi-packet

def _multipacket_cell(cfg, seed, N, beta):
    packs = [build_phi1_table(p, N) for p in profiles_mod.disjoint_profiles(cfg.K)]
    return stats_mod.multi_packet_experiment(packs, ChainParams(N=N, A=cfg.A, beta=beta),
                                             cfg.a, cfg.n_samples,
                                             np.random.default_rng(seed), dt=cfg.dt)


def _run_multipacket(cfg: ExperimentConfig, threads: int):
    results = _grid(_multipacket_cell, cfg, threads)
    rows = []
    checks = []
    level = THRESHOLDS["persistence_level"]
    for res in results:
        for l in range(res["K"]):
            rows.append({"N": res["N"], "beta": res["beta"], "a": res["a"],
                         "K": res["K"], "packet": l,
                         "exceed_rate": res["rates"][l],
                         "exceed_stderr": res["rate_stderrs"][l],
                         "joint_rate": res["joint_rate"],
                         "joint_stderr": res["joint_stderr"],
                         "sum_individual": res["sum_individual"],
                         "corr_quarter_beta": res["corr_quarter_beta"][l]})
        slack = THRESHOLDS["cheb_z"] * res["joint_stderr"]
        ok = res["joint_rate"] <= res["sum_individual"] + slack
        checks.append((f"union bound N={res['N']} beta={res['beta']:g}: joint = "
                       f"{res['joint_rate']:.4f} <= sum = {res['sum_individual']:.4f} "
                       f"(+{slack:.4f})", ok))
        worst = min(res["corr_quarter_beta"])
        checks.append((f"all {res['K']} packets persist at t=beta/4, "
                       f"N={res['N']} beta={res['beta']:g}: min C/C0 = {worst:.3f} "
                       f">= {level}", worst >= level))
    return rows, checks, {}


# ------------------------------------------------------------------ theorem2-h1

def _run_theorem2(cfg: ExperimentConfig, threads: int):
    rows = []
    checks = []
    grids = sorted(cfg.grid_sizes)
    stab_pair = [g for g in grids if g >= 1024][:2]
    ratios_at = {}
    for spec in cfg.profiles:
        prof = make_profile(spec)
        label = json.dumps(spec, sort_keys=True)
        denom = prof.c0 + prof.c2
        for g in grids:
            res = eval_h1(prof, g)
            rows.append({"profile": label, "admissible": prof.admissible, "grid": g,
                         "h1": res.value, "c0": prof.c0, "c2": prof.c2,
                         "ratio": res.value / denom,
                         "min_denominator": res.min_denominator})
            ratios_at[(label, g)] = res.value / denom
        if len(stab_pair) == 2:
            r1 = ratios_at[(label, stab_pair[0])]
            r2 = ratios_at[(label, stab_pair[1])]
            drift = abs(r2 - r1) / r1
            checks.append((f"h1 ratio stable {label} grids {stab_pair[0]}->{stab_pair[1]}: "
                           f"drift {drift:.3%} <= {THRESHOLDS['h1_stability']:.0%}",
                           drift <= THRESHOLDS["h1_stability"]))
    family_const = max(v for (lbl, g), v in ratios_at.items() if g == stab_pair[0]) \
        if stab_pair else max(ratios_at.values())
    checks.append((f"family-wide constant on {stab_pair[0] if stab_pair else grids[-1]}-grid: "
                   f"max h1/(c0+c2) = {family_const:.3f} finite", math.isfinite(family_const)))

    div = make_profile(cfg.divergence_profile)
    g_lo, g_hi = grids[0], grids[-1]
    res_lo = eval_h1(div, g_lo)
    res_hi = eval_h1(div, g_hi)
    label = json.dumps(cfg.divergence_profile, sort_keys=True)
    for g, res in ((g_lo, res_lo), (g_hi, res_hi)):
        rows.append({"profile": label, "admissible": div.admissible, "grid": g,
                     "h1": res.value, "c0": div.c0, "c2": div.c2, "ratio": math.nan,
                     "min_denominator": res.min_denominator})
    growth = res_hi.value / res_lo.value
    checks.append((f"divergence for g'(0) != 0: h1({g_hi})/h1({g_lo}) = {growth:.2f} "
                   f">= {THRESHOLDS['h1_divergence']}",
                   growth >= THRESHOLDS["h1_divergence"]))
    return rows, checks, {"family_constant": family_const}


# ------------------------------------------------------------ sampler-validation

def _run_sampler_validation(cfg: ExperimentConfig, threads: int):
    rows = []
    checks = []
    diags = {}
    zmax = THRESHOLDS["moment_z"]
    # streams are numbered in the order the enabled checks take them
    rngs = (np.random.default_rng(_cell_seed(cfg.seed, i)) for i in count())
    if "moments" in cfg.checks:
        N = cfg.moments_N
        beta = cfg.beta_list[0]
        params = ChainParams(N=N, A=cfg.A, beta=beta)
        theta = solve_theta(beta, cfg.A)
        td = make_tilted_density(beta, cfg.A, theta)
        sampler = GibbsSampler(params, next(rngs))
        site = np.empty((cfg.n_samples, 4))
        worst_sum = 0.0
        for i in range(cfg.n_samples):
            sampler.sweep(sampler.stride)
            r0 = sampler.r[0]
            worst_sum = max(worst_sum, abs(float(sampler.r.sum())))
            site[i] = [r0, r0**2, r0**3, r0**4]
        diags[f"moments N={N} beta={beta:g}"] = {"theta": theta, "q_theta": td.q_gamma,
                                                 **sampler.diagnostics()}
        for n in range(1, 5):
            est = stats_mod.estimate_from_samples(site[:, n - 1])
            oracle = tilted_moments(td, n)
            z = (est.mean - oracle) / est.stderr_mean
            rows.append({"check": "moments", "N": N, "beta": beta,
                         "quantity": f"<r^{n}>", "value": est.mean,
                         "stderr": est.stderr_mean, "reference": oracle, "z": z})
            checks.append((f"site moment <r^{n}> N={N}: z = {z:+.2f} within {zmax:g}",
                           abs(z) <= zmax))
        tol = THRESHOLDS["sum_r_tol"] * (N + 1)
        rows.append({"check": "moments", "N": N, "beta": beta, "quantity": "max|sum r|",
                     "value": worst_sum, "stderr": 0.0, "reference": tol,
                     "z": worst_sum / tol})
        checks.append((f"constraint |sum r| max = {worst_sum:.2e} <= {tol:.2e}",
                       worst_sum <= tol))
        lo, hi = THRESHOLDS["acceptance_band"]
        acc = sampler.acceptance_rate
        checks.append((f"acceptance rate {acc:.3f} in [{lo}, {hi}]", lo <= acc <= hi))

    if "slab" in cfg.checks:
        N = cfg.slab_N
        beta = cfg.beta_list[0]
        params = ChainParams(N=N, A=cfg.A, beta=beta)
        sampler = GibbsSampler(params, next(rngs))
        mc = np.empty((cfg.slab_samples, 5))
        for i in range(cfg.slab_samples):
            sampler.sweep(sampler.stride)
            r0 = sampler.r[0]
            mc[i] = [r0, r0**2, r0**3, r0**4, r0 * sampler.r[1]]
        ref = slab_rejection_bonds(next(rngs), params, cfg.slab_samples)
        ref_cols = [ref[:, 0] ** n for n in range(1, 5)] + [ref[:, 0] * ref[:, 1]]
        labels = [f"<r^{n}>" for n in range(1, 5)] + ["<r0 r1>"]
        for col, (mc_col, lab) in enumerate(zip(mc.T, labels)):
            est = stats_mod.estimate_from_samples(mc_col)
            est_ref = stats_mod.estimate_from_samples(ref_cols[col])
            se = math.sqrt(est.stderr_mean**2 + est_ref.stderr_mean**2)
            z = (est.mean - est_ref.mean) / se
            rows.append({"check": "slab", "N": N, "beta": beta,
                         "quantity": lab, "value": est.mean,
                         "stderr": se, "reference": est_ref.mean, "z": z})
            checks.append((f"slab reference {lab} N={N}: z = {z:+.2f} within {zmax:g}",
                           abs(z) <= zmax))

    if "lemma5" in cfg.checks:
        beta = cfg.beta_list[0]
        covs = {}
        for N in cfg.lemma5_N:
            params = ChainParams(N=N, A=cfg.A, beta=beta)
            cov, se = _disjoint_pair_covariance(next(rngs), params, cfg.lemma5_samples)
            covs[N] = (cov, se)
            rows.append({"check": "lemma5", "N": N, "beta": beta,
                         "quantity": "disjoint-site cov", "value": cov,
                         "stderr": se, "reference": 0.0,
                         "z": cov / se if se > 0 else math.inf})
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


def _disjoint_pair_covariance(rng, params: ChainParams, n_samples: int
                              ) -> tuple[float, float]:
    """Disjoint-site covariance averaged over site pairs (valid by
    exchangeability; single-site means vanish exactly on the constraint)."""
    sampler = GibbsSampler(params, rng)
    m = (params.N + 1) // 2 * 2
    xs = np.empty(n_samples)
    for i in range(n_samples):
        sampler.sweep(sampler.stride)
        r = sampler.r
        xs[i] = float((r[0:m:2] * r[1:m:2]).mean())
    est = stats_mod.estimate_from_samples(xs)
    return est.mean, est.stderr_mean


# -------------------------------------------------------------------- registry

EXPERIMENTS: dict[str, ExperimentSpec] = {
    "homological": ExperimentSpec(
        "machine-precision residual of the corrector equation",
        {"N_list": Key([31], _N_LIST), "beta_list": Key([100.0], _BETAS), "A": _A,
         "n_samples": Key(100, _COUNT),
         "profile": Key({"kind": "constant", "value": 1.0}, _profile)},
        ("N", "beta", "n_samples", "max_residual", "mean_residual", "min_denominator"),
        _run_homological),
    "ratio-scaling": ExperimentSpec(
        "drift-to-spread ratio and corrector-size slopes vs beta",
        {"N_list": Key([127], _N_LIST),
         "beta_list": Key([25.0, 50.0, 100.0, 200.0], _list(_positive, distinct=3)),
         "A": _A,
         "n_samples": Key(4000, _COUNT), "profile": Key(RATIO_PROFILE_SPEC, _profile)},
        ("N", "beta", "n_samples", "phidot_norm", "phidot_stderr", "sigma_phi",
         "sigma_phi_stderr", "ratio", "sigma_phi0", "sigma_phi1", "ratio_phi1_phi0"),
        _run_ratio),
    "autocorrelation": ExperimentSpec(
        "packet-energy autocorrelation persistence and half-life scaling",
        {"N_list": Key([127], _N_LIST), "beta_list": Key([50.0, 100.0, 200.0], _BETAS),
         "A": _A, "n_samples": Key(384, _int(3)),
         "profile": Key(DEFAULT_PROFILE_SPEC, _profile), "dt": _DT,
         "t_grid": Key(None, _t_grid), "horizon_factor": Key(6.5, _positive),
         "persistence_betas": Key([100.0], _list(_positive))},
        ("N", "beta", "t", "corr", "corr_stderr", "corr_normalized",
         "corr_normalized_stderr", "sigma2"),
        _run_autocorr),
    "lemma3-scan": ExperimentSpec(
        "normalized variance band over (N, beta) for P_s observables",
        {"N_list": Key([63, 127, 255], _N_LIST),
         "beta_list": Key([50.0, 100.0, 200.0], _BETAS), "A": _A,
         "n_samples": Key(600, _COUNT), "profile": Key(DEFAULT_PROFILE_SPEC, _profile),
         "kinds": Key(["Phi0", "H1", "Phi1"], _list(_one_of("Phi0", "H1", "Phi1")))},
        ("kind", "s", "N", "beta", "n_samples", "variance", "variance_stderr",
         "plus_norm", "normalized", "normalized_stderr"),
        _run_lemma3),
    "chebyshev": ExperimentSpec(
        "exceedance probability of packet drift vs the Chebyshev bound",
        {"N_list": Key([127], _N_LIST), "beta_list": Key([50.0, 100.0, 200.0], _BETAS),
         "A": _A, "n_samples": Key(1500, _COUNT),
         "profile": Key(CHEBYSHEV_PROFILE_SPEC, _profile), "dt": _DT, "a": _DRIFT_EXPONENT},
        ("N", "beta", "a", "t", "threshold", "n_samples", "empirical_prob",
         "prob_stderr", "chebyshev_bound", "bound_stderr", "increment_variance",
         "sigma_phi0"),
        _run_chebyshev),
    "multi-packet": ExperimentSpec(
        "joint drift and persistence of K disjoint packets",
        {"N_list": Key([127], _N_LIST), "beta_list": Key([100.0], _BETAS), "A": _A,
         "n_samples": Key(400, _COUNT), "dt": _DT, "a": _DRIFT_EXPONENT,
         "K": Key(4, _int(1, 16))},
        ("N", "beta", "a", "K", "packet", "exceed_rate", "exceed_stderr",
         "joint_rate", "joint_stderr", "sum_individual", "corr_quarter_beta"),
        _run_multipacket),
    "theorem2-h1": ExperimentSpec(
        "h1/(c0+c2) bounded on the admissible family, divergent for g(x)=x",
        {"grid_sizes": Key([256, 1024, 2048, 4096], _list(_int(2), distinct=2)),
         "profiles": Key(THEOREM2_FAMILY, _list(_profile)),
         "divergence_profile": Key({"kind": "linear"}, _profile)},
        ("profile", "admissible", "grid", "h1", "c0", "c2", "ratio", "min_denominator"),
        _run_theorem2),
    "sampler-validation": ExperimentSpec(
        "constrained-sampler marginals vs quadrature, slab reference, 1/N covariance trend",
        {"beta_list": Key([100.0], _list(_positive, longest=1)), "A": _A,
         "n_samples": Key(10000, _COUNT),
         "moments_N": Key(128, _int(3)), "slab_N": Key(8, _int(3)),
         "lemma5_N": Key([64, 256], _list(_int(3), distinct=2)),
         "lemma5_samples": Key(20000, _COUNT), "slab_samples": Key(8000, _COUNT),
         "checks": Key(["moments", "slab", "lemma5"],
                       _list(_one_of("moments", "slab", "lemma5")))},
        ("check", "N", "beta", "quantity", "value", "stderr", "reference", "z"),
        _run_sampler_validation),
}


def experiment_schema() -> dict:
    """Per experiment: description, accepted config keys, their defaults and the
    CSV columns.  `list-experiments` prints this, and csv_schema.json is it."""
    return {name: {"description": spec.description,
                   "config_keys": sorted({"experiment", "seed", *spec.keys}),
                   "defaults": {key: k.default for key, k in spec.keys.items()},
                   "csv_columns": list(spec.columns)}
            for name, spec in EXPERIMENTS.items()}


def _format_cell(v) -> str:
    if isinstance(v, float):
        out = repr(v)
    else:
        out = str(v)
    if any(ch in out for ch in ",\"\n"):
        out = '"' + out.replace('"', '""') + '"'
    return out


def _write_csv(path: Path, columns, rows: list[dict]) -> None:
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join(_format_cell(r.get(c, "")) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).parent, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run(cfg: ExperimentConfig, out_dir: str | Path, threads: int = 1) -> int:
    """Execute an experiment; write CSV, metadata JSON and PASS/FAIL summary.

    Returns 0 when every check passes, 1 otherwise; a run in which no check
    ran fails.
    """
    spec = EXPERIMENTS[cfg.experiment]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    rows, checks, diags = spec.compute(cfg, threads)
    wall = time.time() - t0
    base = cfg.experiment
    _write_csv(out / f"{base}_results.csv", spec.columns, rows)
    if "beta_list" in spec.keys:    # the experiment samples the Gibbs measure
        tilted = {}
        for beta in cfg.beta_list:
            theta = solve_theta(beta, cfg.A)
            td = make_tilted_density(beta, cfg.A, theta)
            tilted[f"beta={beta:g}"] = {"theta": theta, "q_theta": td.q_gamma}
        diags = {**diags, "tilted_density": tilted}
    metadata = {
        "experiment": cfg.experiment,
        "config": cfg.raw,
        "thresholds": {k: v for k, v in THRESHOLDS.items()},
        "diagnostics": diags,
        "build": _git_describe(),
        "wall_time_seconds": wall,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (out / f"{base}_metadata.json").write_text(json.dumps(metadata, indent=2,
                                                          default=str) + "\n")
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
    if args.command == "list-experiments":
        print(list_experiments())
        return 0
    try:
        text = args.config.read_text()
    except OSError as exc:
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
    return run(cfg, args.out, threads=args.threads)


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
