"""Experiment runner: JSON config in, CSV + JSON metadata + PASS/FAIL summary out.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    N_list: list[int]
    beta_list: list[float]
    A: float
    profile: dict
    n_samples: int
    dt: float
    sweeps: int
    a: float
    K: int
    grid_sizes: list[int]
    profiles: list[dict]
    divergence_profile: dict
    kinds: list[str]
    t_grid: list[float] | None
    horizon_factor: float
    persistence_betas: list[float]
    moments_N: int
    slab_N: int
    lemma5_N: list[int]
    lemma5_samples: int
    slab_samples: int
    checks: list[str]
    raw: dict = field(repr=False, default_factory=dict)


_COMMON_KEYS = {"experiment", "seed", "N_list", "beta_list", "A", "profile",
                "n_samples", "dt", "sweeps"}

_EXPERIMENTS: dict[str, dict] = {
    "homological": {
        "description": "machine-precision residual of the corrector equation",
        "extra_keys": set(),
        "defaults": {"N_list": [31], "beta_list": [100.0], "n_samples": 100,
                     "profile": {"kind": "constant", "value": 1.0}},
    },
    "ratio-scaling": {
        "description": "drift-to-spread ratio and corrector-size slopes vs beta",
        "extra_keys": set(),
        "defaults": {"N_list": [127], "beta_list": [25.0, 50.0, 100.0, 200.0],
                     "n_samples": 4000, "profile": RATIO_PROFILE_SPEC},
    },
    "autocorrelation": {
        "description": "packet-energy autocorrelation persistence and half-life scaling",
        "extra_keys": {"t_grid", "horizon_factor", "persistence_betas"},
        "defaults": {"N_list": [127], "beta_list": [50.0, 100.0, 200.0],
                     "n_samples": 384, "profile": DEFAULT_PROFILE_SPEC,
                     "horizon_factor": 6.5, "persistence_betas": [100.0]},
    },
    "lemma3-scan": {
        "description": "normalized variance band over (N, beta) for P_s observables",
        "extra_keys": {"kinds"},
        "defaults": {"N_list": [63, 127, 255], "beta_list": [50.0, 100.0, 200.0],
                     "n_samples": 600, "profile": DEFAULT_PROFILE_SPEC,
                     "kinds": ["Phi0", "H1", "Phi1"]},
    },
    "chebyshev": {
        "description": "exceedance probability of packet drift vs the Chebyshev bound",
        "extra_keys": {"a"},
        "defaults": {"N_list": [127], "beta_list": [50.0, 100.0, 200.0],
                     "n_samples": 1500, "a": 0.4, "profile": CHEBYSHEV_PROFILE_SPEC},
    },
    "multi-packet": {
        "description": "joint drift and persistence of K disjoint packets",
        "extra_keys": {"a", "K"},
        "defaults": {"N_list": [127], "beta_list": [100.0], "n_samples": 400,
                     "a": 0.4, "K": 4, "profile": DEFAULT_PROFILE_SPEC},
    },
    "theorem2-h1": {
        "description": "h1/(c0+c2) bounded on the admissible family, divergent for g(x)=x",
        "extra_keys": {"grid_sizes", "profiles", "divergence_profile"},
        "defaults": {"N_list": [127], "beta_list": [100.0], "n_samples": 2,
                     "profile": DEFAULT_PROFILE_SPEC,
                     "grid_sizes": [256, 1024, 2048, 4096],
                     "profiles": THEOREM2_FAMILY,
                     "divergence_profile": {"kind": "linear"}},
    },
    "sampler-validation": {
        "description": "constrained-sampler marginals vs quadrature, slab reference, 1/N covariance trend",
        "extra_keys": {"moments_N", "slab_N", "lemma5_N", "lemma5_samples",
                       "slab_samples", "checks"},
        "defaults": {"N_list": [128], "beta_list": [100.0], "n_samples": 10000,
                     "profile": DEFAULT_PROFILE_SPEC,
                     "moments_N": 128, "slab_N": 8, "lemma5_N": [64, 256],
                     "lemma5_samples": 20000, "slab_samples": 8000,
                     "checks": ["moments", "slab", "lemma5"]},
    },
}

_GLOBAL_DEFAULTS = {"A": 1.0, "dt": DEFAULT_DT, "sweeps": 100,
                    "a": 0.4, "K": 4, "t_grid": None, "horizon_factor": 6.5,
                    "persistence_betas": [100.0], "grid_sizes": [256, 1024, 2048, 4096],
                    "profiles": THEOREM2_FAMILY, "divergence_profile": {"kind": "linear"},
                    "kinds": ["Phi0", "H1", "Phi1"], "moments_N": 128, "slab_N": 8,
                    "lemma5_N": [64, 256], "lemma5_samples": 20000,
                    "slab_samples": 8000, "checks": ["moments", "slab", "lemma5"]}


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config; unknown keys are errors."""
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
    if name not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; known: {sorted(_EXPERIMENTS)}")
    spec = _EXPERIMENTS[name]
    allowed = _COMMON_KEYS | spec["extra_keys"]
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {name!r}: {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")
    if "seed" not in data:
        raise ConfigError("missing required field 'seed' (wall-clock defaults are "
                          "not allowed; reproducibility is mandatory)")
    merged = dict(_GLOBAL_DEFAULTS)
    merged.update(spec["defaults"])
    merged.update(data)

    def _fail(fieldname, why):
        raise ConfigError(f"field {fieldname!r}: {why}")

    seed = merged["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        _fail("seed", "must be a non-negative integer")
    n_list = merged["N_list"]
    if not isinstance(n_list, list) or not n_list:
        _fail("N_list", "must be a non-empty list")
    for N in n_list:
        if not isinstance(N, int) or N < 3:
            _fail("N_list", f"entries must be integers >= 3, got {N!r}")
    beta_list = merged["beta_list"]
    if not isinstance(beta_list, list) or not beta_list:
        _fail("beta_list", "must be a non-empty list")
    for b in beta_list:
        if not isinstance(b, (int, float)) or not b > 0:
            _fail("beta_list", f"entries must be > 0, got {b!r}")
    if not merged["A"] > 0:
        _fail("A", "must be > 0")
    if not merged["dt"] > 0:
        _fail("dt", "must be > 0")
    if not isinstance(merged["n_samples"], int) or merged["n_samples"] < 2:
        _fail("n_samples", "must be an integer >= 2")
    if not isinstance(merged["sweeps"], int) or merged["sweeps"] < 1:
        _fail("sweeps", "must be an integer >= 1")
    if not 0.0 <= merged["a"] <= 0.5:
        _fail("a", "must be in [0, 1/2]")
    if not (isinstance(merged["K"], int) and 1 <= merged["K"] <= 16):
        _fail("K", "must be an integer in 1..16")
    grid_sizes = merged["grid_sizes"]
    if not isinstance(grid_sizes, list) or not grid_sizes:
        _fail("grid_sizes", "must be a non-empty list")
    for g in grid_sizes:
        if not isinstance(g, int) or isinstance(g, bool) or g < 2:
            _fail("grid_sizes", f"entries must be integers >= 2, got {g!r}")
    if not isinstance(merged["profiles"], list) or not merged["profiles"]:
        _fail("profiles", "must be a non-empty list")
    try:
        make_profile(merged["profile"])
        for p in merged["profiles"]:
            make_profile(p)
        make_profile(merged["divergence_profile"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for kind in merged["kinds"]:
        if kind not in ("Phi0", "H1", "Phi1"):
            _fail("kinds", f"must be among Phi0/H1/Phi1, got {kind!r}")
    return ExperimentConfig(
        experiment=name, seed=seed, N_list=list(n_list),
        beta_list=[float(b) for b in beta_list], A=float(merged["A"]),
        profile=merged["profile"], n_samples=merged["n_samples"],
        dt=float(merged["dt"]), sweeps=merged["sweeps"], a=float(merged["a"]),
        K=merged["K"], grid_sizes=list(grid_sizes),
        profiles=list(merged["profiles"]),
        divergence_profile=merged["divergence_profile"],
        kinds=list(merged["kinds"]), t_grid=merged["t_grid"],
        horizon_factor=float(merged["horizon_factor"]),
        persistence_betas=[float(b) for b in merged["persistence_betas"]],
        moments_N=merged["moments_N"], slab_N=merged["slab_N"],
        lemma5_N=list(merged["lemma5_N"]), lemma5_samples=merged["lemma5_samples"],
        slab_samples=merged["slab_samples"], checks=list(merged["checks"]),
        raw=data)


def _cell_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _pmap(fn, args_list, threads: int):
    if threads <= 1 or len(args_list) < 2:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, args_list))


# ---------------------------------------------------------------- homological

def _homological_cell(args):
    N, beta, A, profile_spec, n_samples, seed, idx = args
    rng = _cell_rng(seed, idx)
    prof = make_profile(profile_spec)
    pk = build_phi1_table(prof, N)
    sampler = GibbsSampler(ChainParams(N=N, A=A, beta=beta), rng)
    res = np.array([homological_residual(sampler.sample().state, pk)
                    for _ in range(n_samples)])
    return {"N": N, "beta": beta, "n_samples": n_samples,
            "max_residual": float(res.max()), "mean_residual": float(res.mean()),
            "min_denominator": pk.min_denominator,
            "_diag": sampler.diagnostics()}


def _run_homological(cfg: ExperimentConfig, threads: int):
    cells = [(N, b, cfg.A, cfg.profile, cfg.n_samples, cfg.seed, i)
             for i, (N, b) in enumerate((N, b) for N in cfg.N_list for b in cfg.beta_list)]
    rows = _pmap(_homological_cell, cells, threads)
    checks = []
    for r in rows:
        ok = r["max_residual"] <= THRESHOLDS["homological_residual"]
        checks.append((f"homological residual N={r['N']} beta={r['beta']:g} "
                       f"max={r['max_residual']:.3e} <= {THRESHOLDS['homological_residual']:g}",
                       ok))
    return rows, checks


# --------------------------------------------------------------- ratio-scaling

def _ratio_cell(args):
    N, beta, A, profile_spec, n_samples, seed, idx = args
    rng = _cell_rng(seed, idx)
    prof = make_profile(profile_spec)
    pk = build_phi1_table(prof, N)
    res = stats_mod.ratio_theorem1(pk, ChainParams(N=N, A=A, beta=beta), n_samples, rng)
    return {"N": N, "beta": beta, "n_samples": n_samples,
            "phidot_norm": res.phidot_norm, "phidot_stderr": res.phidot_norm_stderr,
            "sigma_phi": res.sigma_phi, "sigma_phi_stderr": res.sigma_phi_stderr,
            "ratio": res.ratio, "sigma_phi0": res.sigma_phi0,
            "sigma_phi1": res.sigma_phi1, "ratio_phi1_phi0": res.ratio_phi1_phi0}


def _run_ratio(cfg: ExperimentConfig, threads: int):
    cells = [(N, b, cfg.A, cfg.profile, cfg.n_samples, cfg.seed, i)
             for i, (N, b) in enumerate((N, b) for N in cfg.N_list for b in cfg.beta_list)]
    rows = _pmap(_ratio_cell, cells, threads)
    checks = []
    lo, hi = THRESHOLDS["ratio_slope"]
    lo2, hi2 = THRESHOLDS["phi1_phi0_slope"]
    for N in cfg.N_list:
        sub = [r for r in rows if r["N"] == N]
        betas = [r["beta"] for r in sub]
        if len(betas) >= 3:
            s, se = stats_mod.fit_power_law(betas, [r["ratio"] for r in sub])
            checks.append((f"ratio slope N={N}: {s:.3f}+-{se:.3f} in [{lo}, {hi}]",
                           lo <= s <= hi))
            s2, se2 = stats_mod.fit_power_law(betas, [r["ratio_phi1_phi0"] for r in sub])
            checks.append((f"sigma_phi1/sigma_phi0 slope N={N}: {s2:.3f}+-{se2:.3f} "
                           f"in [{lo2}, {hi2}]", lo2 <= s2 <= hi2))
    return rows, checks


# -------------------------------------------------------------- autocorrelation

def _autocorr_cell(args):
    N, beta, A, profile_spec, n_samples, dt, horizon_factor, t_grid, seed, idx = args
    rng = _cell_rng(seed, idx)
    prof = make_profile(profile_spec)
    pk = build_phi1_table(prof, N)
    sampler = GibbsSampler(ChainParams(N=N, A=A, beta=beta), rng)
    states = sampler.sample_states(n_samples)
    if t_grid is not None:
        grid = np.asarray(t_grid, dtype=float)
        horizon = float(grid.max())
    else:
        horizon = horizon_factor * beta
        near = np.linspace(0.0, min(beta, horizon), 11)
        far = np.linspace(min(beta, horizon), horizon, 18)[1:]
        grid = np.unique(np.concatenate([near, far]))
    curve = stats_mod.autocorrelation(lambda s: packet_mod.phi0(s, pk), states,
                                      ChainParams(N=N, A=A, beta=beta), dt, grid)
    t_half, t_half_se = stats_mod.half_life_jackknife(curve)
    rows = [{"N": N, "beta": beta, "t": float(t), "corr": float(c),
             "corr_stderr": float(se), "corr_normalized": float(v),
             "corr_normalized_stderr": float(vs), "sigma2": curve.sigma2}
            for t, c, se, v, vs in zip(curve.times, curve.values, curve.stderrs,
                                       curve.normalized, curve.normalized_stderrs)]
    return {"rows": rows, "N": N, "beta": beta, "horizon": horizon,
            "t_half": t_half, "t_half_stderr": t_half_se,
            "_diag": sampler.diagnostics()}


def _run_autocorr(cfg: ExperimentConfig, threads: int):
    cells = [(N, b, cfg.A, cfg.profile, cfg.n_samples, cfg.dt, cfg.horizon_factor,
              cfg.t_grid, cfg.seed, i)
             for i, (N, b) in enumerate((N, b) for N in cfg.N_list for b in cfg.beta_list)]
    results = _pmap(_autocorr_cell, cells, threads)
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
             {"t_half": r["t_half"], "t_half_stderr": r["t_half_stderr"], **r["_diag"]}
             for r in results}
    return rows, checks, diags


# ------------------------------------------------------------------ lemma3-scan

def _lemma3_cell(args):
    kind, N, beta, A, profile_spec, n_samples, seed, idx = args
    prof = make_profile(profile_spec) if kind != "H1" else None
    fn = make_ps_test(kind, prof, N)
    rows = stats_mod.lemma3_scan(fn, [N], [beta], n_samples,
                                 seed=np.random.SeedSequence(entropy=seed, spawn_key=(idx,)),
                                 A=A)
    return rows[0]


def _run_lemma3(cfg: ExperimentConfig, threads: int):
    cells = []
    idx = 0
    for kind in cfg.kinds:
        for N in cfg.N_list:
            for beta in cfg.beta_list:
                cells.append((kind, N, beta, cfg.A, cfg.profile, cfg.n_samples,
                              cfg.seed, idx))
                idx += 1
    rows = _pmap(_lemma3_cell, cells, threads)
    checks = []
    band = THRESHOLDS["lemma3_band"]
    for kind in cfg.kinds:
        vals = [r["normalized"] for r in rows if r["kind"] == kind]
        spread = max(vals) / min(vals) if min(vals) > 0 else math.inf
        checks.append((f"lemma3 band {kind}: max/min = {spread:.2f} <= {band}",
                       spread <= band))
    return rows, checks


# ------------------------------------------------------------------- chebyshev

def _chebyshev_cell(args):
    N, beta, A, a, profile_spec, n_samples, dt, seed, idx = args
    rng = _cell_rng(seed, idx)
    prof = make_profile(profile_spec)
    pk = build_phi1_table(prof, N)
    return stats_mod.chebyshev_experiment(pk, ChainParams(N=N, A=A, beta=beta),
                                          a, n_samples, rng, dt=dt)


def _run_chebyshev(cfg: ExperimentConfig, threads: int):
    cells = [(N, b, cfg.A, cfg.a, cfg.profile, cfg.n_samples, cfg.dt, cfg.seed, i)
             for i, (N, b) in enumerate((N, b) for N in cfg.N_list for b in cfg.beta_list)]
    rows = _pmap(_chebyshev_cell, cells, threads)
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
    return rows, checks


# ----------------------------------------------------------------- multi-packet

def _multipacket_cell(args):
    N, beta, A, a, K, n_samples, dt, seed, idx = args
    rng = _cell_rng(seed, idx)
    packs = [build_phi1_table(p, N) for p in profiles_mod.disjoint_profiles(K)]
    return stats_mod.multi_packet_experiment(packs, ChainParams(N=N, A=A, beta=beta),
                                             a, n_samples, rng, dt=dt)


def _run_multipacket(cfg: ExperimentConfig, threads: int):
    cells = [(N, b, cfg.A, cfg.a, cfg.K, cfg.n_samples, cfg.dt, cfg.seed, i)
             for i, (N, b) in enumerate((N, b) for N in cfg.N_list for b in cfg.beta_list)]
    results = _pmap(_multipacket_cell, cells, threads)
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
    return rows, checks


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
    idx = 0
    if "moments" in cfg.checks:
        N = cfg.moments_N
        beta = cfg.beta_list[0]
        params = ChainParams(N=N, A=cfg.A, beta=beta)
        rng = _cell_rng(cfg.seed, idx); idx += 1
        theta = solve_theta(beta, cfg.A)
        td = make_tilted_density(beta, cfg.A, theta)
        sampler = GibbsSampler(params, rng)
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
        rng = _cell_rng(cfg.seed, idx); idx += 1
        sampler = GibbsSampler(params, rng)
        mc = np.empty((cfg.slab_samples, 5))
        for i in range(cfg.slab_samples):
            sampler.sweep(sampler.stride)
            r0 = sampler.r[0]
            mc[i] = [r0, r0**2, r0**3, r0**4, r0 * sampler.r[1]]
        ref = slab_rejection_bonds(_cell_rng(cfg.seed, idx), params, cfg.slab_samples)
        idx += 1
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
            rng = _cell_rng(cfg.seed, idx); idx += 1
            cov, se = _disjoint_pair_covariance(rng, params, cfg.lemma5_samples)
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


_RUNNERS = {
    "homological": _run_homological,
    "ratio-scaling": _run_ratio,
    "autocorrelation": _run_autocorr,
    "lemma3-scan": _run_lemma3,
    "chebyshev": _run_chebyshev,
    "multi-packet": _run_multipacket,
    "theorem2-h1": _run_theorem2,
    "sampler-validation": _run_sampler_validation,
}

EXPERIMENT_SCHEMAS = {
    "homological": ["N", "beta", "n_samples", "max_residual", "mean_residual",
                    "min_denominator"],
    "ratio-scaling": ["N", "beta", "n_samples", "phidot_norm", "phidot_stderr",
                      "sigma_phi", "sigma_phi_stderr", "ratio", "sigma_phi0",
                      "sigma_phi1", "ratio_phi1_phi0"],
    "autocorrelation": ["N", "beta", "t", "corr", "corr_stderr", "corr_normalized",
                        "corr_normalized_stderr", "sigma2"],
    "lemma3-scan": ["kind", "s", "N", "beta", "n_samples", "variance",
                    "variance_stderr", "plus_norm", "normalized", "normalized_stderr"],
    "chebyshev": ["N", "beta", "a", "t", "threshold", "n_samples", "empirical_prob",
                  "prob_stderr", "chebyshev_bound", "bound_stderr",
                  "increment_variance", "sigma_phi0"],
    "multi-packet": ["N", "beta", "a", "K", "packet", "exceed_rate", "exceed_stderr",
                     "joint_rate", "joint_stderr", "sum_individual",
                     "corr_quarter_beta"],
    "theorem2-h1": ["profile", "admissible", "grid", "h1", "c0", "c2", "ratio",
                    "min_denominator"],
    "sampler-validation": ["check", "N", "beta", "quantity", "value", "stderr",
                           "reference", "z"],
}


def _format_cell(v) -> str:
    if isinstance(v, float):
        out = repr(v)
    else:
        out = str(v)
    if any(ch in out for ch in ",\"\n"):
        out = '"' + out.replace('"', '""') + '"'
    return out


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
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

    Returns 0 when every check passes, 1 otherwise.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    result = _RUNNERS[cfg.experiment](cfg, threads)
    if len(result) == 2:
        rows, checks = result
        diags = {}
    else:
        rows, checks, diags = result
    wall = time.time() - t0
    base = cfg.experiment
    _write_csv(out / f"{base}_results.csv", EXPERIMENT_SCHEMAS[cfg.experiment],
               [{k: v for k, v in r.items() if not k.startswith("_")} for r in rows])
    cell_diags = {f"cell{i}": r["_diag"] for i, r in enumerate(rows) if "_diag" in r}
    if cell_diags:
        diags = {**diags, **cell_diags}
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
    lines = []
    for name, spec in _EXPERIMENTS.items():
        lines.append(f"{name}: {spec['description']}")
        defaults = {**{k: v for k, v in _GLOBAL_DEFAULTS.items()
                       if k in _COMMON_KEYS | spec["extra_keys"]},
                    **spec["defaults"]}
        lines.append(f"  defaults: {json.dumps(defaults, sort_keys=True)}")
        lines.append(f"  csv columns: {', '.join(EXPERIMENT_SCHEMAS[name])}")
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
    sub.add_parser("list-experiments", help="list experiments, defaults and schemas")
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
