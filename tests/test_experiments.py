import csv
import dataclasses
import json
import re
import subprocess
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import copied
from test_golden import CONFIGS as GOLDEN_CONFIGS

from fpu_packets import experiments, gibbs
from fpu_packets.chain import BlowupError, ChainParams, energy, evolve_batch
from fpu_packets.experiments import (EXPERIMENTS, ConfigError, _autocorr_times, _draw, _phi0_flow,
                                     _ratio_cell, _write_csv, experiment_schema, main, run,
                                     validate_config)
from fpu_packets.gibbs import GibbsSampler, constrained_moments, tilted_density
from fpu_packets.packet import build_phi1_table, mode_weights, phi0
from fpu_packets.profiles import disjoint_profiles, make_profile

MINIMAL = {"experiment": "homological", "seed": 1, "N_list": [15],
           "beta_list": [100.0], "n_samples": 5}


def test_validate_minimal_fills_defaults():
    cfg = validate_config(json.dumps(MINIMAL))
    assert cfg.experiment == "homological"
    assert cfg.A == 1.0
    assert cfg.profile == {"kind": "constant", "value": 1.0}
    cfg = validate_config(json.dumps({"experiment": "autocorrelation", "seed": 1}))
    assert cfg.dt == 0.02


def test_validate_missing_seed():
    body = {k: v for k, v in MINIMAL.items() if k != "seed"}
    with pytest.raises(ConfigError, match="seed"):
        validate_config(json.dumps(body))


def test_validate_negative_beta_names_field():
    body = dict(MINIMAL, beta_list=[-5.0])
    with pytest.raises(ConfigError, match="beta_list"):
        validate_config(json.dumps(body))


def test_validate_unknown_key():
    body = dict(MINIMAL, betas=[1.0])
    with pytest.raises(ConfigError, match="betas"):
        validate_config(json.dumps(body))


@pytest.mark.parametrize("experiment, key", [
    ("homological", "sweeps"), ("autocorrelation", "sweeps"), ("homological", "dt"),
    ("multi-packet", "profile"), ("sampler-validation", "N_list"),
    ("theorem2-h1", "n_samples"),
])
def test_validate_rejects_keys_the_experiment_does_not_read(experiment, key):
    body = {"experiment": experiment, "seed": 1, key: 1}
    with pytest.raises(ConfigError, match=f"unknown config keys .*'{key}'"):
        validate_config(json.dumps(body))


def _exit_codes(tmp_path, body):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    return (main(["validate", str(path)]),
            main(["run", str(path), "--out", str(tmp_path / "out")]))


@pytest.mark.parametrize("experiment, key", [
    (name, key) for name, spec in EXPERIMENTS.items() for key in ("seed", *spec.keys)])
def test_every_key_is_validated(tmp_path, experiment, key):
    body = {"experiment": experiment, "seed": 1, key: "x"}
    with pytest.raises(ConfigError, match=f"field '{key}'"):
        validate_config(json.dumps(body))
    assert _exit_codes(tmp_path, body) == (2, 2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, key, value", [
    # badly typed, or beyond the float range
    ("autocorrelation", "persistence_betas", "ab"),
    ("lemma3-scan", "kinds", 5),
    ("sampler-validation", "moments_N", "x"),
    ("homological", "A", 10**400),
    ("chebyshev", "dt", float("inf")),
    # the checks could only pass or only fail, whatever the program computes
    ("sampler-validation", "checks", ["bogus"]),
    ("lemma3-scan", "kinds", []),
    ("sampler-validation", "lemma5_N", [64]),
    ("sampler-validation", "lemma5_N", [64, 64]),
    ("theorem2-h1", "grid_sizes", [300]),
    # values the estimators refuse only once run() has started
    ("autocorrelation", "t_grid", [0.0, 2.0, 1.0]),
    ("autocorrelation", "n_samples", 2),
    # no slope to fit, or a beta the experiment would not read
    ("ratio-scaling", "beta_list", [50.0, 100.0]),
    ("ratio-scaling", "beta_list", [50.0, 50.0, 100.0]),
    ("sampler-validation", "beta_list", [100.0, 25.0]),
    # beyond the leapfrog's harmonic stability limit dt < 2 / omega_max
    ("chebyshev", "dt", 3.0),
    ("autocorrelation", "dt", 1.0),
    ("multi-packet", "dt", 2.5),
    # an inadmissible profile where the corrector table is built
    ("homological", "profile", {"kind": "linear"}),
    ("ratio-scaling", "profile", {"kind": "linear"}),
    ("autocorrelation", "profile", {"kind": "linear"}),
    ("chebyshev", "profile", {"kind": "linear"}),
    ("lemma3-scan", "profile", {"kind": "linear"}),
    # a positive target time that rounds to zero integrator steps
    ("chebyshev", "beta_list", [1e-4, 1.0, 2.0]),
    ("multi-packet", "beta_list", [0.02]),
    ("autocorrelation", "t_grid", [0.0, 0.001, 0.002, 0.004]),
    ("autocorrelation", "horizon_factor", 0.001),
    # a drift exponent outside [0, 1/2]
    ("chebyshev", "a", 0.7),
    ("multi-packet", "a", 0.7),
    # a grid point twice, which would run twice under one metadata key
    ("homological", "N_list", [15, 15]),
    ("autocorrelation", "beta_list", [50.0, 50]),
    ("lemma3-scan", "kinds", ["H1", "H1"]),
    ("sampler-validation", "lemma5_N", [64, 64, 256]),
    # a grid that does not start at the time C(t)/C(0) is read against
    ("autocorrelation", "t_grid", [1.0, 2.0]),
    # too few samples for the jackknife error of a variance
    ("homological", "n_samples", 2),
    ("sampler-validation", "lemma5_samples", 2),
    # a divergence profile with g'(0) = 0, whose h1 does not diverge (and
    # with nu = 0 is 0 on every grid)
    ("theorem2-h1", "divergence_profile", {"kind": "constant", "value": 0.0}),
    # a grid size twice, which writes its rows twice and checks its
    # stability against itself
    ("theorem2-h1", "grid_sizes", [1024, 1024, 2048]),
    # a check twice, which would run it once
    ("sampler-validation", "checks", ["slab", "slab"]),
    # a family profile twice in another key order, which wrote its rows and
    # its stability line twice under one CSV label
    ("theorem2-h1", "profiles", [{"kind": "cosine", "amplitude": 1.0},
                                 {"amplitude": 1.0, "kind": "cosine"}]),
])
def test_rejects_bad_or_vacuous_values(tmp_path, experiment, key, value):
    body = {"experiment": experiment, "seed": 1, key: value}
    with pytest.raises(ConfigError, match=f"field '{key}'"):
        validate_config(json.dumps(body))
    assert _exit_codes(tmp_path, body) == (2, 2)


@pytest.mark.parametrize("body, key", [
    # t_grid replaces the default grid up to horizon_factor * beta
    ({"experiment": "autocorrelation", "seed": 1, "t_grid": [0.0, 1.0],
      "horizon_factor": 50.0}, "horizon_factor"),
    # only the moments check reads n_samples and moments_N
    ({"experiment": "sampler-validation", "seed": 1, "checks": ["slab"], "n_samples": 5,
      "moments_N": 999}, "n_samples"),
    ({"experiment": "sampler-validation", "seed": 1, "checks": ["slab"], "moments_N": 999},
     "moments_N"),
    ({"experiment": "sampler-validation", "seed": 1, "checks": ["moments", "lemma5"],
      "slab_samples": 20}, "slab_samples"),
    ({"experiment": "sampler-validation", "seed": 1, "checks": ["moments"],
      "lemma5_N": [8, 16]}, "lemma5_N"),
], ids=["horizon-under-t-grid", "moments-keys-without-moments", "moments-n-without-moments",
        "slab-key-without-slab", "lemma5-key-without-lemma5"])
def test_refuses_a_key_its_own_values_leave_unread(tmp_path, body, key):
    with pytest.raises(ConfigError, match=f"field '{key}': unread"):
        validate_config(json.dumps(body))
    assert _exit_codes(tmp_path, body) == (2, 2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body", [
    {"experiment": "homological", "seed": 1, "N_list": [7], "n_samples": 3,
     "profile": {"kind": "linear"}},
    {"experiment": "multi-packet", "seed": 1, "N_list": [15], "beta_list": [0.02],
     "n_samples": 50, "K": 2},
    {"experiment": "autocorrelation", "seed": 1, "N_list": [7],
     "beta_list": [50.0, 100.0], "t_grid": [0, 0.001, 0.002, 0.004]},
    {"experiment": "autocorrelation", "seed": 1, "N_list": [7], "beta_list": [50.0, 200.0],
     "n_samples": 4, "t_grid": [0.0, 1.0], "persistence_betas": [100.0]},
    {"experiment": "autocorrelation", "seed": 1, "N_list": [7], "beta_list": [20.0],
     "n_samples": 5, "t_grid": [0.0, 0.02, 0.025, 0.04], "persistence_betas": [20.0]},
    # two betas that metadata keys, summary lines and tilted_density all write 100
    {"experiment": "homological", "seed": 1, "N_list": [7],
     "beta_list": [100.0, 100.0000001], "n_samples": 3},
    {"experiment": "ratio-scaling", "seed": 1, "N_list": [7],
     "beta_list": [50.0, 100.0, 100.0000001], "n_samples": 3},
    # family profiles with c0 + c2 = 0, whose ratio h1 / (c0 + c2) divides by 0,
    # and with c0 + c2 < 0, whose negative ratios passed the stability check
    {"experiment": "theorem2-h1", "seed": 1, "profiles": [{"kind": "linear"}]},
    {"experiment": "theorem2-h1", "seed": 1, "profiles": [{"kind": "constant", "value": 0.0}]},
    {"experiment": "theorem2-h1", "seed": 1, "profiles": [{"kind": "constant", "value": -1.0}]},
    # c0 < 0 with c0 + c2 = 0.008: h1 / (c0 + c2) read 189.563 and PASSed
    {"experiment": "theorem2-h1", "seed": 1, "grid_sizes": [256, 1024, 2048],
     "profiles": [{"kind": "poly_x2", "coeffs": [-0.68, 0.344]},
                  {"kind": "constant", "value": 1.0}]},
    # a grid span below h1_divergence, on which the divergence check can only FAIL
    {"experiment": "theorem2-h1", "seed": 1, "grid_sizes": [300, 512]},
    {"experiment": "autocorrelation", "seed": 1, "t_grid": [1.0, 2.0]},
    # one (N, beta) point, whose band max/min is 1 whatever it measures
    {"experiment": "lemma3-scan", "seed": 1, "N_list": [15], "beta_list": [100.0],
     "n_samples": 8},
], ids=["inadmissible-corrector", "zero-step-quarter-beta", "zero-step-t-grid",
        "persistence-beta-not-run", "two-times-one-step", "beta-keys-collide",
        "ratio-beta-keys-collide", "h1-family-linear", "h1-family-zero-amplitude",
        "h1-family-negative", "h1-family-negative-c0", "h1-grid-span-undecidable",
        "t-grid-after-zero", "lemma3-one-point"])
def test_refused_before_any_output(tmp_path, body):
    assert _exit_codes(tmp_path, body) == (2, 2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, message", [
    ({"t_grid": [0.0, 0.02, 0.025, 0.04]},
     "field 't_grid': times t = 0.02 and t = 0.025 both round to step 1 of dt = 0.02"),
    # the default grid at beta = 0.15 spaces its near times 0.015 apart
    ({"beta_list": [20.0, 0.15], "persistence_betas": [20.0]},
     "field 'horizon_factor': times t = 0.03 and t = 0.045 both round to step 2 of dt = 0.02"),
    # a time that rounds to step 0 keeps the zero-step message
    ({"t_grid": [0.0, 0.001, 0.04]},
     "field 't_grid': target time t = 0.001 rounds to 0 steps of dt = 0.02"),
])
def test_autocorrelation_refuses_two_times_on_one_step(extra, message):
    body = {"experiment": "autocorrelation", "seed": 1, "beta_list": [20.0],
            "persistence_betas": [20.0], **extra}
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps(body))
    assert str(exc.value) == message


def test_inadmissible_profile_where_no_corrector_is_built(tmp_path):
    body = {"experiment": "lemma3-scan", "seed": 1, "N_list": [7],
            "beta_list": [50.0, 100.0], "n_samples": 5, "kinds": ["Phi0", "H1"],
            "profile": {"kind": "linear"}}
    assert _exit_codes(tmp_path, body)[0] == 0
    assert (tmp_path / "out" / "lemma3-scan_results.csv").exists()
    # theorem2-h1 builds no table either: its default divergence profile is
    # g(x) = x, but its family refuses that profile for c0 + c2 = 0
    validate_config(json.dumps({"experiment": "theorem2-h1", "seed": 1,
                                "divergence_profile": {"kind": "linear"}}))
    with pytest.raises(ConfigError, match=r"field 'profiles': entry 0: must have c0 \+ c2 > 0"):
        validate_config(json.dumps({"experiment": "theorem2-h1", "seed": 1,
                                    "profiles": [{"kind": "linear"}]}))


@pytest.mark.parametrize("field, value, message", [
    ("profiles", [{"kind": "constant", "value": 1.0}, {"kind": "poly_x2", "coeffs": [-0.68, 0.344]}],
     "field 'profiles': entry 1: must have c0 = g(0) >= 0, got c0 = -0.68"),
    ("grid_sizes", [300, 512],
     "field 'grid_sizes': largest/smallest = 1.71 must be >= 2, got [300, 512]"),
])
def test_theorem2_refuses_what_its_checks_cannot_decide(field, value, message):
    with pytest.raises(ConfigError) as exc:
        validate_config(json.dumps({"experiment": "theorem2-h1", "seed": 1, field: value}))
    assert str(exc.value) == message
    # the golden's grids sit exactly on the bound and stay valid
    validate_config(json.dumps({"experiment": "theorem2-h1", "seed": 1, "grid_sizes": [32, 64]}))


def test_validate_unknown_profile_kind_lists_registry():
    body = dict(MINIMAL, profile={"kind": "wavelet"})
    with pytest.raises(ConfigError, match="registered kinds") as exc:
        validate_config(json.dumps(body))
    assert "bump" in str(exc.value)


def test_validate_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        validate_config(json.dumps(dict(MINIMAL, experiment="everything")))


@pytest.mark.parametrize("field, value", [
    ("grid_sizes", []), ("grid_sizes", [1]), ("grid_sizes", "abc"),
    ("grid_sizes", [True, 256]), ("grid_sizes", [256.0]),
    ("profiles", []), ("profiles", "abc"), ("profiles", [5]),
])
def test_validate_theorem2_rejects_bad_grids_and_profiles(tmp_path, field, value):
    body = {"experiment": "theorem2-h1", "seed": 1, field: value}
    with pytest.raises(ConfigError, match=field if field == "grid_sizes" else "profile"):
        validate_config(json.dumps(body))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


def test_validate_bad_json_reports_position():
    with pytest.raises(ConfigError, match="line"):
        validate_config("{\n  broken\n}")


def test_run_homological_and_determinism(tmp_path):
    cfg = validate_config(json.dumps(dict(MINIMAL, n_samples=10)))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(cfg, out1) == 0
    assert run(cfg, out2) == 0
    csv1 = (out1 / "homological_results.csv").read_bytes()
    csv2 = (out2 / "homological_results.csv").read_bytes()
    assert csv1 == csv2
    summary = (out1 / "homological_summary.txt").read_text()
    assert "PASS  overall: homological" in summary
    meta = json.loads((out1 / "homological_metadata.json").read_text())
    assert meta["config"]["seed"] == 1
    assert "thresholds" in meta


def test_run_threads_do_not_change_results(tmp_path):
    body = dict(MINIMAL, N_list=[15, 19], beta_list=[50.0, 100.0], n_samples=6)
    cfg = validate_config(json.dumps(body))
    out1 = tmp_path / "seq"
    out2 = tmp_path / "par"
    run(cfg, out1, threads=1)
    run(cfg, out2, threads=2)
    assert (out1 / "homological_results.csv").read_bytes() == \
        (out2 / "homological_results.csv").read_bytes()


def test_run_threads_keep_the_rows_of_multi_row_cells(tmp_path):
    # each multi-packet cell returns K rows, which come back through the pool
    body = {"experiment": "multi-packet", "seed": 3, "N_list": [15],
            "beta_list": [50.0, 100.0], "n_samples": 8, "K": 2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        code = main(["run", str(path), "--out", str(out), "--threads", threads])
        meta = json.loads((out / "multi-packet_metadata.json").read_text())
        # every diagnostic but the cells' wall-clock stage times
        diags = {key: {name: v for name, v in diag.items() if name != "stage_s"}
                 for key, diag in meta["diagnostics"].items()}
        outputs.append((code, (out / "multi-packet_results.csv").read_bytes(),
                        (out / "multi-packet_summary.txt").read_bytes(), diags))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count(b"\n") == 1 + 2 * 2


def _serial_pool(monkeypatch) -> list:
    """Put in place of the process pool a stand-in that maps in this process;
    returns the list of worker counts it is asked for."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    return asked


def test_grid_pool_has_at_most_one_worker_per_cell(tmp_path, monkeypatch):
    body = dict(MINIMAL, N_list=[15], beta_list=[50.0, 100.0], n_samples=4)
    cfg = validate_config(json.dumps(body))
    run(cfg, tmp_path / "serial", threads=1)
    asked = _serial_pool(monkeypatch)
    run(cfg, tmp_path / "wide", threads=64)
    run(validate_config(json.dumps(dict(body, N_list=[15, 19]))), tmp_path / "narrow", threads=3)
    assert asked == [2, 3]
    assert (tmp_path / "serial" / "homological_results.csv").read_bytes() == \
        (tmp_path / "wide" / "homological_results.csv").read_bytes()


def test_theorem2_shares_its_grids_among_threads(tmp_path, monkeypatch):
    # one cell per grid size, whatever the order of grid_sizes
    body = {"experiment": "theorem2-h1", "seed": 5, "grid_sizes": [64, 16, 32]}
    cfg = validate_config(json.dumps(body))
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        code = run(cfg, out, threads=threads)
        grids = json.loads((out / "theorem2-h1_metadata.json").read_text())["diagnostics"]["grids"]
        outputs.append((code, (out / "theorem2-h1_results.csv").read_bytes(),
                        (out / "theorem2-h1_summary.txt").read_bytes(),
                        {key: diag["profiles"] for key, diag in grids.items()}))
    assert outputs[0] == outputs[1]
    assert list(outputs[0][3]) == ["grid=16", "grid=32", "grid=64"]
    asked = _serial_pool(monkeypatch)
    run(cfg, tmp_path / "wide", threads=8)
    run(cfg, tmp_path / "narrow", threads=2)
    assert asked == [3, 2]
    assert (tmp_path / "wide" / "theorem2-h1_results.csv").read_bytes() == outputs[0][1]


def test_sampler_validation_shares_its_cells_among_threads(tmp_path, monkeypatch):
    # one cell per check and N: moments, slab and lemma5 at two N
    body = dict(GOLDEN_CONFIGS["sampler-validation"], experiment="sampler-validation", seed=7)
    cfg = validate_config(json.dumps(body))
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        code = run(cfg, out, threads=threads)
        meta = json.loads((out / "sampler-validation_metadata.json").read_text())
        outputs.append((code, (out / "sampler-validation_results.csv").read_bytes(),
                        (out / "sampler-validation_summary.txt").read_bytes(),
                        meta["diagnostics"]))
    assert outputs[0] == outputs[1]
    asked = _serial_pool(monkeypatch)
    run(cfg, tmp_path / "wide", threads=8)
    assert asked == [4]


@pytest.mark.parametrize("t_grid", [[0.0], [0.0, 250.0]])
def test_persistence_without_an_evolved_time_in_its_window_fails(tmp_path, capsys, t_grid):
    # the window t <= beta holds only t = 0, where C/C0 = 1 by definition
    body = {"experiment": "autocorrelation", "seed": 1, "N_list": [7],
            "beta_list": [100.0], "n_samples": 4, "t_grid": t_grid}
    assert _exit_codes(tmp_path, body) == (0, 1)
    assert ("FAIL  persistence N=7 beta=100: no grid time in (0, beta]; inconclusive"
            in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_refuses_threads_below_one(tmp_path, capsys, threads):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MINIMAL))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--threads", threads]) == 2
    assert capsys.readouterr().err == f"usage error: --threads must be >= 1, got {threads}\n"
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["homological", "ratio-scaling", "autocorrelation",
                                        "lemma3-scan", "chebyshev", "multi-packet"])
def test_metadata_has_one_sampler_diag_per_cell(tmp_path, experiment):
    body = dict(GOLDEN_CONFIGS[experiment], experiment=experiment, seed=7)
    cfg = validate_config(json.dumps(body))
    run(cfg, tmp_path)
    diags = json.loads((tmp_path / f"{experiment}_metadata.json").read_text())["diagnostics"]
    points = [f"N={N},beta={beta:g}" for N in cfg.N_list for beta in cfg.beta_list]
    if experiment == "lemma3-scan":
        points = [f"kind={kind},{p}" for kind in cfg.kinds for p in points]
    assert [k for k in diags if k != "tilted_density"] == points
    # cell i draws from stream i of the master seed; a lemma3-scan cell from
    # that stream's first child
    child = [0] if experiment == "lemma3-scan" else []
    for i, p in enumerate(points):
        assert {"tau_int", "stride", "acceptance_rate"} <= set(diags[p])
        assert diags[p]["rng"] == {"seed": 7, "spawn_key": [i, *child]}


def _stream(record) -> np.random.Generator:
    """The generator a recorded `{"seed", "spawn_key"}` stream rebuilds."""
    return np.random.default_rng(
        np.random.SeedSequence(record["seed"], spawn_key=record["spawn_key"]))


@pytest.mark.parametrize("experiment", [name for name, spec in EXPERIMENTS.items()
                                        if "beta_list" in spec.keys])
def test_recorded_streams_rebuild_their_samplers(tmp_path, experiment):
    body = dict(GOLDEN_CONFIGS[experiment], experiment=experiment, seed=7)
    cfg = validate_config(json.dumps(body))
    run(cfg, tmp_path)
    diags = json.loads((tmp_path / f"{experiment}_metadata.json").read_text())["diagnostics"]
    samplers = {key: diag for key, diag in diags.items() if key != "tilted_density"}
    assert samplers
    for key, diag in samplers.items():
        N, beta = re.search(r"N=(\d+)[, ]beta=([^, ]+)", key).groups()
        params = ChainParams(N=int(N), A=cfg.A, beta=float(beta))
        rebuilt = GibbsSampler(params, _stream(diag["rng"])).diagnostics()
        for name in ("sigma_prop", "tau_int", "stride"):
            assert rebuilt[name] == diag[name], (key, name)
    if experiment == "sampler-validation":
        # every reference but the constraint row's tolerance is the exact
        # finite-N value at the row's N
        beta = cfg.beta_list[0]
        with (tmp_path / "sampler-validation_results.csv").open() as fh:
            written = [(row["check"], int(row["N"]), float(row["reference"]))
                       for row in csv.DictReader(fh) if row["quantity"] != "max|sum r|"]

        def exact(N):    # <r^1> .. <r^4>, <r0 r1>
            mom, r0_r1 = constrained_moments(beta, cfg.A, N)
            return [*mom[1:], r0_r1]

        expected = ([("moments", cfg.moments_N, m) for m in exact(cfg.moments_N)[:4]]
                    + [("slab", cfg.slab_N, m) for m in exact(cfg.slab_N)]
                    + [("lemma5", N, exact(N)[4]) for N in cfg.lemma5_N])
        assert written == expected


def test_ratio_cell_reruns_from_its_metadata(tmp_path):
    # the recorded stream reproduces a cell's sampler, and the recorded
    # smallest denominator is its corrector table's
    body = dict(GOLDEN_CONFIGS["ratio-scaling"], experiment="ratio-scaling", seed=7)
    cfg = validate_config(json.dumps(body))
    run(cfg, tmp_path)
    diags = json.loads((tmp_path / "ratio-scaling_metadata.json").read_text())["diagnostics"]
    N = cfg.N_list[0]
    denominator = build_phi1_table(make_profile(cfg.profile), N).min_denominator
    for beta in cfg.beta_list:
        diag = diags[f"N={N},beta={beta:g}"]
        assert diag["min_denominator"] == denominator
        seed = np.random.SeedSequence(entropy=diag["rng"]["seed"],
                                      spawn_key=diag["rng"]["spawn_key"])
        _, rerun = _ratio_cell(cfg, seed, N, beta)
        assert rerun == diag


def test_lemma3_phi1_cells_record_their_smallest_denominator(tmp_path):
    body = dict(GOLDEN_CONFIGS["lemma3-scan"], experiment="lemma3-scan", seed=7)
    cfg = validate_config(json.dumps(body))
    run(cfg, tmp_path)
    diags = json.loads((tmp_path / "lemma3-scan_metadata.json").read_text())["diagnostics"]
    assert "Phi1" in cfg.kinds
    for kind in cfg.kinds:
        for N in cfg.N_list:
            denominator = build_phi1_table(make_profile(cfg.profile), N).min_denominator
            for beta in cfg.beta_list:
                diag = diags[f"kind={kind},N={N},beta={beta:g}"]
                if kind == "Phi1":
                    assert diag["min_denominator"] == denominator
                else:
                    assert "min_denominator" not in diag


def test_sampler_validation_metadata_has_one_sampler_diag_per_check(tmp_path):
    body = dict(GOLDEN_CONFIGS["sampler-validation"], experiment="sampler-validation", seed=7)
    run(validate_config(json.dumps(body)), tmp_path)
    diags = json.loads((tmp_path / "sampler-validation_metadata.json").read_text())["diagnostics"]
    checks = ["check=moments,N=16,beta=100", "check=slab,N=8,beta=100",
              "check=lemma5,N=8,beta=100", "check=lemma5,N=16,beta=100"]
    assert [k for k in diags if k != "tilted_density"] == checks
    # the streams in the order the checks take them, one per sampler
    for check, stream in zip(checks, [0, 1, 2, 3]):
        assert {"tau_int", "stride", "acceptance_rate"} <= set(diags[check])
        assert diags[check]["rng"] == {"seed": 7, "spawn_key": [stream]}, check
        assert "reference_rng" not in diags[check]
    # theta and q_theta are recorded once, under tilted_density
    assert "theta" not in diags["check=moments,N=16,beta=100"]


def test_write_csv_refuses_a_key_outside_the_columns(tmp_path):
    with pytest.raises(ValueError, match="not in fieldnames"):
        _write_csv(tmp_path / "out.csv", ("N", "beta"), [{"N": 7, "beta": 1.0, "z": 0.0}])


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["list-experiments"]) == 0
    assert "homological" in capsys.readouterr().out
    missing = tmp_path / "nope.json"
    assert main(["validate", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["validate", str(bad)]) == 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps(MINIMAL))
    assert main(["validate", str(good)]) == 0
    assert main([]) == 2
    capsys.readouterr()
    # a config that is not UTF-8, and an --out that is a regular file
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe\xfa{}")
    assert main(["validate", str(undecodable)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read config: ") and err.count("\n") == 1
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    assert main(["run", str(good), "--out", str(occupied)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot create output directory: ") and err.count("\n") == 1
    assert occupied.read_text() == ""
    # at beta = 0.01 the bonds are large enough for dt = 0.5 to blow up
    blowup = {"experiment": "autocorrelation", "seed": 1, "N_list": [15],
              "beta_list": [0.01], "persistence_betas": [0.01], "n_samples": 3,
              "t_grid": [0.0, 50.0], "dt": 0.5}
    with pytest.raises(BlowupError):
        run(validate_config(json.dumps(blowup)), tmp_path / "direct")
    capsys.readouterr()
    # with --threads 2 the error comes back from a worker process
    two_cells = dict(blowup, beta_list=[0.01, 0.02])
    for body, threads in ((blowup, "1"), (two_cells, "2")):
        numerical = tmp_path / "blowup.json"
        numerical.write_text(json.dumps(body))
        out = tmp_path / f"out{threads}"
        assert main(["run", str(numerical), "--out", str(out), "--threads", threads]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: BlowupError: ") and err.count("\n") == 1
        # the failed run leaves its record, and no results
        assert sorted(f.name for f in out.iterdir()) == ["autocorrelation_metadata.json"]
        meta = json.loads((out / "autocorrelation_metadata.json").read_text())
        assert meta["config"] == body
        assert meta["failure"]["exception"] == "BlowupError"
        assert err.rstrip("\n").endswith(meta["failure"]["message"])


def test_git_describe_timeout_records_an_unknown_build(tmp_path, monkeypatch):
    cfg = validate_config(json.dumps(MINIMAL))
    code = run(cfg, tmp_path / "git")

    def timed_out(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(experiments.subprocess, "run", timed_out)
    out = tmp_path / "timeout"
    assert run(cfg, out) == code
    meta = json.loads((out / "homological_metadata.json").read_text())
    assert meta["build"] == "unknown"
    assert (out / "homological_summary.txt").read_bytes() == \
        (tmp_path / "git" / "homological_summary.txt").read_bytes()


def test_cli_run_small(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(dict(MINIMAL, n_samples=5)))
    assert main(["run", str(good), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "homological_results.csv").exists()


def test_theorem2_csv_is_parseable(tmp_path):
    import csv

    body = {"experiment": "theorem2-h1", "seed": 4, "grid_sizes": [64, 128],
            "profiles": [{"kind": "constant", "value": 1.0}]}
    cfg = validate_config(json.dumps(body))
    run(cfg, tmp_path)
    with open(tmp_path / "theorem2-h1_results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and rows[0]["profile"] == '{"kind": "constant", "value": 1.0}'
    assert {len(r) for r in rows} == {8}


def test_theorem2_family_constant_is_read_on_the_named_grid(tmp_path):
    # no two grids >= 1024: the constant is the maximum on the largest grid,
    # the one its check line names, not over every grid; the bump's ratio is
    # larger on the 600-grid than on the 1300-grid, so a maximum over both
    # grids would read the 600-grid's
    body = {"experiment": "theorem2-h1", "seed": 1, "grid_sizes": [600, 1300],
            "profiles": [{"kind": "bump", "center": 0.18, "width": 0.25, "amplitude": 1.0}]}
    run(validate_config(json.dumps(body)), tmp_path)
    label = json.dumps(body["profiles"][0], sort_keys=True)
    with open(tmp_path / "theorem2-h1_results.csv") as fh:
        ratios = {int(r["grid"]): float(r["ratio"]) for r in csv.DictReader(fh)
                  if r["profile"] == label}
    assert ratios[600] > ratios[1300]
    meta = json.loads((tmp_path / "theorem2-h1_metadata.json").read_text())
    assert meta["diagnostics"]["family_constant"] == ratios[1300]
    summary = (tmp_path / "theorem2-h1_summary.txt").read_text()
    assert "family-wide constant on 1300-grid" in summary


def test_run_autocorrelation_custom_grid(tmp_path):
    body = {"experiment": "autocorrelation", "seed": 2, "N_list": [15],
            "beta_list": [20.0], "n_samples": 12, "t_grid": [0.0, 1.0, 3.0],
            "persistence_betas": [20.0]}
    cfg = validate_config(json.dumps(body))
    assert run(cfg, tmp_path) == 0
    lines = (tmp_path / "autocorrelation_results.csv").read_text().splitlines()
    times = [float(line.split(",")[2]) for line in lines[1:]]
    assert times == [0.0, 1.0, 3.0]


# horizon factors below, at and above 1, and a horizon one ulp either side of beta
@pytest.mark.parametrize("horizon_factor", [0.3, 1.0, 6.5, np.nextafter(1.0, 0.0),
                                            np.nextafter(1.0, 2.0)])
@pytest.mark.parametrize("beta", [0.5, 50.0, 100.0, 200.0])
def test_autocorr_times_is_the_sorted_unique_default_grid(beta, horizon_factor):
    horizon = horizon_factor * beta
    near = np.linspace(0.0, min(beta, horizon), 11)
    far = np.linspace(min(beta, horizon), horizon, 18)[1:]
    expected = np.unique(np.concatenate([near, far]))
    got = _autocorr_times(SimpleNamespace(t_grid=None, horizon_factor=horizon_factor), beta)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_autocorr_times_passes_a_custom_grid_through():
    t_grid = [0.0, 0.5, 1.0, 3.0, 40.0]
    got = _autocorr_times(SimpleNamespace(t_grid=t_grid, horizon_factor=6.5), 100.0)
    assert got.tobytes() == np.asarray(t_grid, dtype=float).tobytes()


def test_rows_report_the_time_evolved_to(tmp_path):
    # 0.03 and 0.07 round to steps 2 and 4 of dt = 0.02: the rows, and the
    # half-life and persistence checks that read them, carry 0.04 and 0.08
    body = {"experiment": "autocorrelation", "seed": 1, "N_list": [7], "beta_list": [20.0],
            "n_samples": 5, "t_grid": [0.0, 0.03, 0.07], "persistence_betas": [20.0]}
    run(validate_config(json.dumps(body)), tmp_path / "autocorrelation")
    with open(tmp_path / "autocorrelation" / "autocorrelation_results.csv") as fh:
        assert [r["t"] for r in csv.DictReader(fh)] == ["0.0", "0.04", "0.08"]
    # beta^(1 - a) = 50^0.6 = 10.456 is step 523, t = 10.46
    body = {"experiment": "chebyshev", "seed": 1, "N_list": [7], "beta_list": [50.0, 100.0],
            "n_samples": 5}
    run(validate_config(json.dumps(body)), tmp_path / "chebyshev")
    with open(tmp_path / "chebyshev" / "chebyshev_results.csv") as fh:
        assert [float(r["t"]) for r in csv.DictReader(fh)] == [523 * 0.02, 792 * 0.02]


def test_run_without_any_check_fails(tmp_path, capsys, monkeypatch):
    # no valid config of a registered experiment reaches the fallback (the last
    # one, a single beta outside persistence_betas, is refused), so an
    # experiment whose compute returns no check stands in
    spec = EXPERIMENTS["theorem2-h1"]
    monkeypatch.setitem(EXPERIMENTS, "theorem2-h1", dataclasses.replace(
        spec, compute=lambda cfg, threads: ([], [], {})))
    cfg = validate_config(json.dumps({"experiment": "theorem2-h1", "seed": 1}))
    assert run(cfg, tmp_path) == 1
    summary = (tmp_path / "theorem2-h1_summary.txt").read_text()
    assert summary == "FAIL  no check ran\nFAIL  overall: theorem2-h1\n"
    assert "first failing criterion: no check ran" in capsys.readouterr().err


def test_schema_file_matches_code():
    # the file is json.dumps(experiment_schema(), indent=2, sort_keys=True) plus "\n"
    repo_root = Path(__file__).resolve().parents[1]
    shipped = json.loads((repo_root / "csv_schema.json").read_text())
    assert shipped == experiment_schema()


def test_example_configs_validate():
    repo_root = Path(__file__).resolve().parents[1]
    for path in sorted((repo_root / "configs").glob("*.json")):
        cfg = validate_config(path.read_text())
        assert cfg.seed is not None


def test_ratio_scaling_refuses_a_vanishing_profile(tmp_path):
    # g = 0 makes Phi, its spread and its drift 0: the slopes would be nan
    body = dict(GOLDEN_CONFIGS["ratio-scaling"], experiment="ratio-scaling", seed=7,
                profile={"kind": "constant", "value": 0.0})
    with pytest.raises(ConfigError, match="field 'profile': g vanishes at every mode of N=15"):
        validate_config(json.dumps(body))
    assert _exit_codes(tmp_path, body) == (2, 2)


@pytest.mark.parametrize("experiment", ["chebyshev", "lemma3-scan", "homological",
                                        "autocorrelation"])
def test_every_packet_experiment_refuses_a_vanishing_profile(tmp_path, experiment):
    # chebyshev and lemma3-scan divided by the zero spread, homological passed
    # on 0 <= 1e-9 and autocorrelation failed on C/C0 = nan
    body = {"experiment": experiment, "seed": 1, "N_list": [7], "beta_list": [50.0, 100.0],
            "n_samples": 8, "profile": {"kind": "constant", "value": 0.0}}
    with pytest.raises(ConfigError, match="field 'profile': g vanishes at every mode of N=7"):
        validate_config(json.dumps(body))
    assert _exit_codes(tmp_path, body) == (2, 2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, message", [
    # packets 0 and 3 of 4 held no mode: exceed rate 1.0, C/C0 nan, and a
    # union-bound PASS on them
    ({"N_list": [5], "beta_list": [100.0], "n_samples": 8},
     "field 'K': g of packet 0 vanishes at every mode of N=5"),
    # all 16 packets empty
    ({"N_list": [7], "K": 16}, "field 'K': g of packet 0 vanishes at every mode of N=7"),
])
def test_multi_packet_refuses_an_empty_packet(tmp_path, body, message):
    body = dict(body, experiment="multi-packet", seed=1)
    with pytest.raises(ConfigError, match=message):
        validate_config(json.dumps(body))
    assert _exit_codes(tmp_path, body) == (2, 2)
    assert not (tmp_path / "out").exists()
    # at N = 7 each of the 4 default packets holds a mode
    validate_config(json.dumps(dict(body, N_list=[7], K=4)))


def test_narrow_tall_low_mode_packet_validates(tmp_path):
    # refused while admissibility was a central difference: g'(0) read 1.6e-4
    body = {"experiment": "chebyshev", "seed": 1, "N_list": [255],
            "profile": {"kind": "bump", "center": 0.005, "width": 0.01, "amplitude": 5.0}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    assert main(["validate", str(path)]) == 0


def test_ratio_slope_without_a_fit_is_a_named_fail(tmp_path, monkeypatch):
    # a zero Phi1 gives sigma_phi1/sigma_phi0 = 0, which fit_power_law refuses
    phi_dot = experiments.packet_mod.phi_dot

    def without_phi1(state, pk, params):
        v0, _, drift = phi_dot(state, pk, params)
        return v0, 0.0, drift

    monkeypatch.setattr(experiments.packet_mod, "phi_dot", without_phi1)
    body = dict(GOLDEN_CONFIGS["ratio-scaling"], experiment="ratio-scaling", seed=7)
    assert run(validate_config(json.dumps(body)), tmp_path) == 1
    lines = (tmp_path / "ratio-scaling_summary.txt").read_text().splitlines()
    assert ("FAIL  sigma_phi1/sigma_phi0 slope N=15: not fitted, "
            "power-law fit needs positive data") in lines
    assert lines[0].startswith("PASS  ratio slope N=15: ")
    assert lines[-1] == "FAIL  overall: ratio-scaling"
    metadata = json.loads((tmp_path / "ratio-scaling_metadata.json").read_text())
    assert "failure" not in metadata and "N=15,beta=50" in metadata["diagnostics"]


@pytest.mark.parametrize("experiment, body, builds", [
    ("homological", {"N_list": [7, 9], "beta_list": [50.0, 100.0], "n_samples": 3}, [7, 9]),
    ("ratio-scaling", {"N_list": [7], "beta_list": [50.0, 100.0, 200.0, 400.0],
                       "n_samples": 3}, [7]),
    ("lemma3-scan", {"N_list": [7, 9], "beta_list": [50.0, 100.0, 200.0], "n_samples": 3,
                     "kinds": ["Phi0", "Phi1", "H1"]}, [7, 9]),
])
def test_one_corrector_table_per_n(tmp_path, monkeypatch, experiment, body, builds):
    # consecutive cells at one N share the process's cached table
    built = []

    def counting(profile, N, *args, **kwargs):
        built.append(N)
        return build_phi1_table(profile, N, *args, **kwargs)

    experiments._cached_table.cache_clear()
    monkeypatch.setattr(experiments, "build_phi1_table", counting)
    cfg = validate_config(json.dumps(dict(body, experiment=experiment, seed=7)))
    run(cfg, tmp_path)
    experiments._cached_table.cache_clear()     # no counted table outlives the test
    assert built == builds
    diags = json.loads((tmp_path / f"{experiment}_metadata.json").read_text())["diagnostics"]
    if experiment == "homological":     # its table's smallest denominator is in the CSV
        return
    for N in builds:
        denominator = build_phi1_table(make_profile(cfg.profile), N).min_denominator
        cells = [d for key, d in diags.items() if f"N={N}," in key and "Phi0" not in key
                 and "H1" not in key]
        assert len(cells) == len(cfg.beta_list)
        assert all(d["min_denominator"] == denominator for d in cells)


@pytest.mark.parametrize("experiment", ["autocorrelation", "chebyshev", "multi-packet"])
def test_evolved_cells_record_their_energy_error(tmp_path, experiment):
    body = dict(GOLDEN_CONFIGS[experiment], experiment=experiment, seed=7)
    cfg = validate_config(json.dumps(body))
    run(cfg, tmp_path)
    diags = json.loads((tmp_path / f"{experiment}_metadata.json").read_text())["diagnostics"]
    cells = [diags[f"N={N},beta={beta:g}"] for N in cfg.N_list for beta in cfg.beta_list]
    for diag in cells:
        # leapfrog at dt = 0.02 holds H to about 1e-4 of itself on these runs
        assert 0.0 < diag["energy_rel_err"] < 1e-3


@pytest.mark.parametrize("experiment", ["autocorrelation", "chebyshev", "multi-packet"])
def test_evolved_cells_record_their_stage_times(tmp_path, experiment):
    body = dict(GOLDEN_CONFIGS[experiment], experiment=experiment, seed=7)
    cfg = validate_config(json.dumps(body))
    run(cfg, tmp_path, threads=1)
    meta = json.loads((tmp_path / f"{experiment}_metadata.json").read_text())
    cells = [meta["diagnostics"][f"N={N},beta={beta:g}"]
             for N in cfg.N_list for beta in cfg.beta_list]
    total = 0.0
    for diag in cells:
        assert set(diag["stage_s"]) == {"sample", "integrate", "observe"}
        assert all(v >= 0.0 for v in diag["stage_s"].values())
        total += sum(diag["stage_s"].values())
    # one process runs the cells one after another inside the timed run
    assert total <= meta["wall_time_seconds"]


def test_phi0_flow_memory_does_not_grow_with_the_observed_steps():
    # the flow hands each observed state to an observer that keeps Phi0, so 40
    # observed steps peak within one (B, N) array of 2.  The (K, steps, B)
    # output itself grows by 38 B floats, less than B N at N = 63
    N, B, beta = 63, 64, 100.0
    cfg = validate_config(json.dumps({"experiment": "autocorrelation", "seed": 1,
                                      "N_list": [N], "beta_list": [beta], "n_samples": B,
                                      "t_grid": [0.0, 1.0]}))
    seed = np.random.SeedSequence(1, spawn_key=(0,))
    _phi0_flow(cfg, seed, N, beta, [0, 1])    # numpy's and the packet weights' setup
    peaks = []
    for steps in ([0, 39], list(range(40))):
        tracemalloc.start()
        try:
            _phi0_flow(cfg, seed, N, beta, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < B * N * np.dtype(float).itemsize, peaks


@pytest.mark.parametrize("experiment", [name for name, spec in EXPERIMENTS.items()
                                        if "beta_list" in spec.keys])
def test_every_sampling_cell_records_its_constraint_residual(tmp_path, experiment):
    body = dict(GOLDEN_CONFIGS[experiment], experiment=experiment, seed=7)
    cfg = validate_config(json.dumps(body))
    run(cfg, tmp_path)
    diags = json.loads((tmp_path / f"{experiment}_metadata.json").read_text())["diagnostics"]
    samplers = {key: diag for key, diag in diags.items() if key != "tilted_density"}
    assert samplers
    for key, diag in samplers.items():
        N = int(re.search(r"N=(\d+)", key).group(1))
        assert 0.0 <= diag["abs_sum_r"] <= experiments.THRESHOLDS["sum_r_tol"] * (N + 1), key


def test_sampler_validation_solves_theta_once_per_beta(tmp_path, monkeypatch):
    calls = []
    solve = gibbs.solve_theta
    monkeypatch.setattr(gibbs, "solve_theta", lambda *a, **k: calls.append(a) or solve(*a, **k))
    # lemma5 alone reads theta for its reference and again for run()'s metadata:
    # still one solve
    gibbs._tilted_density.cache_clear()
    body = dict(GOLDEN_CONFIGS["sampler-validation"], experiment="sampler-validation", seed=7)
    lemma5 = {key: v for key, v in body.items() if key not in ("n_samples", "moments_N",
                                                                "slab_samples")}
    run(validate_config(json.dumps(dict(lemma5, checks=["lemma5"]))), tmp_path / "lemma5")
    assert len(calls) == 1
    calls.clear()
    gibbs._tilted_density.cache_clear()
    cfg = validate_config(json.dumps(body))
    run(cfg, tmp_path)
    assert len(calls) == len(set(cfg.beta_list)) == 1
    tilted = json.loads((tmp_path / "sampler-validation_metadata.json").read_text())[
        "diagnostics"]["tilted_density"]
    beta = cfg.beta_list[0]
    gibbs._tilted_density.cache_clear()
    td = tilted_density(beta, cfg.A)
    assert tilted == {f"beta={beta:g}": {"theta": td.theta, "q_theta": td.q_theta,
                                         "moments": td.moments.tolist()}}


def test_draw_and_flow_helpers_keep_the_sampler_s_draws():
    # the cells' one draw path is n successive sample() draws, bit for bit, and
    # the flow core's step-0 plane is Phi0 of exactly those states
    N, n, K, beta = 15, 8, 2, 100.0
    cfg = validate_config(json.dumps({"experiment": "multi-packet", "seed": 5, "N_list": [N],
                                      "beta_list": [beta], "n_samples": n, "K": K}))
    params, states, diag = _draw(cfg, np.random.SeedSequence(5, spawn_key=(0,)), N, beta)
    ref = GibbsSampler(ChainParams(N=N, A=cfg.A, beta=beta),
                       np.random.SeedSequence(5, spawn_key=(0,)))
    draws = [ref.sample() for _ in range(n)]
    assert params == ref.params
    assert states.p.tobytes() == np.stack([d.p for d in draws]).tobytes()
    assert states.q.tobytes() == np.stack([d.q for d in draws]).tobytes()
    assert diag == ref.diagnostics()

    weights = [mode_weights(p, N)[1] for p in disjoint_profiles(K)]
    steps = [0, 5, 20]
    vals, flow_diag = _phi0_flow(cfg, np.random.SeedSequence(5, spawn_key=(0,)), N, beta, steps)
    assert vals.shape == (K, len(steps), n)
    for l, nu_k in enumerate(weights):
        assert vals[l, 0].tobytes() == phi0(states, nu_k).tobytes()
    snaps = evolve_batch(states, params, cfg.dt, steps[1:], copied)
    h0 = energy(states, cfg.A)
    worst = max(float((np.abs(energy(s, cfg.A) - h0) / np.abs(h0)).max()) for s in snaps)
    stage_s = flow_diag.pop("stage_s")      # wall-clock times, see the stage timer test
    assert flow_diag == {"energy_rel_err": worst, **diag}
    assert set(stage_s) == {"sample", "integrate", "observe"}
