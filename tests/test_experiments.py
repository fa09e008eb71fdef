import json
from pathlib import Path

import pytest

from fpu_packets.experiments import (EXPERIMENTS, ConfigError, experiment_schema, main,
                                     run, validate_config)

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
])
def test_rejects_bad_or_vacuous_values(tmp_path, experiment, key, value):
    body = {"experiment": experiment, "seed": 1, key: value}
    with pytest.raises(ConfigError, match=f"field '{key}'"):
        validate_config(json.dumps(body))
    assert _exit_codes(tmp_path, body) == (2, 2)


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


def test_run_autocorrelation_custom_grid(tmp_path):
    body = {"experiment": "autocorrelation", "seed": 2, "N_list": [15],
            "beta_list": [20.0], "n_samples": 12, "t_grid": [0.0, 1.0, 3.0],
            "persistence_betas": [20.0]}
    cfg = validate_config(json.dumps(body))
    assert run(cfg, tmp_path) == 0
    lines = (tmp_path / "autocorrelation_results.csv").read_text().splitlines()
    times = [float(line.split(",")[2]) for line in lines[1:]]
    assert times == [0.0, 1.0, 3.0]


def test_run_without_any_check_fails(tmp_path, capsys):
    # one beta, not in persistence_betas: no persistence and no half-life check
    body = {"experiment": "autocorrelation", "seed": 1, "N_list": [15],
            "beta_list": [20.0], "n_samples": 4, "t_grid": [0.0, 1.0]}
    assert run(validate_config(json.dumps(body)), tmp_path) == 1
    summary = (tmp_path / "autocorrelation_summary.txt").read_text()
    assert summary == "FAIL  no check ran\nFAIL  overall: autocorrelation\n"
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
