"""Tests of the benchmark's tracing, on small configs of each workload's experiment.

    python3 -m pytest perfbench -q        (from the repository root)
"""

import hashlib
import json
from pathlib import Path

import pytest

import run
import tracing

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "ratio-scaling": {"experiment": "ratio-scaling", "N_list": [15],
                      "beta_list": [50.0, 100.0, 200.0], "n_samples": 6},
    "autocorrelation": {"experiment": "autocorrelation", "N_list": [15],
                        "beta_list": [50.0, 100.0], "n_samples": 4,
                        "t_grid": [0.0, 1.0, 2.0, 4.0]},
    "sampler-validation": {"experiment": "sampler-validation", "n_samples": 20,
                           "moments_N": 16, "slab_samples": 20, "lemma5_N": [8, 16],
                           "lemma5_samples": 20},
    "theorem2-h1": {"experiment": "theorem2-h1", "grid_sizes": [32, 64]},
}
COUNTS = ["gibbs.sweeps", "chain.particle_steps", "packet.triples",
          "profiles.grid_points", "spectral.transform_rows"]


@pytest.fixture(scope="module", params=sorted(SMALL))
def runs(request, tmp_path_factory):
    """One untraced and two traced runs of a small config at seed 7."""
    base = tmp_path_factory.mktemp(request.param)
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(dict(SMALL[request.param], seed=7)))
    reps = [run.run_child(ROOT, cfg_path, base / name, timeout=120, trace_id=trace_id)
            for name, trace_id in (("plain", None), ("traced_a", "a"), ("traced_b", "b"))]
    for rep in reps:
        assert "exit_code" in rep, rep["log_tail"]
    return request.param, reps


def _csv_sha(rep, experiment):
    return hashlib.sha256((rep["dir"] / "out" / f"{experiment}_results.csv")
                          .read_bytes()).hexdigest()


def _reduced(rep):
    return tracing.reduce(tracing.load(rep["dir"] / "spans.npz"))


def test_traced_run_writes_identical_csv(runs):
    experiment, (plain, traced_a, traced_b) = runs
    assert _csv_sha(plain, experiment) == _csv_sha(traced_a, experiment)
    assert _csv_sha(plain, experiment) == _csv_sha(traced_b, experiment)


def test_layer_self_times_add_up_to_root(runs):
    _, (_, traced, _) = runs
    m = _reduced(traced)
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert m["experiments.run_s"] > 0
    assert total == pytest.approx(m["experiments.run_s"], rel=1e-12, abs=1e-9)


def test_counts_repeat_across_traced_runs(runs):
    _, (_, traced_a, traced_b) = runs
    a, b = _reduced(traced_a), _reduced(traced_b)
    assert [a[k] for k in COUNTS] == [b[k] for k in COUNTS]
    assert a["trace.spans"] == b["trace.spans"]
    assert a["gibbs.accept_ratio"] == b["gibbs.accept_ratio"]


def test_every_per_layer_metric_is_reported(runs):
    _, (_, traced, _) = runs
    m = _reduced(traced)
    names = {name for name, _ in tracing.PER_LAYER_METRICS}
    assert names - {"experiments.bytes_written", "trace.overhead_frac"} == set(m)
