"""Golden outputs: a small seed-7 config of every experiment must reproduce
`tests/golden/<experiment>.csv` and `tests/golden/<experiment>_summary.txt`
byte for byte.

A change that leaves the random streams alone must keep these files.  A change
that alters a stream on purpose regenerates them and says so:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from fpu_packets import experiments
from fpu_packets.experiments import run, validate_config

GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIGS = {
    "homological": {"N_list": [15], "beta_list": [50.0, 100.0], "n_samples": 6},
    "ratio-scaling": {"N_list": [15], "beta_list": [50.0, 100.0, 200.0], "n_samples": 6},
    "autocorrelation": {"N_list": [15], "beta_list": [50.0, 100.0], "n_samples": 4,
                        "t_grid": [0.0, 1.0, 2.0, 4.0]},
    "lemma3-scan": {"N_list": [15, 31], "beta_list": [50.0, 100.0], "n_samples": 8},
    "chebyshev": {"N_list": [15], "beta_list": [50.0, 100.0], "n_samples": 8},
    "multi-packet": {"N_list": [15], "beta_list": [100.0], "n_samples": 8, "K": 2},
    "theorem2-h1": {"grid_sizes": [32, 64]},
    "sampler-validation": {"n_samples": 20, "moments_N": 16, "slab_samples": 20,
                           "lemma5_N": [8, 16], "lemma5_samples": 20},
}


def _outputs(experiment, out_dir) -> dict[str, bytes]:
    """The golden file name -> bytes of the run of CONFIGS[experiment]."""
    body = dict(CONFIGS[experiment], experiment=experiment, seed=7)
    run(validate_config(json.dumps(body)), out_dir)
    out = Path(out_dir)
    return {f"{experiment}.csv": (out / f"{experiment}_results.csv").read_bytes(),
            f"{experiment}_summary.txt": (out / f"{experiment}_summary.txt").read_bytes()}


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_csv_matches_golden(tmp_path, experiment):
    name = f"{experiment}.csv"
    assert _outputs(experiment, tmp_path)[name] == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_summary_matches_golden(tmp_path, experiment):
    # the PASS/FAIL lines, which the CSV bytes alone do not pin
    name = f"{experiment}_summary.txt"
    assert _outputs(experiment, tmp_path)[name] == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("experiment", ["autocorrelation", "chebyshev", "multi-packet"])
def test_phi0_experiments_build_no_corrector_table(tmp_path, monkeypatch, experiment):
    # Phi0 reads only the packet weights, so these runs never need the O(N^2) table
    def refuse(*args, **kwargs):
        raise AssertionError("build_phi1_table called")

    monkeypatch.setattr(experiments, "build_phi1_table", refuse)
    name = f"{experiment}.csv"
    assert _outputs(experiment, tmp_path)[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for experiment in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in _outputs(experiment, tmp).items():
                (GOLDEN / name).write_bytes(data)
                print(f"wrote {GOLDEN / name}", file=sys.stderr)
