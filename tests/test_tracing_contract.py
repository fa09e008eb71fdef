"""The traced benchmark (perfbench/tracing.py) wraps the package from outside.

It looks up `GibbsSampler.sample_states` by name, binds the `burn_in`
argument of `GibbsSampler.__init__` and reads the ensemble and the step
targets that `chain.evolve_batch` is called with; this checks that installing
it and running under it still work, since perfbench's own tests are not part
of this suite.
"""

import json
import subprocess
import sys
from pathlib import Path

from fpu_packets.experiments import run, validate_config

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs():
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
            "import tracing\n"
            "tracing.install(tracing.Tracer('t'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_traced_run_counts_steps_and_keeps_the_csv(tmp_path):
    # a traced run goes through the wrapped evolve_batch, whose step counter
    # reads its (B, N) ensemble argument
    body = {"experiment": "autocorrelation", "seed": 3, "N_list": [7],
            "beta_list": [100.0], "persistence_betas": [100.0], "n_samples": 4,
            "t_grid": [0.0, 1.0]}
    code = (f"import sys, json; sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
            "import tracing\n"
            "from fpu_packets import experiments\n"
            "tracer = tracing.Tracer('t')\n"
            "tracing.install(tracer)\n"
            f"cfg = experiments.validate_config({json.dumps(body)!r})\n"
            f"code = experiments.run(cfg, {str(tmp_path / 'traced')!r})\n"
            "print(json.dumps({'code': code, 'counters': dict(tracer.counters)}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["counters"]["chain.particle_steps"] == 4 * 7 * 50   # B * N * max step
    assert run(validate_config(json.dumps(body)), tmp_path / "plain") == 0
    name = "autocorrelation_results.csv"
    assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
