"""The traced benchmark (perfbench/tracing.py) wraps the package from outside.

It looks up `GibbsSampler.sample_states` by name, binds the `burn_in`
argument of `GibbsSampler.__init__` and reads the ensemble and the step
targets that `chain.evolve_batch` is called with; this checks that installing
it and running under it still work, since perfbench's own tests are not part
of this suite.  A traced autocorrelation run pins the flow's Phi0 and energy
spans under its `evolve_batch` span, which the benchmark's `chain.evolve_s`
(self time) and `packet.phi0_s` rely on.  A traced ratio-scaling run also pins the corrector to one
forward transform of each observed state, and the draws to one traced
`sample()` span per state under one `sample_states` span per cell: the
benchmark's `gibbs.draws` and `gibbs.sample_s` read those spans.
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


def _traced_run(tmp_path, body) -> tuple[int, dict, dict, list]:
    """Run `body` under the installed tracer into tmp_path/traced and untraced
    into tmp_path/plain; assert both wrote the same CSV bytes and return the
    traced run's exit code, counters, span counts by name and spans as
    (name, index of the parent span) in start order."""
    code = (f"import sys, json; sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
            "from collections import Counter\n"
            "import tracing\n"
            "from fpu_packets import experiments\n"
            "tracer = tracing.Tracer('t')\n"
            "tracing.install(tracer)\n"
            f"cfg = experiments.validate_config({json.dumps(body)!r})\n"
            f"code = experiments.run(cfg, {str(tmp_path / 'traced')!r})\n"
            "names = [tracer.names[i] for i in tracer.name_idx]\n"
            "print(json.dumps({'code': code, 'counters': dict(tracer.counters), "
            "'spans': dict(Counter(names)), 'tree': list(zip(names, tracer.parent))}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert run(validate_config(json.dumps(body)), tmp_path / "plain") == result["code"]
    name = f"{body['experiment']}_results.csv"
    assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    return result["code"], result["counters"], result["spans"], result["tree"]


def test_traced_run_counts_steps_and_keeps_the_csv(tmp_path):
    # a traced run goes through the wrapped evolve_batch, whose step counter
    # reads its (B, N) ensemble argument
    body = {"experiment": "autocorrelation", "seed": 3, "N_list": [7],
            "beta_list": [100.0], "persistence_betas": [100.0], "n_samples": 4,
            "t_grid": [0.0, 1.0]}
    code, counters, spans, tree = _traced_run(tmp_path, body)
    assert code == 0
    assert counters["chain.particle_steps"] == 4 * 7 * 50   # B * N * max step
    # Phi0 reads only the packet weights: no corrector table, so no triples
    assert counters.get("packet.triples", 0) == 0
    # the flow's observer runs inside the cell's evolve_batch span: its self
    # time (chain.evolve_s) excludes Phi0 and H, and packet.phi0_s counts Phi0
    (flow,) = [i for i, (name, _) in enumerate(tree) if name == "chain.evolve_batch"]
    observed = [parent for name, parent in tree if name in ("packet.phi0", "chain.energy")]
    assert spans["packet.phi0"] == spans["chain.energy"] == 2    # one each per time
    assert observed == [flow] * 4


def test_traced_ratio_run_transforms_each_state_once(tmp_path):
    # phi_dot transforms p and q forward once and the force once, for the
    # momentum leg of its direction: 3 sine-transform rows per observed state
    body = {"experiment": "ratio-scaling", "seed": 3, "N_list": [15],
            "beta_list": [50.0, 100.0, 200.0], "n_samples": 4}
    _, counters, spans, _ = _traced_run(tmp_path, body)
    assert counters["spectral.transform_rows"] == 3 * 12   # 3 betas x 4 states
    assert spans["gibbs.GibbsSampler.sample"] == 12
    assert spans["gibbs.GibbsSampler.sample_states"] == 3
