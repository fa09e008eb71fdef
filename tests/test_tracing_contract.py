"""The traced benchmark (perfbench/tracing.py) wraps the package from outside.

It looks up `GibbsSampler.sample_states` by name and binds the `burn_in`
argument of `GibbsSampler.__init__`; this checks that installing it still
works, since perfbench's own tests are not part of this suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs():
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
            "import tracing\n"
            "tracing.install(tracing.Tracer('t'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
