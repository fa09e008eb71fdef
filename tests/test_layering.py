"""The package's modules form layers, and each imports only the package
modules listed for it here.  `chain`, `profiles` and `stats` are leaves: the
estimators work on arrays alone, so no flow or sampler hides behind an error
bar.  `spectral` and `gibbs` sit on `chain`, `packet` on `chain`, `spectral`
and `profiles`, and only `experiments` sees everything below it.  The
package's `__init__` imports none of them: its API is its modules.  Outside
the package, a module imports the standard library and numpy only; scipy and
pytest are the tests' own dependencies.

Within `experiments`, the grid cells draw their Gibbs ensembles in one
function and evolve them in one function, so a change to the sampler or the
integrator lands in one place.  One helper names the packets the cells
observe, and only validation's empty-packet check and the flow core turn
them into mode weights."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fpu_packets"
THIRD_PARTY = {"numpy"}
LAYERS = {
    "chain": set(),
    "profiles": set(),
    "stats": set(),
    "spectral": {"chain"},
    "gibbs": {"chain"},
    "packet": {"chain", "spectral", "profiles"},
    "experiments": {"chain", "gibbs", "packet", "profiles", "spectral", "stats"},
    "__init__": set(),
}


def package_imports(source: str) -> set[str]:
    """The package modules a source imports anywhere in its body, by name;
    `import fpu_packets` counts as `__init__`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "fpu_packets":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:                         # from . import spectral
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "fpu_packets":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_package_imports_sees_every_import_form():
    source = ("import numpy as np\nfrom dataclasses import dataclass\n"
              "from . import spectral\nfrom .chain import ChainState\n"
              "import fpu_packets\nimport fpu_packets.gibbs\n"
              "from fpu_packets import stats\nfrom fpu_packets.profiles import g\n"
              "def f():\n    from .packet import phi1\n")
    assert package_imports(source) == {"spectral", "chain", "__init__", "gibbs",
                                       "stats", "profiles", "packet"}


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_its_layers(module):
    imported = package_imports((SRC / f"{module}.py").read_text())
    assert imported <= LAYERS[module], f"{module} imports {sorted(imported - LAYERS[module])}"


def outside_imports(source: str) -> set[str]:
    """The top-level names of the absolute imports outside the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found - {"fpu_packets"}


def test_outside_imports_sees_every_import_form():
    source = ("import numpy as np\nimport os.path\nfrom scipy.optimize import brentq\n"
              "from . import spectral\nimport fpu_packets.gibbs\n"
              "def f():\n    import json\n")
    assert outside_imports(source) == {"numpy", "os", "scipy", "json"}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_stdlib_and_numpy(module):
    imported = outside_imports((SRC / f"{module}.py").read_text())
    stray = imported - set(sys.stdlib_module_names) - THIRD_PARTY
    assert not stray, f"{module} imports {sorted(stray)}"


def test_run_loads_no_scipy(tmp_path):
    body = {"experiment": "ratio-scaling", "seed": 3, "N_list": [15],
            "beta_list": [50.0, 100.0, 200.0], "n_samples": 4}
    code = (f"import sys, json; sys.path.insert(0, {str(SRC.parent)!r})\n"
            "import fpu_packets\n"
            "from fpu_packets import experiments\n"
            f"cfg = experiments.validate_config({json.dumps(body)!r})\n"
            f"experiments.run(cfg, {str(tmp_path)!r})\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


# a one-worker run imports neither the process pool nor numpy.ma, and a run
# that builds no profile does not import numpy.polynomial
ONE_WORKER_UNUSED = {"scipy", "concurrent", "multiprocessing", "numpy.ma"}


@pytest.mark.parametrize("body, unused", [
    ({"experiment": "autocorrelation", "seed": 3, "N_list": [15], "beta_list": [20.0],
      "persistence_betas": [20.0], "n_samples": 4}, ONE_WORKER_UNUSED),
    ({"experiment": "sampler-validation", "seed": 3, "n_samples": 200, "moments_N": 8,
      "slab_samples": 200, "lemma5_N": [8, 16], "lemma5_samples": 200},
     ONE_WORKER_UNUSED | {"numpy.polynomial"}),
], ids=["autocorrelation", "sampler-validation"])
def test_one_worker_run_loads_only_what_it_executes(tmp_path, body, unused):
    code = (f"import sys, json; sys.path.insert(0, {str(SRC.parent)!r})\n"
            "from fpu_packets import experiments\n"
            f"cfg = experiments.validate_config({json.dumps(body)!r})\n"
            f"experiments.run(cfg, {str(tmp_path)!r}, threads=1)\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert [m for m in loaded if any(m == u or m.startswith(u + ".") for u in unused)] == []


def callers(source: str, name: str) -> set[str]:
    """The module-level functions and classes of a source whose bodies call
    `name`, as a plain name or an attribute; a call outside them counts as
    `<module>`."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)):
                found.add(getattr(top, "name", "<module>"))
    return found


def test_callers_sees_names_attributes_and_nested_calls():
    source = ("import numpy as np\nfrom . import chain\nx = f(1)\n"
              "def a():\n    return f()\n"
              "def b(s):\n    def inner():\n        return chain.f(s)\n    return inner\n"
              "class C:\n    def m(self):\n        return self.f\n"
              "def d():\n    return g(f)\n")
    assert callers(source, "f") == {"<module>", "a", "b"}


def test_experiments_draws_and_evolves_in_one_place():
    source = (SRC / "experiments.py").read_text()
    assert callers(source, "evolve_batch") == {"_phi0_flow"}
    assert callers(source, "GibbsSampler") == {"_draw", "_sampler_cell"}
    assert callers(source, "sample") == set()


def test_experiments_names_its_packets_in_one_place():
    source = (SRC / "experiments.py").read_text()
    assert callers(source, "disjoint_profiles") == {"_packets"}
    assert callers(source, "mode_weights") == {"validate_config", "_phi0_flow"}


def test_h1_is_evaluated_once_per_grid(tmp_path, monkeypatch):
    from fpu_packets import experiments

    source = (SRC / "experiments.py").read_text()
    assert callers(source, "eval_h1") == {"_run_theorem2"}
    calls = []
    real = experiments.eval_h1

    def counted(profiles, grid_size, *args, **kwargs):
        calls.append((grid_size, len(profiles)))
        return real(profiles, grid_size, *args, **kwargs)

    monkeypatch.setattr(experiments, "eval_h1", counted)
    # the golden theorem2-h1 config: the six default profiles and g(x) = x,
    # each grid both the smallest and the largest
    body = {"experiment": "theorem2-h1", "seed": 7, "grid_sizes": [32, 64]}
    experiments.run(experiments.validate_config(json.dumps(body)), tmp_path)
    assert calls == [(32, 7), (64, 7)]
    meta = json.loads((tmp_path / "theorem2-h1_metadata.json").read_text())
    labels = [json.dumps(spec, sort_keys=True) for spec in
              experiments.THEOREM2_FAMILY + [{"kind": "linear"}]]
    timings = meta["diagnostics"]["grids"]
    assert list(timings) == ["grid=32", "grid=64"]
    assert all(t["profiles"] == labels and t["eval_s"] > 0 for t in timings.values())
