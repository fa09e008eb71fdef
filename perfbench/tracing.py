"""Span tracer for the benchmark's traced runs, and its reduction to per-layer metrics.

`install` wraps, from outside the package, the public functions of the seven
layers (`chain`, `spectral`, `packet`, `gibbs`, `profiles`, `stats`,
`experiments`) and the methods of `GibbsSampler`.  Every by-name import of a
wrapped function inside the package (for example `experiments.eval_h1`) is
rebound to the same wrapper, so calls are traced whichever name they use.

Each call becomes a span: name, start, end (`perf_counter_ns`) and the index of
the span that was open when it started.  Spans live in flat integer arrays in
memory and are written once, by `save`, as one `.npz` file per traced run.  A
few wrapped functions also bump counters computed from their arguments or
return value (particle-steps, transformed rows, resonant triples, sweeps, grid
points); the wrappers only read, so the program's random streams and outputs
are unchanged.

Three chain helpers stay unwrapped: `potential_v`, `potential_dv` and
`bond_extensions` are elementwise kernels that the sampler and the packet
gradients call inside their own loops.  Their time counts as self time of the
calling layer, which is where an optimisation of those loops would show.

`reduce` turns one saved trace into the per-layer metrics listed in
`PER_LAYER_METRICS`.  A span's self time is its duration minus the durations
of its direct children (calls nest strictly in this single-threaded program).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = ("chain", "spectral", "packet", "gibbs", "profiles", "stats", "experiments")
UNWRAPPED = {"chain.potential_v", "chain.potential_dv", "chain.bond_extensions"}
SAMPLER_METHODS = ("__init__", "sweep", "sample", "sample_states", "diagnostics")
ROOT = "experiments.run"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# ------------------------------------------------------------------ counters
# Each hook reads the call's arguments or result and adds to the counters.

def _count_evolve_batch(c, args, kwargs, result):
    states = _arg(args, kwargs, 0, "states")
    targets = [int(s) for s in _arg(args, kwargs, 3, "step_targets")]
    if states and targets:
        c["chain.particle_steps"] += len(states) * states[0].n * max(targets)


def _count_integrate(c, args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    dt = _arg(args, kwargs, 2, "dt")
    t_final = _arg(args, kwargs, 3, "t_final")
    c["chain.particle_steps"] += state.n * int(math.floor(t_final / dt + 1e-9))


def _count_sine_transform(c, args, kwargs, result):
    v = np.asarray(_arg(args, kwargs, 0, "v"))
    c["spectral.transform_rows"] += v.size // v.shape[-1]


def _count_table(c, args, kwargs, result):
    c["packet.triples"] += result.n_triples


def _count_sweep(c, args, kwargs, result):
    sampler = args[0]
    n = _arg(args, kwargs, 1, "n", 1)
    c["gibbs.sweeps"] += n
    c["gibbs.site_sweeps"] += n * (sampler.params.N + 1)


def _count_slab(c, args, kwargs, result):
    c["gibbs.slab_rows"] += result.shape[0]


def _count_eval_h1(c, args, kwargs, result):
    g = _arg(args, kwargs, 1, "grid_size", 1024)
    c["profiles.grid_points"] += 8 * (g + 1) ** 2


COUNTERS = {
    "chain.evolve_batch": _count_evolve_batch,
    "chain.integrate": _count_integrate,
    "spectral.sine_transform": _count_sine_transform,
    "packet.build_phi1_table": _count_table,
    "gibbs.GibbsSampler.sweep": _count_sweep,
    "gibbs.slab_rejection_bonds": _count_slab,
    "profiles.eval_h1": _count_eval_h1,
}


class Tracer:
    """Records spans and counters for one run of the program."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names: list[str] = []
        self.name_idx = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._samplers = []   # (sampler, burn_in) for the acceptance ratio

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_idx.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return wrapper

    def _wrap_sampler_init(self, init):
        wrapped = self.wrap("gibbs.GibbsSampler.__init__", init)
        sig = inspect.signature(init)

        @functools.wraps(init)
        def register(*args, **kwargs):
            wrapped(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self._samplers.append((args[0], bound.arguments["burn_in"]))

        return register

    def acceptance(self) -> tuple[float, float]:
        """(accepted, proposed) pair moves after burn-in, over every sampler,
        from each sampler's public acceptance_rate and sweep count."""
        accepted = proposed = 0.0
        for s, burn_in in self._samplers:
            moves = (s.n_sweeps - burn_in) * 2 * ((s.params.N + 1) // 2)
            proposed += moves
            accepted += s.acceptance_rate * moves
        return accepted, proposed

    def save(self, path: Path) -> None:
        accepted, proposed = self.acceptance()
        meta = {"trace_id": self.trace_id, "names": self.names,
                "counters": dict(self.counters),
                "accepted": accepted, "proposed": proposed}
        np.savez(path, name_idx=np.frombuffer(self.name_idx, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 meta=np.array(json.dumps(meta)))


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported fpu_packets package."""
    package = importlib.import_module("fpu_packets")
    modules = {layer: importlib.import_module(f"fpu_packets.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or f"{layer}.{name}" in UNWRAPPED):
                continue
            wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)
    for mod in (package, *modules.values()):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
    cls = modules["gibbs"].GibbsSampler
    for meth in SAMPLER_METHODS:
        fn = vars(cls)[meth]
        setattr(cls, meth, tracer._wrap_sampler_init(fn) if meth == "__init__"
                else tracer.wrap(f"gibbs.GibbsSampler.{meth}", fn))


# ----------------------------------------------------------------- reduction

# (metric, how, span names).  "self": summed self time of those spans.
# "nested": self time of the span's layer inside calls to those functions made
# from another layer (nested same-layer helpers count toward their entry call).
# "total": summed duration.  All but experiments.validate_s are restricted to
# the run() tree.
_TIMED = [
    ("chain.evolve_s", "self", ("chain.evolve_batch", "chain.integrate")),
    ("spectral.transform_s", "self", ("spectral.sine_transform",)),
    ("packet.phi_dot_s", "nested", ("packet.phi_dot",)),
    ("packet.phi1_s", "nested", ("packet.phi1",)),
    ("packet.phi0_s", "nested", ("packet.phi0",)),
    ("packet.table_s", "nested", ("packet.build_phi1_table",)),
    ("gibbs.sweep_s", "self", ("gibbs.GibbsSampler.sweep",)),
    ("gibbs.sample_s", "self", ("gibbs.GibbsSampler.sample", "gibbs.GibbsSampler.sample_states",
                                "gibbs.sample_momenta", "gibbs.bonds_to_state")),
    ("gibbs.init_s", "total", ("gibbs.GibbsSampler.__init__",)),
    ("gibbs.theta_s", "self", ("gibbs.solve_theta",)),
    ("gibbs.slab_s", "self", ("gibbs.slab_rejection_bonds",)),
    ("profiles.eval_h1_s", "nested", ("profiles.eval_h1",)),
    ("stats.ratio_theorem1_self_s", "self", ("stats.ratio_theorem1",)),
    ("stats.autocorrelation_self_s", "self", ("stats.autocorrelation",)),
    ("stats.half_life_jackknife_self_s", "self", ("stats.half_life_jackknife",)),
]
# (metric, how, span names) counted in the run() tree: "entry" counts calls
# made from another layer (matching the "nested" times), "all" every call.
_CALLS = [
    ("packet.phi_dot_calls", "entry", ("packet.phi_dot",)),
    ("packet.phi1_calls", "entry", ("packet.phi1",)),
    ("packet.phi0_calls", "entry", ("packet.phi0",)),
    ("packet.table_calls", "entry", ("packet.build_phi1_table",)),
    ("gibbs.draws", "all", ("gibbs.GibbsSampler.sample",)),
    ("gibbs.init_calls", "all", ("gibbs.GibbsSampler.__init__",)),
    ("gibbs.theta_calls", "all", ("gibbs.solve_theta",)),
    ("profiles.eval_h1_calls", "entry", ("profiles.eval_h1",)),
]
# (metric, numerator, denominator, scale); 0 when the denominator is 0
_RATIOS = [
    ("chain.ns_per_particle_step", "chain.evolve_s", "chain.particle_steps", 1e9),
    ("spectral.ns_per_row", "spectral.transform_s", "spectral.transform_rows", 1e9),
    ("packet.us_per_phi_dot", "packet.phi_dot_s", "packet.phi_dot_calls", 1e6),
    ("packet.us_per_phi1", "packet.phi1_s", "packet.phi1_calls", 1e6),
    ("packet.us_per_phi0", "packet.phi0_s", "packet.phi0_calls", 1e6),
    ("gibbs.ns_per_site_sweep", "gibbs.sweep_s", "gibbs.site_sweeps", 1e9),
    ("profiles.ns_per_grid_point", "profiles.eval_h1_s", "profiles.grid_points", 1e9),
]
_COUNTED = ["chain.particle_steps", "spectral.transform_rows", "packet.triples",
            "gibbs.sweeps", "gibbs.slab_rows", "profiles.grid_points"]

# Every per-layer metric the traced benchmark run reports, with its unit.
PER_LAYER_METRICS = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(name, "s") for name, _, _ in _TIMED]
    + [(name, "count") for name, _, _ in _CALLS]
    + [(name, "ns" if ".ns_" in name else "us") for name, _, _, _ in _RATIOS]
    + [(name, "count") for name in _COUNTED]
    + [("gibbs.accept_ratio", "ratio"), ("experiments.run_s", "s"),
       ("experiments.validate_s", "s"), ("experiments.bytes_written", "bytes"),
       ("trace.spans", "count"), ("trace.overhead_frac", "ratio")]
)


def load(path: Path) -> dict:
    with np.load(path) as z:
        data = {k: z[k] for k in ("name_idx", "start", "end", "parent")}
        data["meta"] = json.loads(str(z["meta"]))
    return data


def reduce(trace: dict) -> dict:
    """Per-layer metrics of one saved trace (all but bytes_written and overhead)."""
    names = np.array(trace["meta"]["names"])
    name = names[trace["name_idx"]]
    layer = np.array([n.split(".", 1)[0] for n in names])[trace["name_idx"]]
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    n = name.size
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - child.astype(np.int64)

    roots = np.nonzero((name == ROOT) & ~has_parent)[0]
    if roots.size != 1:
        raise ValueError(f"expected one {ROOT} root span, found {roots.size}")
    r = roots[0]
    in_run = (start >= start[r]) & (end <= end[r])

    # entry span of each span: climb while the parent is in the same layer
    idx = np.arange(n)
    same = has_parent & (layer[np.maximum(parent, 0)] == layer)
    entry = np.where(same, parent, idx)
    while True:
        nxt = entry[entry]
        if np.array_equal(nxt, entry):
            break
        entry = nxt

    out = {}
    for lay in LAYERS:
        out[f"{lay}.self_s"] = float(self_ns[in_run & (layer == lay)].sum()) / 1e9
    for metric, how, fns in _TIMED:
        if how == "nested":
            sel = in_run & np.isin(name[entry], fns)
            val = self_ns[sel].sum()
        else:
            sel = in_run & np.isin(name, fns)
            val = (self_ns if how == "self" else dur)[sel].sum()
        out[metric] = float(val) / 1e9
    for metric, how, fns in _CALLS:
        sel = in_run & np.isin(name, fns)
        if how == "entry":
            sel &= entry == idx
        out[metric] = int(sel.sum())
    counters = trace["meta"]["counters"]
    for metric in _COUNTED + ["gibbs.site_sweeps"]:
        out[metric] = int(counters.get(metric, 0))
    for metric, num, den, scale in _RATIOS:
        out[metric] = out[num] * scale / out[den] if out[den] else 0.0
    del out["gibbs.site_sweeps"]
    proposed = trace["meta"]["proposed"]
    out["gibbs.accept_ratio"] = trace["meta"]["accepted"] / proposed if proposed else 0.0
    out["experiments.run_s"] = float(dur[r]) / 1e9
    out["experiments.validate_s"] = float(dur[name == "experiments.validate_config"].sum()) / 1e9
    out["trace.spans"] = int(n)
    return out
