"""One benchmark repetition in a fresh interpreter.

Imports fpu_packets, validates the config, runs `experiments.run(cfg, out,
threads=1)` and writes what it measured to a JSON file:

- setup_s: from this file's first line to entering run() (the package import,
  numpy and scipy included, plus validate_config);
- wall_s: wall time of run();
- cpu_s: user + system CPU of this process and its children during run();
- peak_rss_mb: this process's maximum resident set size.

With --trace the traced functions are wrapped before validate_config and the
spans are saved after run().  With --setup-only it stops after validate_config.
The exit code is run()'s return code; a crash leaves no result file.

    python3 perfbench/child.py --config cfg.json --out DIR --result res.json \
        [--trace spans.npz --trace-id ID] [--setup-only]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--trace-id", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import fpu_packets
    from fpu_packets import experiments

    tracer = None
    if args.trace is not None:
        import tracing

        tracer = tracing.Tracer(args.trace_id)
        tracing.install(tracer)
    cfg = experiments.validate_config(args.config.read_text())
    setup_s = time.perf_counter() - T0

    result = {"setup_s": setup_s, "module_file": fpu_packets.__file__}
    rc = 0
    if not args.setup_only:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        rc = experiments.run(cfg, args.out, threads=1)
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_seconds() - cpu0
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.save(args.trace)
        result.update(exit_code=rc, wall_s=wall_s, cpu_s=cpu_s,
                      peak_rss_mb=peak_kib / 1024.0)
    result["versions"] = _versions()
    result["blas_env"] = {k: os.environ.get(k) for k in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return rc


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


if __name__ == "__main__":
    sys.exit(main())
