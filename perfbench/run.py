"""fpu-packets benchmark: time experiments.run on one workload and check its outputs.

    python3 perfbench/run.py --workload drift-ratio --seed 7 --seconds 20 --trace 0

Run it from the repository root.  Each repetition runs `experiments.run(cfg,
out, threads=1)` in a fresh interpreter (perfbench/child.py) with BLAS and
OpenMP pinned to one thread, on the workload's config from
perfbench/workloads.json.  Repetitions repeat until --seconds have passed (at
least three), and every metric is the median over them.

--trace 0 prints the end-to-end metrics: wall_s, work_per_s, setup_s, cpu_s,
peak_rss_mb, plus checks_failed_frac on its own line.  Repetition k runs at
seed 1000 * seed + k % 5: the sampler's decorrelation stride, and with it the
amount of work, depends on the seed, and a median over several seeds keeps
that out of the comparison between runs.

--trace 1 alternates untraced and traced repetitions, all at seed 1000 * seed,
and prints the per-layer metrics of perfbench/tracing.py plus
trace.overhead_frac.  Every CSV of such a run must be byte-identical, which
shows the tracing leaves the program's random streams alone.

Every repetition is checked: exit code, PASS/FAIL summary, CSV row count and
finiteness, and metadata, and repetitions at one seed must write the same CSV
bytes.  The last line of stdout is one JSON object with
`correct` (every repetition well-formed and repeatable), `attempted` (the
repetitions, each one run of the program) and `failed` (repetitions that
crashed or wrote broken output) and `metrics`.  A FAIL verdict of a statistical
check is the program's output, not a broken run: it is counted in
checks_failed_frac and named, not in `failed`.  A full record,
provenance and CSV sha256 per seed included, goes to
.perfbench/<workload>/seed<seed>-trace<trace>/result.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())
DEADLINE_S = 165.0          # stay inside the 180 s a benchmark run may take
MIN_REPS = 3
MIN_SETUP_SAMPLES = 5
SEEDS_PER_RUN = 5

# work_per_s is in the workload's own work unit per second (workloads.json)
END_TO_END = [("wall_s", "s"), ("work_per_s", "work/s"), ("setup_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MiB")]


def work_amount(cfg: dict) -> float:
    """The workload's fixed amount of work, in its work unit."""
    exp = cfg["experiment"]
    if exp == "ratio-scaling":
        return cfg["n_samples"] * len(cfg["N_list"]) * len(cfg["beta_list"])
    if exp == "autocorrelation":
        return sum(cfg["n_samples"] * N * round(cfg["horizon_factor"] * b / cfg["dt"])
                   for N in cfg["N_list"] for b in cfg["beta_list"])
    if exp == "sampler-validation":
        return (cfg["n_samples"] * (cfg["moments_N"] + 1)
                + cfg["slab_samples"] * (cfg["slab_N"] + 1)
                + cfg["lemma5_samples"] * sum(N + 1 for N in cfg["lemma5_N"]))
    if exp == "theorem2-h1":
        grids = sorted(cfg["grid_sizes"])
        rows = [g for _ in cfg["profiles"] for g in grids] + [grids[0], grids[-1]]
        return sum(8 * (g + 1) ** 2 for g in rows)
    raise ValueError(f"no work unit for experiment {exp!r}")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(SPEC["run_conditions"]["blas_env"])
    env["PYTHONPATH"] = str(root / "src")
    # keep `git describe` inside the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    return env


def run_child(root: Path, cfg_path: Path, rep_dir: Path, timeout: float,
              trace_id: str | None = None, setup_only: bool = False) -> dict:
    """Run one repetition; returns the child's result dict plus process facts."""
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(cfg_path),
           "--out", str(rep_dir / "out"), "--result", str(rep_dir / "result.json")]
    if trace_id is not None:
        cmd += ["--trace", str(rep_dir / "spans.npz"), "--trace-id", trace_id]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
        returncode, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode, stdout, stderr = None, str(exc.stdout or ""), f"timed out after {timeout:.0f} s"
    result_file = rep_dir / "result.json"
    rep = json.loads(result_file.read_text()) if result_file.exists() else {}
    rep.update(returncode=returncode, dir=rep_dir, traced=trace_id is not None,
               log_tail=(stdout + stderr)[-2000:])
    return rep


def parse_summary(path: Path, experiment: str) -> tuple[list[tuple[str, bool]], bool]:
    """(checks, overall) from a `<experiment>_summary.txt`."""
    lines = path.read_text().splitlines()
    checks = []
    for line in lines:
        verdict, _, name = line.partition("  ")
        if verdict not in ("PASS", "FAIL") or not name:
            raise ValueError(f"malformed summary line {line!r}")
        checks.append((name, verdict == "PASS"))
    last_name, overall = checks.pop()
    if last_name != f"overall: {experiment}":
        raise ValueError(f"summary does not end with the overall line: {last_name!r}")
    return checks, overall


def scan_csv(path: Path, nan_allowed: dict | None) -> tuple[int, list[str]]:
    """(row count, problems): every numeric cell must be finite, except where allowed."""
    problems = []
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for i, row in enumerate(rows):
        for col, cell in row.items():
            try:
                value = float(cell)
            except (TypeError, ValueError):
                continue
            if math.isfinite(value):
                continue
            if (nan_allowed and col == nan_allowed["column"]
                    and row.get(nan_allowed["when_column"]) == nan_allowed["equals"]):
                continue
            problems.append(f"non-finite {col}={cell} in CSV row {i + 1}")
    return len(rows), problems


def check_rep(rep: dict, root: Path, wl: dict) -> dict:
    """Verify one repetition's process and output files."""
    exp = wl["config"]["experiment"]
    out = rep["dir"] / "out"
    problems = []
    checks: list[tuple[str, bool]] = []
    csv_sha = None
    if rep["returncode"] not in (0, 1) or "exit_code" not in rep:
        problems.append(f"crashed (exit code {rep['returncode']}): {rep['log_tail'][-400:]}")
    else:
        if rep["exit_code"] != rep["returncode"]:
            problems.append("process exit code differs from run()'s return code")
        if not Path(rep["module_file"]).resolve().is_relative_to(root / "src"):
            problems.append(f"fpu_packets imported from {rep['module_file']}, not {root / 'src'}")
        try:
            checks, overall = parse_summary(out / f"{exp}_summary.txt", exp)
            if len(checks) != wl["checks"]:
                problems.append(f"{len(checks)} checks in the summary, expected {wl['checks']}")
            if overall != all(ok for _, ok in checks) or overall != (rep["exit_code"] == 0):
                problems.append("overall verdict disagrees with the checks or the exit code")
            n_rows, csv_problems = scan_csv(out / f"{exp}_results.csv", wl.get("nan_allowed"))
            problems += csv_problems
            if n_rows != wl["csv_rows"]:
                problems.append(f"{n_rows} CSV rows, expected {wl['csv_rows']}")
            csv_sha = hashlib.sha256((out / f"{exp}_results.csv").read_bytes()).hexdigest()
            json.loads((out / f"{exp}_metadata.json").read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"bad output: {exc}")
    if problems:   # a broken run counts every check as failed
        checks = [(f"check {i + 1} of a broken run", False) for i in range(wl["checks"])]
    return {"problems": problems, "checks": checks, "csv_sha256": csv_sha,
            "bytes_written": sum(f.stat().st_size for f in out.glob("*") if f.is_file())
            if out.is_dir() else 0}


def provenance(root: Path, seed: int, reps: list[dict]) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=child_env(root),
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    first = next((r for r in reps if "versions" in r), {})
    return {"nproc": os.cpu_count(), "cpu_model": model, "git_commit": commit,
            "seed": seed, "rep_seeds": sorted({r["seed"] for r in reps}),
            "runs": len(reps), "threads": 1,
            "versions": first.get("versions"), "blas_env": first.get("blas_env")}


def rep_seed(seed: int, k: int) -> int:
    """Seed of repetition k of a benchmark run at --seed seed."""
    return seed * 1000 + k % SEEDS_PER_RUN


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd().resolve()
    if not (root / "src" / "fpu_packets" / "__init__.py").is_file():
        print(f"run from the repository root: {root / 'src' / 'fpu_packets'} not found",
              file=sys.stderr)
        return 2
    wl = SPEC["workloads"][args.workload]
    run_dir = root / ".perfbench" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    def config_for(seed: int) -> Path:
        path = run_dir / f"config-seed{seed}.json"
        if not path.exists():
            path.write_text(json.dumps(dict(wl["config"], seed=seed), indent=1) + "\n")
        return path

    t_start = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - t_start)

    # warm the page cache and bytecode cache; not measured
    run_child(root, config_for(rep_seed(args.seed, 0)), run_dir / "warmup", remaining(),
              setup_only=True)
    t_measure = time.perf_counter()
    reps: list[dict] = []
    longest = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() - t_measure < args.seconds:
        if reps and 1.5 * longest > remaining():
            break
        k = len(reps)
        traced = args.trace == 1 and k % 2 == 1
        seed = rep_seed(args.seed, 0 if args.trace else k)
        t0 = time.perf_counter()
        rep = run_child(root, config_for(seed), run_dir / f"rep{k}", remaining(),
                        trace_id=f"{args.workload}-seed{seed}-rep{k}" if traced else None)
        longest = max(longest, time.perf_counter() - t0)
        rep.update(check_rep(rep, root, wl), seed=seed)
        reps.append(rep)
        if rep["problems"] and "exit_code" not in rep:
            break    # a crash repeats; stop early
    measured_s = time.perf_counter() - t_measure

    problems = [f"rep{i}: {p}" for i, r in enumerate(reps) for p in r["problems"]]
    hashes: dict[int, set] = {}
    for r in reps:
        if r["csv_sha256"]:
            hashes.setdefault(r["seed"], set()).add(r["csv_sha256"])
    for seed, shas in hashes.items():
        if len(shas) > 1:
            problems.append(f"CSV differs between repetitions at seed {seed}: {sorted(shas)}")
    csv_sha256 = {seed: sorted(shas)[0] for seed, shas in hashes.items()}
    checks_attempted = sum(len(r["checks"]) for r in reps)
    checks_failed = sum(1 for r in reps for _, ok in r["checks"] if not ok)
    failing = sorted({name for r in reps for name, ok in r["checks"] if not ok})
    attempted = len(reps)
    failed = sum(1 for r in reps if r["problems"])
    correct = not problems and attempted > 0

    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    traced = [r for r in reps if r["traced"] and "wall_s" in r]
    metrics: dict[str, dict] = {}
    if args.trace == 0 and plain:
        setups = [r["setup_s"] for r in plain]
        k = 0
        while len(setups) < MIN_SETUP_SAMPLES and remaining() > 10:
            extra = run_child(root, config_for(rep_seed(args.seed, 0)), run_dir / f"setup{k}",
                              remaining(), setup_only=True)
            k += 1
            if "setup_s" not in extra:
                problems.append(f"setup{k}: crashed: {extra['log_tail'][-400:]}")
                correct = False
                break
            setups.append(extra["setup_s"])
        wall = _median(plain, "wall_s")
        values = {"wall_s": wall, "work_per_s": work_amount(wl["config"]) / wall,
                  "setup_s": statistics.median(setups), "cpu_s": _median(plain, "cpu_s"),
                  "peak_rss_mb": _median(plain, "peak_rss_mb")}
        metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END}
    elif args.trace == 1 and plain and traced:
        import tracing

        per_rep = []
        for r in traced:
            m = tracing.reduce(tracing.load(r["dir"] / "spans.npz"))
            m["experiments.bytes_written"] = r["bytes_written"]
            per_rep.append(m)
        plain_wall = _median(plain, "wall_s")
        values = {name: statistics.median(m[name] for m in per_rep)
                  for name, _ in tracing.PER_LAYER_METRICS if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (_median(traced, "wall_s") - plain_wall) / plain_wall
        metrics = {name: {"value": values[name], "unit": u}
                   for name, u in tracing.PER_LAYER_METRICS}
    else:
        problems.append("no repetition produced timings")
        correct = False

    prov = provenance(root, args.seed, reps)
    record = {"workload": args.workload, "config": wl["config"], "trace": args.trace,
              "measured_s": measured_s, "correct": correct, "problems": problems,
              "attempted": attempted, "failed": failed, "checks_attempted": checks_attempted,
              "checks_failed": checks_failed, "failing_checks": failing,
              "csv_sha256": csv_sha256, "metrics": metrics, "provenance": prov,
              "reps": [{k: (str(v) if isinstance(v, Path) else v) for k, v in r.items()
                        if k not in ("log_tail", "versions", "blas_env")} for r in reps]}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} ({wl['config']['experiment']}), seed {args.seed}, "
          f"{len(plain)} untraced + {len(traced)} traced runs in {measured_s:.1f} s")
    for name, m in metrics.items():
        note = f" ({wl['work_unit']}/s)" if name == "work_per_s" else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{note}")
    frac = checks_failed / checks_attempted if checks_attempted else 1.0
    print(f"  {'checks_failed_frac':36s} {frac:.6g} ratio "
          f"({checks_failed} of {checks_attempted} checks failed)")
    print(f"  {'broken runs':36s} {failed} of {attempted}")
    for name in failing:
        print(f"  FAIL {name}")
    for p in problems:
        print(f"  PROBLEM {p}")
    for seed, sha in csv_sha256.items():
        print(f"  csv sha256 at seed {seed}: {sha}")
    print("provenance " + json.dumps(prov))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
