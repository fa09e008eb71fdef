"""Pass rate of each PASS/FAIL check of one workload over a range of seeds.

    python3 perfbench/passrate.py --workload long-flow --seeds 0-19

Run it from the repository root.  Each seed runs the workload once, untimed,
through the same child process and output checks as perfbench/run.py.  Checks
are keyed by their summary text up to the first ':' with decimal numbers
replaced by '#', so one check keeps its key across seeds.  Prints one line per
check with the seeds it failed at, and writes the table to
.perfbench/passrate/<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
from pathlib import Path

import run

_DECIMAL = re.compile(r"[-+]?\d+\.\d+(?:e[-+]?\d+)?")


def check_key(name: str) -> str:
    return _DECIMAL.sub("#", name.split(":", 1)[0])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.SPEC["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"),
                        help="inclusive range, e.g. 0-19")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    wl = run.SPEC["workloads"][args.workload]
    out_dir = root / ".perfbench" / "passrate" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    table: dict[str, dict] = {}
    broken = {}
    for seed in args.seeds:
        cfg_path = out_dir / f"config-seed{seed}.json"
        cfg_path.write_text(json.dumps(dict(wl["config"], seed=seed)) + "\n")
        rep = run.run_child(root, cfg_path, out_dir / f"seed{seed}", run.DEADLINE_S)
        rep.update(run.check_rep(rep, root, wl))
        if rep["problems"]:
            broken[seed] = rep["problems"]
            continue
        for name, ok in rep["checks"]:
            row = table.setdefault(check_key(name), {"passed": 0, "runs": 0, "failed_seeds": []})
            row["runs"] += 1
            row["passed"] += ok
            if not ok:
                row["failed_seeds"].append(seed)
        print(f"seed {seed}: {sum(ok for _, ok in rep['checks'])}/{len(rep['checks'])} checks pass",
              flush=True)
    all_pass = sum(1 for seed in args.seeds if seed not in broken
                   and all(seed not in row["failed_seeds"] for row in table.values()))
    for key, row in table.items():
        print(f"  {row['passed']:3d}/{row['runs']:<3d} {key}"
              + (f"  (failed at seeds {row['failed_seeds']})" if row["failed_seeds"] else ""))
    print(f"all checks pass at {all_pass} of {len(args.seeds)} seeds")
    for seed, problems in broken.items():
        print(f"  seed {seed} broken: {problems}")
    record = {"workload": args.workload, "config": wl["config"], "seeds": args.seeds,
              "all_pass_seeds": all_pass, "checks": table, "broken": broken}
    (out_dir.parent / f"{args.workload}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
