"""The estimators in `stats` work on arrays alone: the module imports no
other module of the package, so no flow or sampler hides behind an error bar."""

import ast
from pathlib import Path

STATS = Path(__file__).resolve().parents[1] / "src" / "fpu_packets" / "stats.py"


def test_stats_imports_no_package_module():
    imported = []
    for node in ast.walk(ast.parse(STATS.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert imported    # the walk sees the module's imports
    assert not [m for m in imported if m.startswith(".") or m.split(".")[0] == "fpu_packets"]
