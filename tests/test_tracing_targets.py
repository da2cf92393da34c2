"""The benchmark's span tracer names functions and methods of the package by
string; a rename in ``src/`` must fail here, in the package's own suite."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# resolves each (module, dotted attribute) the way the tracer's install does:
# the leaf must be defined on its owner itself, not inherited
_RESOLVE = """
import importlib, json, sys
missing = []
for mod, attr in json.loads(sys.argv[1]):
    owner = importlib.import_module("zicae." + mod)
    *path, leaf = attr.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        owner.__dict__[leaf]
    except (AttributeError, KeyError):
        missing.append(f"{mod}.{attr}")
print(json.dumps(missing))
"""


def _targets() -> list[tuple[str, str]]:
    tree = ast.parse((ROOT / "zicbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(ast.literal_eval(e.elts[0]), ast.literal_eval(e.elts[1]))
                    for e in node.value.elts]
    raise AssertionError("zicbench/spans.py defines no TARGETS")


def test_every_traced_target_resolves_on_a_fresh_import():
    targets = _targets()
    assert len(targets) > 20
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", _RESOLVE, json.dumps(targets)],
                         capture_output=True, text=True, env=env, check=True)
    assert json.loads(out.stdout) == []
