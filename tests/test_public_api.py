"""The package API as its callers outside the CLI see it.

The experiment scripts are the only callers of the package namespace besides
the CLI and the tests.  Every name they import from geomideal is resolved
here, so one that goes missing fails this file rather than going unnoticed;
the two quick scripts are also run (colon_reports.py and orbit_reports.py
take too long to run here).
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import geomideal

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_every_exported_name_resolves_once():
    names = geomideal.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(geomideal, name) is not None
    namespace: dict = {}
    exec("from geomideal import *", namespace)
    assert set(names) <= set(namespace)


def test_every_name_the_scripts_import_resolves():
    for script in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "geomideal":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{script.name}: {node.module}.{alias.name}"


def test_flagship_script_runs():
    out = _run_script("run_flagship.py")
    assert out.returncode == 0, out.stderr
    assert "  certified after checking 17 invariant subschemes" in out.stdout.splitlines()


def test_hd_probe_script_runs():
    out = _run_script("hd_probe.py", "--j-max", "2")
    assert out.returncode == 0, out.stderr
    assert "  Tor_2: 0 0 1 2 2 2 2 2 2  [nonzero]" in out.stdout.splitlines()
