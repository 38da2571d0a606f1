"""The package API as its callers outside the CLI see it.

The experiment scripts are the only callers of the package namespace besides
the CLI and the tests.  Every name they import from geomideal is resolved
here, so one that goes missing fails this file rather than going unnoticed;
the quick scripts are also run (colon_reports.py and orbit_reports.py take
too long to run here), and so is `python -m geomideal`.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import geomideal
from geomideal import cli

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def _run_script(name, *args):
    return _run(str(ROOT / "scripts" / name), *args)


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


def test_verdict_ledger_counts_its_rows():
    """One "scene predicate verdict evidence" line per classify row of the
    11 scenes, 8 rows each, and a last line that counts the decided ones."""
    out = _run_script("verdict_reports.py")
    assert out.returncode == 0, out.stderr
    *rows, last = out.stdout.splitlines()
    assert len(rows) == 88 and all(len(row.split()) == 4 for row in rows)
    decided = sum(row.split()[3] in ("certified", "refuted") for row in rows)
    assert last == f"{decided} of {len(rows)} rows certified or refuted"


def test_code_size_script_counts_every_module():
    """One row per module of the package, then a total that sums them."""
    out = _run_script("code_size.py")
    assert out.returncode == 0, out.stderr
    _, *rows, total = [line.split() for line in out.stdout.splitlines()]
    assert [r[0] for r in rows] == sorted(p.name for p in (ROOT / "src" / "geomideal").glob("*.py"))
    assert total == ["total", *(str(sum(int(r[k]) for r in rows)) for k in (1, 2))]
    assert all(int(r[1]) > 0 for r in rows)


def test_module_entry_point_runs_the_cli(capsys):
    """`python -m geomideal` prints what cli.main prints, writes nothing to
    stderr, and exits with cli.main's code: 2 for a usage error."""
    out = _run("-m", "geomideal", "gb", "scenes/moving_point.scene")
    assert cli.main(["gb", str(ROOT / "scenes" / "moving_point.scene")]) == 0
    assert (out.returncode, out.stdout, out.stderr) == (0, capsys.readouterr().out, "")
    assert _run("-m", "geomideal", "no-such-command", "scenes/moving_point.scene").returncode == 2
