"""The package API as its callers outside the CLI see it.

The experiment scripts are the only callers of the package namespace besides
the CLI and the tests, so each is run once here: a name they import that
goes missing fails this file rather than going unnoticed.
"""

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


def test_flagship_script_runs():
    out = _run_script("run_flagship.py")
    assert out.returncode == 0, out.stderr
    assert "  certified after checking 17 invariant subschemes" in out.stdout.splitlines()


def test_hd_probe_script_runs():
    out = _run_script("hd_probe.py", "--j-max", "2")
    assert out.returncode == 0, out.stderr
    assert "  Tor_2: 0 0 1 2 2 2 2 2 2  [nonzero]" in out.stdout.splitlines()
