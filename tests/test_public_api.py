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
import runpy
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
    """One row per module of the package, then a total that sums them.  The
    tokens column counts every token but comments and NL: 9 for
    "x = 1  # c", a blank line and "y = 2" (two NEWLINEs and the
    ENDMARKER among them)."""
    out = _run_script("code_size.py")
    assert out.returncode == 0, out.stderr
    _, *rows, total = [line.split() for line in out.stdout.splitlines()]
    assert [r[0] for r in rows] == sorted(p.name for p in (ROOT / "src" / "geomideal").glob("*.py"))
    assert total == ["total", *(str(sum(int(r[k]) for r in rows)) for k in (1, 2, 3))]
    assert all(int(r[1]) > 0 for r in rows)
    script = runpy.run_path(str(ROOT / "scripts" / "code_size.py"))
    assert script["code_size"]("x = 1  # c\n\ny = 2\n") == (2, 9, 9)


def test_polykernel_imports_no_module_layer_and_stays_under_the_token_step():
    """The polynomial kernel imports neither the free modules nor homology,
    at module level or inside a function: its colons and intersections are
    kernels of normal-form maps (linalg, reached through
    HomIdeal.normal_forms).  Its source stays at most 8192 tokens (the
    code_size.py count): past that CPython's parser token array doubles,
    and the compile of this file, the peak of a fresh import, takes about
    0.5 MB more memory."""
    path = ROOT / "src" / "geomideal" / "polykernel.py"
    source = path.read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        assert not {"freemod", "homology"} & {part for name in names for part in name.split(".")}
    script = runpy.run_path(str(ROOT / "scripts" / "code_size.py"))
    assert script["code_size"](source)[2] <= 8192


def test_every_module_stays_under_the_token_step():
    """Every module of the package stays at most 8192 tokens, the
    code_size.py count checked of polykernel above: a module past the step
    doubles the parser's token array when it compiles, which a fresh
    import's peak memory shows."""
    script = runpy.run_path(str(ROOT / "scripts" / "code_size.py"))
    sizes = {path.name: script["code_size"](path.read_text())[2]
             for path in sorted((ROOT / "src" / "geomideal").glob("*.py"))}
    assert "polykernel.py" in sizes
    assert {name: n for name, n in sizes.items() if n > 8192} == {}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every command is a fresh process that imports the package first: its
    records are named tuples and plain classes, so the import generates no
    code and loads neither module (site is off, so no .pth file can)."""
    out = _run("-S", "-c", "import sys, geomideal.cli; "
               "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


def test_cli_run_loads_no_argparse_gettext_locale_or_pathlib():
    """The CLI reads argv by hand and the scene with open(): importing it and
    running one command in a fresh process loads none of these modules
    (site is off, so no .pth file can)."""
    out = _run("-S", "-c", "import sys, geomideal.cli; "
               "geomideal.cli.main(['gb', 'scenes/moving_point.scene']); "
               "print(sorted({'argparse', 'gettext', 'locale', 'pathlib'} & set(sys.modules)))")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("# groebner basis") and out.stdout.endswith("\n[]\n")


def test_module_entry_point_runs_the_cli(capsys):
    """`python -m geomideal` prints what cli.main prints, writes nothing to
    stderr, and exits with cli.main's code: 2 for a usage error."""
    out = _run("-m", "geomideal", "gb", "scenes/moving_point.scene")
    assert cli.main(["gb", str(ROOT / "scenes" / "moving_point.scene")]) == 0
    assert (out.returncode, out.stdout, out.stderr) == (0, capsys.readouterr().out, "")
    assert _run("-m", "geomideal", "no-such-command", "scenes/moving_point.scene").returncode == 2
