"""Every true division in src/geomideal is on a reviewed list.

Rational scalars are ints when integral, and ``int / int`` is a float, so a
stray ``a / b`` on two field scalars would let floating point into exact
arithmetic.  Each (module, function) below holds a ``/`` or ``/=`` that
cannot see two ints; a new one anywhere else fails this test until it is
either routed through ``field.div`` or added here with its reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "geomideal"

ALLOWED = {
    "fields.RationalField.div": "only reached when an operand is a Fraction; int / int uses Fraction(a, b)",
    "geometry._diagonal_class_bound": "bases r start from Fraction(1), so r / top is Fraction / Fraction",
    "geometry._orbit_class_bounds": "the numerator is wrapped in Fraction(c) before dividing by the leading coefficient",
    "geometry._ratio_gate": "each eigenvalue is wrapped in Fraction(lam) before dividing by the first",
}


def _divisions(source, module):
    """Qualified names (module.Class.func) of the scopes holding each / or /=."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), (module,))
    return found


def _package_divisions():
    files = sorted(SRC.glob("*.py"))
    assert files
    return {site for path in files
            for site in _divisions(path.read_text(encoding="utf-8"), path.stem)}


def test_true_divisions_are_exactly_the_allowlist():
    assert sorted(_package_divisions()) == sorted(ALLOWED)


def test_scanner_sees_both_division_forms_and_their_scope():
    source = ("class K:\n"
              "    def f(self, a, b):\n"
              "        a /= b\n"
              "        return [x / b // b for x in (a,)]\n"
              "def g(a, b):\n"
              "    return a // b\n")
    assert _divisions(source, "m") == ["m.K.f", "m.K.f"]
