"""Code size of the geomideal package, per module and in total.

Code lines are the lines that hold a token of code: blank lines, comment
lines and the lines of docstrings (module, class and function) are not
counted.  AST nodes are the nodes `ast.walk` visits in the module's tree.

    python scripts/code_size.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "geomideal"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers spanned by the docstrings of the module, its classes
    and its functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_size(source):
    """(code lines, AST nodes) of one module's source."""
    tree = ast.parse(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(tree)), sum(1 for _ in ast.walk(tree))


def main():
    rows = [(path.name, *code_size(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16} {'code lines':>10} {'AST nodes':>10}")
    for name, lines, nodes in rows:
        print(f"{name:<16} {lines:>10} {nodes:>10}")


if __name__ == "__main__":
    main()
