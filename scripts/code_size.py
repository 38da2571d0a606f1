"""Code size of the geomideal package, per module and in total.

Code lines are the lines that hold a token of code: blank lines, comment
lines and the lines of docstrings (module, class and function) are not
counted.  AST nodes are the nodes `ast.walk` visits in the module's tree.
Tokens are the `tokenize` tokens other than comments and NL (the ends of
blank and continued lines), docstrings included: the tokens CPython's
parser holds while it compiles the module.  Its token array grows by
doubling, so a module's compile takes a step more memory once it passes
8192 tokens.

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
    """(code lines, AST nodes, tokens) of one module's source."""
    tree = ast.parse(source)
    lines = set()
    tokens = 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        tokens += tok.type not in (tokenize.COMMENT, tokenize.NL)
    return len(lines - docstring_lines(tree)), sum(1 for _ in ast.walk(tree)), tokens


def main():
    rows = [(path.name, *code_size(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", *(sum(r[k] for r in rows) for k in (1, 2, 3))))
    print(f"{'module':<16} {'code lines':>10} {'AST nodes':>10} {'tokens':>10}")
    for name, lines, nodes, tokens in rows:
        print(f"{name:<16} {lines:>10} {nodes:>10} {tokens:>10}")


if __name__ == "__main__":
    main()
