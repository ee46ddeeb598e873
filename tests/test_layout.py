"""Only code the program runs lives in src/: every function, method and
class defined in src/spikelab is named somewhere in src/, scripts/ or
perfbench/ outside its own definition.  A definition that only tests reach
belongs in the tests.  Dunder methods are exempt: Python calls them by
protocol, not by name.

Each sparse matrix is held once: no code in src/spikelab converts one to
another format, except ``linsolve.factorize`` on its way to SuperLU."""

import ast
import io
import pathlib
import re
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spikelab"
PROGRAM_DIRS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def _mentions(source: str, skip: range | None = None):
    """Identifier tokens, and words inside string literals (names looked up
    by string, as in getattr or a tracer's table), outside the lines in skip."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if skip is not None and tok.start[0] in skip:
            continue
        if tok.type == tokenize.NAME:
            yield tok.string
        elif tok.type == tokenize.STRING:
            yield from re.findall(r"[A-Za-z_]\w*", tok.string)


def test_every_definition_in_src_is_used_by_the_program():
    files = [f for d in PROGRAM_DIRS for f in sorted(d.rglob("*.py"))]
    sources = {f: f.read_text() for f in files}
    used = {f: set(_mentions(src)) for f, src in sources.items()}
    unused = []
    for f in sorted(PACKAGE.glob("*.py")):
        src = sources[f]
        for node in _definitions(ast.parse(src)):
            own = range(node.lineno, node.end_lineno + 1)
            named = node.name in set(_mentions(src, own)) or any(
                node.name in names for g, names in used.items() if g != f
            )
            if not named:
                unused.append(f"{f.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, "defined in src/ but named only by tests or not at all:\n" + "\n".join(unused)


SPARSE_CONVERSIONS = {"tocsr", "tocsc", "tocoo", "asformat"}


def test_sparse_format_conversions_only_in_factorize():
    found = []
    for f in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(f.read_text())
        allowed = set()
        if f.name == "linsolve.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "factorize":
                    allowed.update(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in SPARSE_CONVERSIONS and node.lineno not in allowed):
                found.append(f"{f.relative_to(ROOT)}:{node.lineno} .{node.func.attr}(")
    assert not found, "a sparse format conversion copies the matrix:\n" + "\n".join(found)
