"""Only code the program runs lives in src/: every function, method and
class defined in src/spikelab is named somewhere in src/, scripts/ or
perfbench/ outside its own definition.  A definition that only tests reach
belongs in the tests.  Dunder methods are exempt: Python calls them by
protocol, not by name.

Each sparse matrix is held once: no code in src/spikelab converts one to
another format, except on its way to SuperLU in ``linsolve._superlu``, the
one call of ``splu``.

The Jacobian is symmetric in the mesh's inner product, so the program has
one eigensolver, for symmetric matrices: no code in src/spikelab names a
nonsymmetric one."""

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
                if isinstance(node, ast.FunctionDef) and node.name == "_superlu":
                    allowed.update(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in SPARSE_CONVERSIONS and node.lineno not in allowed):
                found.append(f"{f.relative_to(ROOT)}:{node.lineno} .{node.func.attr}(")
    assert not found, "a sparse format conversion copies the matrix:\n" + "\n".join(found)


NONSYMMETRIC_EIGENSOLVERS = {"eigs", "eig", "eigvals"}


def _called_or_imported(tree):
    """The names of every function the code calls, and of every name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, (ast.Name, ast.Attribute)):
                yield (func.id if isinstance(func, ast.Name) else func.attr), node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno


def test_only_symmetric_eigensolvers_and_splu_only_in_linsolve():
    found = []
    for f in sorted(PACKAGE.glob("*.py")):
        for name, line in _called_or_imported(ast.parse(f.read_text())):
            if name in NONSYMMETRIC_EIGENSOLVERS or (name == "splu" and f.name != "linsolve.py"):
                found.append(f"{f.relative_to(ROOT)}:{line} {name}")
    assert not found, "a nonsymmetric eigensolver, or an LU made outside linsolve:\n" + "\n".join(found)
