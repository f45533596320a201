"""No float can enter the library's arithmetic.

Integral values travel as Python ints on the cohomology path, and
int / int is a float.  So the check reads every module of src/lierine
with the standard-library ast module and fails on a float literal, a
call of float, and a true division (/ or /=) outside the functions named
in DIVISION_ALLOWED, whose operands are Fractions."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "lierine").glob("*.py"))

# module.function: 1 / x on a Fraction pivot stays exact
DIVISION_ALLOWED = {"exactla._echelon"}


def float_sites(source: str, module: str):
    """(line, kind) of every float literal, float call and true division in
    a module's source, in source order; divisions inside an allowed
    function, or a function nested in one, are left out."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append((node.lineno, "float call"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if not any(scope == name or scope.startswith(name + ".") for name in DIVISION_ALLOWED):
                out.append((node.lineno, "true division"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_float_reaches_the_arithmetic(path):
    assert float_sites(path.read_text(), path.stem) == []


def test_checker_flags_floats_and_unlisted_divisions():
    old_rank = (
        "def mat_rank(m):\n"
        "    for row in rows:\n"
        "        inv = 1 / row[c]\n"
    )
    assert float_sites(old_rank, "exactla") == [(3, "true division")]
    source = (
        "HALF = 0.5\n"
        "class RatMatrix:\n"
        "    def scale(self, c):\n"
        "        c /= 2\n"
        "        return float(c) + 1j\n"
        "def _echelon(m):\n"
        "    def step(x):\n"
        "        return 1 / x\n"
        "    return 1 / m, 7 // 2, m / 2\n"
    )
    assert float_sites(source, "exactla") == [
        (1, "float literal"),
        (4, "true division"),
        (5, "float call"),
        (5, "float literal"),
    ]
    assert float_sites(source, "lrcore")[-3:] == [(8, "true division"), (9, "true division"), (9, "true division")]
