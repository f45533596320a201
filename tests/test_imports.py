"""Every name a library module imports is used in that module.

The check reads the source with the standard-library ast module: a name
counts as used when it appears anywhere in the module, inside a string
annotation such as "Multivector" too, or when it is listed in the
module's __all__.  Imports from __future__ are exempt.  Also, the modules
import one another without a cycle and never inside a function, and every
private function, method and class is referred to somewhere in the
package outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "lierine").glob("*.py"))


def unused_imports(source: str):
    """The names imported by a module's source and never used in it, in
    order of their import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            annotation = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval")) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_keeps_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .signs import merge_sign, sort_with_sign\n"
        "from .gerst import Multivector as MV\n"
        "from .lrcore import AltForm, LieRinehart\n"
        "__all__ = ['LieRinehart']\n"
        "def f(x: 'MV'):\n"
        "    return sort_with_sign(x)\n"
    )
    assert unused_imports(source) == ["os", "merge_sign", "AltForm"]


def function_imports(source: str):
    """The line numbers of the imports that a module's source makes inside
    a function body."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted(
        {inner.lineno for fn in functions for inner in ast.walk(fn) if isinstance(inner, (ast.Import, ast.ImportFrom))}
    )


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_function_level_imports(path):
    assert function_imports(path.read_text()) == []


def test_checker_finds_imports_in_nested_functions():
    source = (
        "from .lrcore import LieRinehart\n"
        "def f():\n"
        "    def g():\n"
        "        from .twilled import Bigraded\n"
        "    import os\n"
    )
    assert function_imports(source) == [4, 5]


def test_package_imports_form_no_cycle():
    """The modules of the package import one another without a cycle, so
    each can be imported first."""
    graph = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        graph[path.stem] = {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
        }
    done, active = set(), []

    def visit(name):
        assert name not in active, " -> ".join(active + [name])
        if name not in done:
            active.append(name)
            for dep in sorted(graph.get(name, ())):
                visit(dep)
            active.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def references(node) -> Counter:
    """How often each name occurs under node: by name, as an attribute or
    in an import."""
    out: Counter = Counter()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            out[part.id] += 1
        elif isinstance(part, ast.Attribute):
            out[part.attr] += 1
        elif isinstance(part, ast.alias):
            out[part.name] += 1
    return out


def orphan_privates(sources):
    """module.qualified name of every private function, method or class in
    the sources, a dict from module name to source, that nothing outside
    its own definition refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum(map(references, trees.values()), Counter())
    orphans = []

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(module, child, prefix)
                continue
            name = child.name
            if name.startswith("_") and not name.startswith("__") and references(child)[name] == total[name]:
                orphans.append(f"{module}.{prefix}{name}")
            visit(module, child, f"{prefix}{name}.")

    for module, tree in trees.items():
        visit(module, tree, "")
    return orphans


def test_every_private_definition_has_a_caller():
    assert orphan_privates({path.stem: path.read_text() for path in SOURCES}) == []


def test_checker_flags_private_code_with_no_caller():
    sources = {
        "exactla": (
            "def _echelon(m):\n"
            "    return _echelon(m)\n"
            "def _primitive(row):\n"
            "    return row\n"
            "def _exact(x):\n"
            "    return x\n"
            "class _Row:\n"
            "    def _used(self):\n"
            "        return self._unused\n"
            "    def _unused(self):\n"
            "        return self._unused()\n"
            "    def _spare(self):\n"
            "        return self._used()\n"
            "def mat_rank(m):\n"
            "    def _inner():\n"
            "        return 0\n"
            "    def _called():\n"
            "        return 1\n"
            "    return _primitive(m) + _called()\n"
        ),
        "calgebra": "from .exactla import _exact\nimport lierine\nROW = lierine.exactla._Row\n",
    }
    assert orphan_privates(sources) == ["exactla._echelon", "exactla._Row._spare", "exactla.mat_rank._inner"]
