"""Static lint: every name a ``src/repro`` module imports is used there.

An import that nothing reads still costs its module load, and it hides
which layer a module really depends on.  A name counts as used when the
module's AST reads it, also inside a string annotation.  Exempt are
``from __future__`` imports and re-exports marked with a trailing
``# re-exported`` comment (such as ``grid/store.py``'s ``GridError``).
The packages' ``lazy_exports`` tables list names as strings and import
nothing, so they need no exemption.
"""

import ast
import os

from tests.perf.test_debug_surface_lint import REPO_SRC

MARK = "# re-exported"


def _annotation_names(tree):
    """Names read inside the string annotations of *tree*."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations.append(node.returns)
            annotations.extend(
                argument.annotation for argument in (
                    arguments.posonlyargs + arguments.args
                    + arguments.kwonlyargs + [arguments.vararg, arguments.kwarg])
                if argument is not None)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    for name in ast.walk(ast.parse(part.value, mode="eval")):
                        if isinstance(name, ast.Name):
                            yield name.id


def _unused_imports(module, source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if lines[node.end_lineno - 1].rstrip().endswith(MARK):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if isinstance(node, ast.Import):
                    name = name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree))
    return [f"{module}:{line}: {name}"
            for line, name in sorted((line, name) for name, line
                                     in imported.items() if name not in used)]


def test_no_src_module_imports_a_name_it_does_not_use():
    found = []
    for root, _, files in os.walk(REPO_SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as handle:
                    found.extend(_unused_imports(
                        os.path.relpath(path, REPO_SRC), handle.read()))
    assert found == []


def test_the_lint_sees_what_it_forbids():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import xml.dom\n"
        "from typing import Dict, List, Optional\n"
        "from errors import Error  # re-exported\n"
        "def f(a: 'Optional[int]') -> List[int]:\n"
        "    return sys.argv\n"
    )
    assert _unused_imports("m.py", source) == [
        "m.py:2: os", "m.py:3: xml", "m.py:4: Dict"]
