"""Static lint for code that no run reaches.

A function census (every function under ``src/repro``, traced over the
production commands and over tier-1) found two classes of code that no
path executes, and both were deleted.  This module walks the AST of every
``src/repro`` module and keeps them out:

* **``__repr__``** — debugging aids that no output or error message
  prints.  ``SimTime.__repr__`` is the one exception:
  ``tests/sysc/test_time.py`` asserts on it.
* **``abc``** — abstract base classes over duck-typed code: nothing
  dispatches on the base class, so its abstract stubs never run.  A
  module may neither import ``abc`` nor use ``abstractmethod``.
"""

import ast
import os

REPO_SRC = os.path.normpath(os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro"))

#: The classes whose ``__repr__`` something reads.
REPR_ALLOWED = {"SimTime"}


def _modules():
    for root, _, files in os.walk(REPO_SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, "r", encoding="utf-8") as handle:
                    yield (os.path.relpath(path, REPO_SRC),
                           ast.parse(handle.read(), filename=path))


def _violations(module, tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name not in REPR_ALLOWED:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__repr__":
                    yield f"{module}:{item.lineno}: {node.name}.__repr__"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "abc":
                    yield f"{module}:{node.lineno}: import abc"
        elif isinstance(node, ast.ImportFrom) and node.module == "abc":
            yield f"{module}:{node.lineno}: from abc import"
        elif (isinstance(node, ast.Name) and node.id == "abstractmethod") or (
                isinstance(node, ast.Attribute)
                and node.attr == "abstractmethod"):
            yield f"{module}:{node.lineno}: abstractmethod"


def test_no_unreached_debug_or_abstract_surface():
    found = [violation for module, tree in _modules()
             for violation in _violations(module, tree)]
    assert found == []


def test_the_lint_sees_what_it_forbids():
    source = (
        "import abc\n"
        "from abc import ABC\n"
        "class Base(abc.ABC):\n"
        "    @abc.abstractmethod\n"
        "    def run(self): ...\n"
        "    def __repr__(self):\n"
        "        return 'Base'\n"
        "class SimTime:\n"
        "    def __repr__(self):\n"
        "        return 'SimTime'\n"
    )
    assert sorted(_violations("m.py", ast.parse(source))) == [
        "m.py:1: import abc",
        "m.py:2: from abc import",
        "m.py:4: abstractmethod",
        "m.py:6: Base.__repr__",
    ]
