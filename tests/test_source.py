"""Source hygiene: no module of the package imports a name it never uses or
imports inside a function, no private function, method or class goes
unreferenced in the package, only `jetcalc` calls `trunc_poly`, so jet
truncation lives in one module, only `grassmann` calls `_combination`, so a
contraction is summed in `MonomialTable.contract` alone, and only `grassmann`
calls `fields`, so a record's wire form is written by its one rule, `_wire`.
Every exception class of `errors` is an `InputError`, the one type the CLI
maps to exit 2, and every `from_json` returns from inside its
`payload_errors` block, so no parser depends on which errors the block folds.
Every docstring example of the package runs as written.  No test module
imports inside a function either: after a harness re-imports `superjet`, such
an import returns the new modules, and a monkeypatch on them misses the code
the test module bound.

`__init__` is exempt from the import check: it imports names to re-export them.
"""

import ast
import doctest
import importlib
import inspect
from pathlib import Path

import pytest

import superjet
from superjet import errors

PACKAGE = sorted(Path(superjet.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def quoted_names(tree) -> set:
    """Names read by quoted annotations such as -> "GrassmannElement"."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            note = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        else:
            continue
        for quoted in ast.walk(note) if note is not None else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                names |= {name.id for name in ast.walk(ast.parse(quoted.value, mode="eval"))
                          if isinstance(name, ast.Name)}
    return names


def unused_imports(source: str) -> list:
    """Names bound by an import in source and never read, in source order."""
    tree = ast.parse(source)
    bound = [(node.lineno, alias.asname or alias.name.partition(".")[0])
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= quoted_names(tree)
    return [name for _, name in sorted(bound) if name not in used]


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport math, os.path\n"
              "from .a import b, c as d\n\ndef f(x: \"list[b]\") -> \"e\":\n"
              "    \"\"\"d\"\"\"\n    return math.pi\n")
    assert unused_imports(source) == ["os", "d"]


def test_no_module_imports_a_name_it_never_uses():
    assert MODULES
    unused = {path.name: names for path in MODULES
              if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def imports_inside_functions(source: str) -> list:
    """(line, function) for each import in the body of a function or method of
    source, sorted; an import in a nested function counts for both."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {(inner.lineno, node.name) for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))}
    return sorted(found)


def test_the_check_sees_an_import_inside_a_function():
    source = ("import math\n\nclass A:\n    def f(self):\n        from .b import c\n"
              "        return c\n\ndef g():\n    def h():\n        import os\n"
              "    return math.pi\n")
    assert imports_inside_functions(source) == [(5, "f"), (10, "g"), (10, "h")]


def test_no_function_imports():
    assert PACKAGE and TESTS
    inside = {path.name: found for path in PACKAGE + TESTS
              if (found := imports_inside_functions(path.read_text(encoding="utf-8")))}
    assert inside == {}


def unreferenced_privates(sources) -> list:
    """Private (`_name`, not dunder) functions, methods and classes defined in
    sources that no name, attribute or quoted annotation in any of them reads."""
    trees = [ast.parse(source) for source in sources]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        read |= quoted_names(tree)
    return sorted(defined - read)


def test_the_check_sees_an_unreferenced_private():
    first = ("class _Box:\n    def __init__(self):\n        self._fill()\n"
             "    def _fill(self):\n        pass\n    def _spare(self):\n        pass\n\n"
             "def _helper(x: \"_Box\"):\n    return x\n\nclass _Lonely:\n    pass\n")
    second = "from .first import _helper\n\ndef run():\n    return _helper(None)\n"
    assert unreferenced_privates([first, second]) == ["_Lonely", "_spare"]
    assert unreferenced_privates([first]) == ["_Lonely", "_helper", "_spare"]


def test_every_private_definition_is_referenced():
    assert PACKAGE
    assert unreferenced_privates(path.read_text(encoding="utf-8") for path in PACKAGE) == []


def callers(sources: dict, name: str) -> list:
    """The names of the sources (a {name: source} dict) that call `name`,
    as a bare name or as an attribute, sorted."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    found.add(module)
    return sorted(found)


def test_the_check_sees_every_caller():
    sources = {"a.py": "from .b import cut\n\ndef f(p):\n    return cut(p, 2)\n",
               "b.py": "def cut(p, k):\n    return p\n",
               "c.py": "from . import b\n\nx = [b.cut(1, 2)]\n",
               "d.py": "from .b import cut\n\ng = cut\n"}
    assert callers(sources, "cut") == ["a.py", "c.py"]


def test_only_jetcalc_truncates():
    assert callers({path.name: path.read_text(encoding="utf-8") for path in PACKAGE},
                   "trunc_poly") == ["jetcalc.py"]


def test_only_grassmann_sums_a_contraction():
    assert callers({path.name: path.read_text(encoding="utf-8") for path in PACKAGE},
                   "_combination") == ["grassmann.py"]


def test_only_grassmann_wires_a_record():
    assert callers({path.name: path.read_text(encoding="utf-8") for path in PACKAGE},
                   "fields") == ["grassmann.py"]


def test_every_error_is_an_input_error():
    raised = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
              if issubclass(cls, BaseException) and cls.__module__ == errors.__name__]
    assert len(raised) > 1
    assert [cls for cls in raised if not issubclass(cls, errors.InputError)] == []


def parsers_outside_their_block(source: str) -> list:
    """(line, class) of each from_json in source whose body does not end in a
    `with payload_errors(...)` block that itself ends in a return."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if not (isinstance(method, ast.FunctionDef) and method.name == "from_json"):
                continue
            last = method.body[-1]
            if not (isinstance(last, ast.With)
                    and any(getattr(item.context_expr.func, "id", None) == "payload_errors"
                            for item in last.items if isinstance(item.context_expr, ast.Call))
                    and isinstance(last.body[-1], ast.Return)):
                found.append((method.lineno, node.name))
    return found


def test_the_check_sees_a_parser_outside_its_block():
    source = ("class A:\n    def from_json(cls, d):\n        with payload_errors(\"A\"):\n"
              "            return cls(d[\"n\"])\n\n"
              "class B:\n    def from_json(cls, d):\n        with payload_errors(\"B\"):\n"
              "            n = d[\"n\"]\n        return cls(n)\n\n"
              "class C:\n    def from_json(cls, d):\n        with open(d):\n"
              "            return cls()\n")
    assert parsers_outside_their_block(source) == [(7, "B"), (13, "C")]


def test_every_parser_returns_from_inside_its_block():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert any("def from_json" in source for source in sources)
    assert [found for source in sources for found in parsers_outside_their_block(source)] == []


@pytest.mark.parametrize("path", PACKAGE, ids=[path.stem for path in PACKAGE])
def test_docstring_examples_run(path):
    name = "superjet" if path.stem == "__init__" else f"superjet.{path.stem}"
    assert doctest.testmod(importlib.import_module(name)).failed == 0
