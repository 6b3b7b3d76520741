"""Source hygiene: no module of the package imports a name it never uses.

`__init__` is exempt: it imports names to re-export them.
"""

import ast
from pathlib import Path

import superjet

MODULES = sorted(path for path in Path(superjet.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


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
