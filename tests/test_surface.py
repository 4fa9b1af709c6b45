"""The package's public surface is the pipeline.

Every name ``qkdpost`` exports, and every public method and property of an
exported class, must be used outside its own definition: by a module of the
package other than ``__init__``, by the benchmark in ``blockbench/``, or by
the README.  A member that only tests reach belongs in ``tests/conftest.py``.
"""

import ast
import functools
import inspect
import re
from pathlib import Path

import qkdpost

ROOT = Path(__file__).resolve().parents[1]


def code_identifiers(path):
    """Names a Python file uses: loaded names, attributes, and the words of
    string literals other than docstrings (``blockbench/tracing.py`` names
    the functions it patches in strings).  Definitions and imports are not
    uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                found.update(re.findall(r"\w+", node.value))
    return found


def public_surface():
    """Exported names, and ``Class.member`` for each public method or property."""
    surface = []
    for name in dir(qkdpost):
        obj = getattr(qkdpost, name)
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        surface.append(name)
        if inspect.isclass(obj):
            for member, value in vars(obj).items():
                if not member.startswith("_") and (
                    inspect.isfunction(value)
                    or isinstance(
                        value, (property, functools.cached_property, classmethod, staticmethod)
                    )
                ):
                    surface.append(f"{name}.{member}")
    return surface


def test_every_public_member_is_used_outside_the_tests():
    sources = [p for p in (ROOT / "src" / "qkdpost").glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "blockbench").glob("*.py"))
    used = set().union(*map(code_identifiers, sources))
    used.update(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    unused = [name for name in public_surface() if name.rsplit(".", 1)[-1] not in used]
    assert not unused, f"public members only tests reach: {unused}"
