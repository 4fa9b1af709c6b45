"""The package's public surface is the pipeline.

Every name ``qkdpost`` exports, and every public method and property of an
exported class, must be used outside its own definition: by a module of the
package other than ``__init__``, by the benchmark in ``blockbench/``, or by
the README.  A member that only tests reach belongs in ``tests/conftest.py``.
Likewise every parameter with a default of an exported function or method
must be passed by one of those callers, and left out by another: a value
only tests set is a knob nobody else can use, and a default every caller
overrides is never used.
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


def caller_sources():
    """The package's modules other than ``__init__``, and the benchmark's."""
    sources = [p for p in (ROOT / "src" / "qkdpost").glob("*.py") if p.name != "__init__.py"]
    return sources + sorted((ROOT / "blockbench").glob("*.py"))


def test_every_public_member_is_used_outside_the_tests():
    used = set().union(*map(code_identifiers, caller_sources()))
    used.update(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    unused = [name for name in public_surface() if name.rsplit(".", 1)[-1] not in used]
    assert not unused, f"public members only tests reach: {unused}"


def call_sites(tree):
    """(called name, positional count, keyword names) of every call in an AST;
    ``*args`` counts as every position and ``**kwargs`` as every keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield name, float("inf") if starred else len(node.args), keywords


def defaulted_parameters():
    """(name, parameter, position) of every defaulted parameter of an exported
    function or public method; the position omits ``self`` and ``cls``, and
    is None for a keyword-only parameter.  Dataclass fields, set through the
    generated ``__init__``, are not parameters here."""
    for name in public_surface():
        owner, _, member = name.rpartition(".")
        value = vars(getattr(qkdpost, owner))[member] if owner else getattr(qkdpost, name)
        skip = 1 if owner and not isinstance(value, staticmethod) else 0
        func = getattr(value, "__func__", value)
        if not inspect.isfunction(func):
            continue
        for pos, p in enumerate(list(inspect.signature(func).parameters.values())[skip:]):
            if p.default is not inspect.Parameter.empty:
                keyword_only = p.kind is inspect.Parameter.KEYWORD_ONLY
                yield member, p.name, None if keyword_only else pos


def caller_calls():
    """Every call site in the callers and in the README's Python blocks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in caller_sources()]
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    return [call for tree in trees for call in call_sites(tree)]


def passes(call, name, param, pos):
    called, count, keywords = call
    return called == name and (
        param in keywords or None in keywords or (pos is not None and count > pos)
    )


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    calls = caller_calls()
    unpassed = [
        f"{name}({param})"
        for name, param, pos in defaulted_parameters()
        if not any(passes(call, name, param, pos) for call in calls)
    ]
    assert not unpassed, f"defaulted parameters only tests pass: {unpassed}"


def test_every_defaulted_parameter_is_left_out_outside_the_tests():
    """A default no caller relies on is a value every caller restates."""
    calls = caller_calls()
    always_passed = [
        f"{name}({param})"
        for name, param, pos in defaulted_parameters()
        if not any(call[0] == name and not passes(call, name, param, pos) for call in calls)
    ]
    assert not always_passed, f"defaulted parameters every caller passes: {always_passed}"
