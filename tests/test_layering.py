"""Module hygiene of the slex package, checked with the stdlib's ast.

Four rules, for every module under src/slex:

  * no module reaches into another slex module's private names, neither
    by importing one (`from .radial import _horner`) nor by reading one
    off an imported module (`radial._horner`);
  * no module leaves an import unused.  A line marked `# noqa: F401`
    keeps its import on purpose; `__init__.py` re-exports and is skipped;
  * no module defines a private name at module level (function, class or
    constant) that it never reads: no other module may read it, so it is
    dead code;
  * no class has a property (or cached_property) that only forwards an
    attribute of self: its body, docstring aside, is one `return
    self.x.y`.  Callers read the attribute where it lives.
"""

import ast
from pathlib import Path

import pytest

import slex

PACKAGE = Path(slex.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _slex_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "slex"


def private_reads(source: str) -> list:
    """(line, text) of every private name taken from another slex module."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _slex_import(node):
            for alias in node.names:
                if node.module in (None, "slex"):
                    # `from . import radial`: the names are modules
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((getattr(alias, "lineno", node.lineno),
                                  f"imports {alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "slex" and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((node.lineno, f"reads {node.value.id}.{node.attr}"))
    return sorted(found)


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                line = getattr(alias, "lineno", node.lineno)
                if "# noqa: F401" in lines[line - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.append((line, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def unread_privates(source: str) -> list:
    """(line, name) of each module-level private name the module never
    reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined += [(t.lineno, t.id) for t in targets
                        if isinstance(t, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in defined
            if _private(name) and name not in read]


def forwarding_properties(source: str) -> list:
    """(line, Class.name) of each property that only returns an attribute
    chain of self."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and any(
                    (d.id if isinstance(d, ast.Name) else
                     getattr(d, "attr", None))
                    in ("property", "cached_property")
                    for d in fn.decorator_list)):
                continue
            body = fn.body
            if (isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]  # the docstring
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            value = body[0].value
            if not isinstance(value, ast.Attribute):
                continue
            while isinstance(value, ast.Attribute):
                value = value.value
            if isinstance(value, ast.Name) and value.id == "self":
                found.append((fn.lineno, f"{cls.name}.{fn.name}"))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_across_modules(module):
    assert private_reads((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", [m for m in MODULES
                                    if m != "__init__.py"])
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_private_names(module):
    assert unread_privates((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_forwarding_properties(module):
    assert forwarding_properties((PACKAGE / module).read_text()) == []


def test_checks_find_what_they_look_for():
    source = "\n".join([
        "import math",
        "import locale  # noqa: F401",
        "from fractions import Fraction",
        "from . import radial, weights as w",
        "from .phasepoly import _HALF_PI_LO, phase",
        "from .symfun import (elem_sym,",
        "                     _prune)",
        "x = radial._horner((1.0,), 2.0) + w._chains + radial.check_beta",
        "y = phase(math.pi) + Fraction(1)",
    ])
    assert private_reads(source) == [
        (5, "imports _HALF_PI_LO"), (7, "imports _prune"),
        (8, "reads radial._horner"), (8, "reads w._chains")]
    assert unused_imports(source) == [(5, "_HALF_PI_LO"), (6, "elem_sym"),
                                      (7, "_prune")]
    source = "\n".join([
        "_TOL = 1e-9",
        "_UNREAD: float = 2.0",
        "PUBLIC = 3",
        "def _helper(x):",
        "    return _TOL * x",
        "def _recursive(x):",
        "    return _recursive(x - 1) if x else _helper(x)",
        "class _Hidden:",
        "    _field = 1",
        "def run():",
        "    _local = 4",
        "    return _local",
    ])
    assert unread_privates(source) == [(2, "_UNREAD"), (8, "_Hidden")]
    source = "\n".join([
        "import functools",
        "class Spec:",
        "    @property",
        "    def theta(self):",
        "        \"\"\"The phase.\"\"\"",
        "        return self.pf.spec.theta",
        "    @functools.cached_property",
        "    def m(self):",
        "        return self.pf.m",
        "    @property",
        "    def half(self):",
        "        return self.pf.m / 2",
        "    @property",
        "    def itself(self):",
        "        return self",
        "    @property",
        "    def other(self):",
        "        return other.pf",
        "    def plain(self):",
        "        return self.pf",
    ])
    assert forwarding_properties(source) == [(4, "Spec.theta"),
                                             (8, "Spec.m")]
