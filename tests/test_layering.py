"""Module hygiene of the slex package, checked with the stdlib's ast.

Six rules, for every module under src/slex:

  * no module reaches into another slex module's private names, neither
    by importing one (`from .radial import _horner`) nor by reading one
    off an imported module (`radial._horner`);
  * no module leaves an import unused.  A line marked `# noqa: F401`
    keeps its import on purpose;
  * no module defines a private name at module level (function, class or
    constant) that it never reads: no other module may read it, so it is
    dead code;
  * no class has a property (or cached_property) that only forwards an
    attribute of self: its body, docstring aside, is one `return
    self.x.y`.  Callers read the attribute where it lives;
  * every public module-level function and class is read by some module
    of the package other than at its own definition, and not only from
    definitions that are themselves unread.  The package is what the
    commands reach: a reference formula that only tests use lives with
    the tests (tests/oracles.py).  The one exception is
    weights.complete_to_phase, which the benchmark's workload generator
    (bench/workloads.py) draws its level-set points with;
  * every public method and property of a package class is read as an
    attribute somewhere in the package outside its own definition, and
    not only from members that are themselves unread.  Members are
    matched by name, since no type is known statically.  Dataclass fields
    are not definitions here: a field is data a report may serialize.
"""

import ast
from pathlib import Path

import pytest

import slex

PACKAGE = Path(slex.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
# public names no module of the package reads, kept for a reader outside it
READ_OUTSIDE = ("complete_to_phase",)  # bench/workloads.py


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


def unread_publics(sources: dict, exceptions=()) -> list:
    """(module, line, name) of each public module-level function or class
    that no module of sources (name -> text) reads outside its own
    definition.

    A name counts as read where it is loaded: bare, in its module or in one
    that imported it by name, or as an attribute of an imported slex
    module.  An import alone is no read, and a read inside a definition
    that is itself unread does not count, so a helper kept only by dead
    code is flagged with it.
    """
    defined = {}  # (module, name) -> line
    reads = []  # (owner or None, key read)
    for module, source in sources.items():
        tree = ast.parse(source)
        modules, names = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _slex_import(node):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module in (None, "slex"):
                        modules[bound] = alias.name
                    else:
                        names[bound] = (node.module.split(".")[-1],
                                        alias.name)
        for stmt in tree.body:
            owner = None
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not stmt.name.startswith("_")):
                owner = (module, stmt.name)
                defined[owner] = stmt.lineno
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    reads.append((owner, names.get(node.id,
                                                   (module, node.id))))
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    reads.append((owner, (modules[node.value.id],
                                          node.attr)))
    dead = set()
    while True:
        live = {key for owner, key in reads
                if owner != key and owner not in dead}
        unread = {d for d in defined if d not in live
                  and d[1] not in exceptions}
        if unread == dead:
            return sorted((m, defined[(m, n)], n) for m, n in dead)
        dead = unread


def unread_members(sources: dict) -> list:
    """(module, line, Class.name) of each public method or property of a
    class in sources (name -> text) that no module reads as an attribute
    outside the member's own definition.

    A read of .name on any object counts for every class member called
    name.  A read inside a member that is itself unread does not count,
    so a member kept only by a dead one is flagged with it.
    """
    defined = {}  # (module, Class, name) -> line
    reads = []  # (member the read is in, or None; attribute name)

    def visit(module, node, owner):
        for child in ast.iter_child_nodes(node):
            key = owner
            if (isinstance(node, ast.ClassDef)
                    and isinstance(child, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                    and not child.name.startswith("_")):
                key = (module, node.name, child.name)
                defined[key] = child.lineno
            elif (isinstance(child, ast.Attribute)
                  and isinstance(child.ctx, ast.Load)):
                reads.append((owner, child.attr))
            visit(module, child, key)

    for module, source in sources.items():
        visit(module, ast.parse(source), None)
    dead = set()
    while True:
        live = {(owner, attr) for owner, attr in reads if owner not in dead}
        unread = {key for key in defined
                  if not any(attr == key[2] and owner != key
                             for owner, attr in live)}
        if unread == dead:
            return sorted((m, defined[(m, c, n)], f"{c}.{n}")
                          for m, c, n in dead)
        dead = unread


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


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_private_names(module):
    assert unread_privates((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_forwarding_properties(module):
    assert forwarding_properties((PACKAGE / module).read_text()) == []


def test_every_public_name_is_read_by_the_package():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_publics(sources, READ_OUTSIDE) == []


def test_every_public_member_is_read_by_the_package():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_members(sources) == []


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
    sources = {
        "kernel": "\n".join([
            "def used(x):",
            "    return x",
            "def unread(x):",
            "    return used(x)",
            "def recursive(x):",
            "    return recursive(x - 1) if x else 0",
            "def only_dead(x):",
            "    return x",
            "def dead(x):",
            "    return only_dead(x)",
            "def kept(x):",
            "    return x",
            "class Report:",
            "    pass",
        ]),
        "front": "\n".join([
            "from . import kernel as k",
            "from .kernel import Report",
            "def main():",
            "    return Report(), k.used(1)",
            "main()",
        ]),
    }
    assert unread_publics(sources, ("kept",)) == [
        ("kernel", 3, "unread"), ("kernel", 5, "recursive"),
        ("kernel", 7, "only_dead"), ("kernel", 9, "dead")]
    sources = {
        "kernel": "\n".join([
            "import functools",
            "class Spec:",
            "    theta: float",
            "    @property",
            "    def used(self):",
            "        return self.theta",
            "    @functools.cached_property",
            "    def only_dead(self):",
            "        return 1",
            "    def dead(self):",
            "        return self.only_dead",
            "    def recursive(self, k):",
            "        return self.recursive(k - 1) if k else 0",
            "    def __repr__(self):",
            "        return 'Spec'",
            "class Other:",
            "    def used(self):",
            "        return Spec().used",
            "    def called(self):",
            "        return 0",
        ]),
        "front": "\n".join([
            "from .kernel import Other",
            "def main():",
            "    return Other().called(), Other().used()",
        ]),
    }
    assert unread_members(sources) == [
        ("kernel", 8, "Spec.only_dead"), ("kernel", 10, "Spec.dead"),
        ("kernel", 12, "Spec.recursive")]
