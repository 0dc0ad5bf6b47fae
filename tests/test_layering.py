"""Module hygiene of the slex package, checked with the stdlib's ast and
one fresh import.

Thirteen rules, for every module under src/slex:

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
    matched by name, since no type is known statically.  Class fields
    (a NamedTuple's, or attributes set in __init__) are not members
    here; the next rule holds a NamedTuple's;
  * every field of a package NamedTuple is read as an attribute
    somewhere in src/slex, bench/ or tools/ (their test files aside),
    matched by name as members are, or is on READ_BY_TESTS with the
    reason a test needs it.  A field that nothing reads is data that no
    report serializes and no stage uses;
  * every raise statement runs for some command line, or is on
    NUMERICAL_SAFETY with its reason.  The lines are the rows of
    CONTRACT in tools/report_gate.py, help and an --out that cannot be
    written, run through cli.main in process under a line tracer that
    sees only package frames.  The package is what the commands reach,
    and that holds for its errors too: a guard on an argument only the
    package itself passes is dead code, however careful it looks;
  * no module imports `fractions`: the exact suites of `verify` run on
    ints, drawn as int (numerator, denominator) pairs, so the package
    needs no Fraction;
  * a fresh `import slex.cli` loads no module that no command needs in
    that form: none of `numpy.polynomial` (the Gauss-Legendre table and
    its Legendre sums are radial's own), `dataclasses` (the classes are
    NamedTuples and one plain class), `json` (cli writes its reports
    itself) or `__future__`.  Beyond numpy, `numpy.random` and the
    package it loads only the built-in `gc`, and `statistics`, with
    `fractions` and `decimal` behind it, for subsol's normal quantile
    (ROADMAP item 8A).
  * a fresh `import slex.cli`, numpy not yet loaded, leaves the process
    one thread: OPENBLAS_NUM_THREADS reads "1", or the count the caller
    set.  No collection runs once numpy begins to load, the collector is
    on or off after the import as it was before, and the import ends
    frozen, the older generations' counts at zero.
  * a RuntimeWarning raised in any module of the package is an error
    under the test run's filters, and so it would be in a module added
    later: pyproject.toml holds one filter for the whole package;
  * the kernel modules, symfun and phasepoly, import no slex module: a
    kernel takes the rows it reads from its caller, so the layers above
    build each row once and hand it down.
"""

import ast
import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import report_gate
import slex
from slex import cli

PACKAGE = Path(slex.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
# public names no module of the package reads, kept for a reader outside it
READ_OUTSIDE = ("complete_to_phase",)  # bench/workloads.py
# (module, Class.field) of each NamedTuple field that only tests read, with
# the reason they need it
READ_BY_TESTS = {
    ("radial", "FirstIntegral.e_coeffs"):
        "tests/test_radial.py holds E to the exact integer shift through it",
}
# the code outside the package whose attribute reads count for a field
READERS = [p for p in sorted([*ROOT.glob("bench/*.py"),
                              *ROOT.glob("tools/*.py")])
           if not p.name.startswith("test_")]
# (module, function, message) of each raise no command line runs, with its
# reason: checks that hold on every supported input, and the guards of a
# reader outside the package
NUMERICAL_SAFETY = {
    ("radial", "_dormand_prince", "integration failed"):
        "the step collapses below 10 ulps of s, or the error estimate is "
        "not finite (two sites)",
    ("radial", "invert", "implicit Newton iteration did not converge"):
        "the third Newton step moves u by rounding only",
    ("radial", "first_integral", "root certification failed"):
        "a ray root above 1 on a point classify admitted: an exact sign "
        "test of the pair shifted in ints",
    ("radial", "first_integral",
     "slope-field denominator not certified positive"):
        "a coefficient of N, the denominator shifted in ints, that is not "
        "positive: an exact sign test",
    ("radial", "first_integral", "residue at 1 disagrees with 1/m"):
        "the exactly shifted pair disagrees with the profile's float "
        "exponent by more than 1e-10",
    ("radial", "_checked_profile",
     "profile fell below the barrier psi = 1"):
        "a route's excess turns negative",
    ("radial", "_checked_profile",
     "profile exceeded its initial value beta"):
        "a route's excess grows past beta - 1",
    ("radial", "_checked_profile",
     "profile is not nonincreasing"):
        "a route's excess increases with r",
    ("radial", "tail_integral", "tail integral overflows the float range"):
        "mu overflows, which no supported beta and gamma reach",
    ("cli", "_json_parts", "Object of type "):
        "a report value of a type the writer does not know",
    ("cli", "_json_str",
     "a report string must be printable ASCII with no quote or backslash, "
     "not "):
        "a report string JSON would have to escape, which no report holds",
    ("weights", "complete_to_phase", "prefix must be n-1 positive entries"):
        "the benchmark's workload generator draws its points with it",
    ("weights", "complete_to_phase", "no positive completion"):
        "the benchmark's workload generator draws its points with it",
}


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


def imported_modules(source: str) -> list:
    """(line, top-level package) of every absolute import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return sorted(found)


def slex_imports(source: str) -> list:
    """(line, statement) of every import of a slex module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom) and _slex_import(node)
                or isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "slex"
                    for alias in node.names)):
            found.append((node.lineno, ast.get_source_segment(source, node)))
    return sorted(found)


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
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


def unread_fields(sources: dict, readers=()) -> list:
    """(module, line, Class.field) of each field of a NamedTuple class in
    sources (name -> text) that neither sources nor readers (more texts)
    read as an attribute.

    A read of .field on any object counts for every field of that name.
    """
    defined = {}  # (module, Class.field) -> line
    read = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", getattr(base, "attr", None))
                    == "NamedTuple" for base in node.bases):
                for stmt in node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        key = (module, f"{node.name}.{stmt.target.id}")
                        defined[key] = stmt.lineno
    for source in (*sources.values(), *readers):
        read.update(node.attr for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    return sorted((module, line, field)
                  for (module, field), line in defined.items()
                  if field.split(".")[1] not in read)


def raise_sites(source: str) -> list:
    """(line, function, message) of every raise statement in source.

    function is the qualified name of the enclosing definition ("" at
    module level); message is the first string literal of the raised
    call's arguments, an f-string's leading text included ("" for none).
    """
    found = []

    def message(node):
        call = node.exc
        for arg in getattr(call, "args", ()):
            if isinstance(arg, ast.JoinedStr):
                arg = arg.values[0] if arg.values else arg
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
        return ""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Raise):
                found.append((child.lineno, scope, message(child)))
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(found)


def lines_run(argvs: list) -> tuple:
    """(ran, codes) of cli.main run on each argv in turn: ran maps the
    path of each package module to the set of its line numbers that ran,
    and codes holds the exit codes in order."""
    ran, codes = {}, []

    @functools.lru_cache(maxsize=None)
    def package_path(filename):
        path = Path(filename).resolve()
        return str(path) if path.parent == PACKAGE else None

    def local(frame, event, _arg):
        if event == "line":
            ran.setdefault(package_path(frame.f_code.co_filename),
                           set()).add(frame.f_lineno)
        return local

    def tracer(frame, _event, _arg):
        return local if package_path(frame.f_code.co_filename) else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for argv in argvs:
            codes.append(cli.main(list(argv)))
    finally:
        sys.settrace(previous)
    return ran, codes


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
def test_no_module_imports_fractions(module):
    assert [found for found in imported_modules(
        (PACKAGE / module).read_text()) if found[1] == "fractions"] == []


@pytest.mark.parametrize("module", ["symfun.py", "phasepoly.py"])
def test_kernel_modules_import_no_slex_module(module):
    assert slex_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_private_names(module):
    assert unread_privates((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_forwarding_properties(module):
    assert forwarding_properties((PACKAGE / module).read_text()) == []


# "checks" is no module yet: the filter must catch it when it is added
@pytest.mark.parametrize("module", [
    *(name[:-3] for name in MODULES if name != "__init__.py"), "checks"])
def test_runtime_warnings_in_the_package_are_errors(module):
    # the warning numpy raises for a float error, as if from that module
    name = f"slex.{module}"
    with pytest.raises(RuntimeWarning):
        warnings.warn_explicit("overflow encountered in multiply",
                               RuntimeWarning, f"{module}.py", 1,
                               module=name)


def test_every_public_name_is_read_by_the_package():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_publics(sources, READ_OUTSIDE) == []


def test_every_public_member_is_read_by_the_package():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_members(sources) == []


def test_every_field_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    found = [(module, field) for module, _line, field in unread_fields(
        sources, [p.read_text() for p in READERS])]
    assert [key for key in found if key not in READ_BY_TESTS] == []
    # every listed field exists and is still read by tests alone
    assert set(READ_BY_TESTS) <= set(found)


def test_every_raise_runs_for_a_command_line(tmp_path, capsys):
    # the contract's lines, help, and an --out that cannot be written
    argvs = [argv for argv, _code, _err in report_gate.CONTRACT] + [
        ("-h",), ("solve", "--help"),
        ("solve", "--family", "iso", "--n", "3", "--theta", "critical",
         "--grid", "4", "--out", str(tmp_path / "missing" / "run.json"))]
    ran, codes = lines_run(argvs)
    capsys.readouterr()
    assert set(codes) == {0, 1, 2}
    unreached, allowed_run, keys = [], [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        run = ran.get(str(path), set())
        for line, function, text in raise_sites(path.read_text()):
            key = (path.stem, function, text)
            keys.add(key)
            if line not in run and key not in NUMERICAL_SAFETY:
                unreached.append((path.stem, line, function, text))
            elif line in run and key in NUMERICAL_SAFETY:
                allowed_run.append(key)
    assert unreached == []
    # an allowlisted site that a command runs belongs in the table, and
    # every allowlisted site exists
    assert allowed_run == []
    assert set(NUMERICAL_SAFETY) <= keys


# modules a fresh `import slex.cli` may load beyond numpy's: the package,
# the interpreter's built-in gc, and subsol's statistics with what it
# imports (ROADMAP item 8A)
IMPORT_EXTRAS = ("slex", "gc", "statistics", "_statistics", "fractions",
                 "decimal", "_decimal")
# what no command needs in that form at import
IMPORT_BANNED = ("numpy.polynomial", "dataclasses", "json", "__future__")


def test_import_loads_only_what_the_commands_run():
    code = ("import sys; import numpy, numpy.random; before = set(sys.modules)"
            "; import slex.cli; print(' '.join(sorted(sys.modules)))"
            "; print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded, extra = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True).stdout.splitlines()
    assert [name for name in loaded.split() if any(
        name == banned or name.startswith(banned + ".")
        for banned in IMPORT_BANNED)] == []
    assert [name for name in extra.split()
            if name.split(".")[0] not in IMPORT_EXTRAS] == []


# argv[1] is the collector's state when the import begins, "on" or "off".
# Each collection records whether numpy had begun to load: cli turns the
# collector off before it imports numpy, but the interpreter may collect
# while it compiles cli itself
IMPORT_STATE = """
import gc, json, os, sys
gc.enable() if sys.argv[1] == "on" else gc.disable()
collections = []
gc.callbacks.append(lambda phase, info: phase == "start"
                    and collections.append("numpy" in sys.modules))
import slex.cli
task = "/proc/self/task"
print(json.dumps({
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
    "collecting": gc.isenabled(), "frozen": gc.get_freeze_count() > 0,
    "older_counts": gc.get_count()[1:],
    "collections_past_numpy": collections.count(True)}))
"""


def _import_state(collector, **env):
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_STATE, collector],
        env=dict(base, PYTHONPATH=str(PACKAGE.parent), **env),
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("collector", ["on", "off"])
def test_import_starts_no_blas_pool_and_no_collection(collector):
    state = _import_state(collector)
    assert state.pop("threads") in (1, None)
    assert state == {"blas": "1", "collecting": collector == "on",
                     "frozen": True, "older_counts": [0, 0],
                     "collections_past_numpy": 0}
    # a count the caller set is kept
    assert _import_state(collector, OPENBLAS_NUM_THREADS="2")["blas"] == "2"


# an import that fails, here of numpy.random, leaves the collector on
FAILED_IMPORT = """
import gc, sys
sys.modules["numpy.random"] = None
try:
    import slex.cli
except ImportError:
    print(gc.isenabled())
"""


def test_a_failed_import_restores_the_collector():
    proc = subprocess.run(
        [sys.executable, "-c", FAILED_IMPORT],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True, text=True, check=True)
    assert proc.stdout == "True\n"


def test_checks_find_what_they_look_for():
    source = "\n".join([
        "import math",
        "import locale  # noqa: F401",
        "from fractions import Fraction",
        "from . import radial, weights as w",
        "from .phasepoly import _HALF_PI_LO, phase",
        "from .symfun import (elem_sym,",
        "                     _prune)",
        "x = radial._horner((1.0,), 2.0) + w._chains + radial.check_rmax",
        "y = phase(math.pi) + Fraction(1)",
    ])
    assert private_reads(source) == [
        (5, "imports _HALF_PI_LO"), (7, "imports _prune"),
        (8, "reads radial._horner"), (8, "reads w._chains")]
    assert unused_imports(source) == [(5, "_HALF_PI_LO"), (6, "elem_sym"),
                                      (7, "_prune")]
    assert imported_modules(source) == [(1, "math"), (2, "locale"),
                                        (3, "fractions")]
    assert [line for line, _text in slex_imports(source)] == [4, 5, 6]
    assert slex_imports("import numpy\nimport slex.radial as r\n"
                        "from slex import cli\n") == [
        (2, "import slex.radial as r"), (3, "from slex import cli")]
    source = "\n".join([
        "def check(x):",
        "    if x < 0:",
        "        raise ValueError('x must be nonnegative')",
        "    raise ValueError(f'bad {x}: ' 'done')",
        "class Box:",
        "    def __post_init__(self):",
        "        raise TypeError",
        "raise RuntimeError(code, 'late')",
    ])
    assert raise_sites(source) == [
        (3, "check", "x must be nonnegative"), (4, "check", "bad "),
        (7, "Box.__post_init__", ""), (8, "", "late")]
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
    sources = {
        "kernel": "\n".join([
            "import typing",
            "from typing import NamedTuple",
            "class Report(NamedTuple):",
            "    used: float",
            "    unread: float",
            "    written: int = 0",
            "    outside: str = ''",
            "class Bare(typing.NamedTuple):",
            "    flag: bool",
            "class Plain:",
            "    ignored: int",
            "def main(r):",
            "    r.written = 1",
            "    return r.used",
        ]),
    }
    assert unread_fields(sources, ["def show(r):\n    print(r.outside)"]) \
        == [("kernel", 5, "Report.unread"), ("kernel", 6, "Report.written"),
            ("kernel", 9, "Bare.flag")]
