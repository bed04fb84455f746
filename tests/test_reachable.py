"""Every public name under ``src/repro`` has a caller outside the tests.

The *units* are the module-level functions and classes of ``src/repro``
and the methods and properties of those classes.  A name that starts with
``_``, and everything inside a ``_`` class, is out of scope.  The *roots*
are the code that runs without a test asking for it:

* all of ``src/repro/cli.py``;
* the module-level statements of every ``src/repro`` module, less its
  imports, ``__all__`` and its ``lazy_exports`` table: a re-export is not
  a caller;
* every Python file under ``examples/``, ``benchmarks/`` and
  ``hostbench/``.

A unit is *reached* when a root or a reached unit reads its name: an
``ast.Name``, ``ast.Attribute`` or import alias, or a string shaped like a
(dotted) identifier.  A class that is reached reaches its dunder methods.
Matching is by name alone, so the gate errs one way only: a collision can
keep a dead name alive, never flag a live one.  A unit kept with no caller
is named in :data:`ALLOWED` with its reason; an entry that is reached
anyway, or names nothing, fails the gate.

The gate also fails on an import that a ``src/repro`` module other than a
package ``__init__`` never reads.  The files are the repository's own, as
:func:`tests.test_one_of_each._repo_paths` lists them.
"""

import ast
import os
import re

import pytest

from tests.test_one_of_each import ROOT, _repo_paths

#: kept units that nothing outside the tests calls: {qualname: why}
ALLOWED = {
    "repro.api.pack.Packer": "the paper's section 2 pack interface",
    "repro.api.pack.Unpacker": "the paper's section 2 unpack interface",
    "repro.faults.injector.FaultInjector.is_down": "the model's query of a rail's state",
    "repro.obs.export.validate_chrome_trace": "the schema check a user runs on an exported trace",
    "repro.faults.plan.FaultPlan.load": "reads back a plan `FaultPlan.save` or `chaos --save-failing` wrote",
    "repro.hardware.topology.TopologyPlan.links_created": "test probe: links are built on first use",
    "repro.hardware.topology.TopologyPlan.routes_cached": "test probe: routes are memoised per pair",
    "repro.sim.backend.available_backends": "the event cores that load here; tests run on each",
    # one entry for both cores: its body reads ``_core.events_scheduled``,
    # and by name that reaches the heap core's property
    "repro.sim.native.NativeSimulator.events_scheduled": "test probe: events ever scheduled, cancelled included",
}

_SRC = "src/repro/"
_ROOT_DIRS = ("examples/", "benchmarks/", "hostbench/")
_IDENT = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _string_annotations(node):
    """``node``'s string annotations, parsed: ``"Optional[Plan]"`` reads ``Plan``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        annotation = node.returns
    else:
        annotation = getattr(node, "annotation", None)  # ast.arg, ast.AnnAssign
    parsed = []
    for n in ast.walk(annotation) if annotation is not None else ():
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            try:
                parsed.append(ast.parse(n.value, mode="eval"))
            except SyntaxError:
                pass
    return parsed


def _reads(*nodes, aliases=True):
    """The names the ``nodes`` read: names, attributes, import aliases
    (unless not ``aliases``), the parts of identifier-shaped strings and
    what string annotations name."""
    names = set()
    todo = list(nodes)
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias) and aliases:
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _IDENT.fullmatch(node.value):
                    names.update(node.value.split("."))
            else:
                todo += _string_annotations(node)
    return names


def _module_name(path):
    parts = path[len("src/"):-len(".py")].split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _root_reads(stmt):
    """What a module-level statement reads, less its re-exports: an
    import, ``__all__`` and a ``lazy_exports`` table read nothing."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return set()
    names = _reads(stmt)
    if "lazy_exports" in names:
        return {"lazy_exports"}
    return set() if "__all__" in names else names


class _Unit:
    """A def: what it is called, whether the gate reports it, what it reads."""

    __slots__ = ("qualname", "name", "public", "reads", "dunders")

    def __init__(self, qualname, public, reads):
        self.qualname, self.public, self.reads = qualname, public, reads
        self.name = qualname.rpartition(".")[2]
        self.dunders = []  # reached with the class


def _defs(stmts, prefix, public, units, roots):
    """Collect the defs among ``stmts`` into ``units``; the reads of any
    other statement into ``roots`` (``None``: a class body, whose other
    statements the class itself reads)."""
    mine = set()
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = stmt.name
            visible = public and not name.startswith("_")
            if isinstance(stmt, ast.ClassDef):
                body = [s for s in stmt.body
                        if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
                unit = _Unit(prefix + name, visible,
                             _reads(*stmt.decorator_list, *stmt.bases, *stmt.keywords, *body))
                units.append(unit)
                for member in _defs(stmt.body, prefix + name + ".", visible, units, None):
                    if member.name.startswith("__") and member.name.endswith("__"):
                        unit.dunders.append(member)
            else:
                unit = _Unit(prefix + name, visible, _reads(stmt))
                units.append(unit)
            mine.add(unit)
        elif roots is None:
            continue
        elif isinstance(stmt, ast.If):
            roots |= _reads(stmt.test)
            mine |= _defs(stmt.body + stmt.orelse, prefix, public, units, roots)
        elif isinstance(stmt, ast.Try):
            roots |= _reads(*(h.type for h in stmt.handlers if h.type is not None))
            blocks = stmt.body + stmt.orelse + stmt.finalbody
            blocks += [s for h in stmt.handlers for s in h.body]
            mine |= _defs(blocks, prefix, public, units, roots)
        else:
            roots |= _root_reads(stmt)
    return mine


def _parse(files):
    """``(units, root reads)`` of ``files``, ``(path, text)`` pairs."""
    units, roots = [], set()
    for path, text in files:
        if path.endswith(".py") and path.startswith(_ROOT_DIRS):
            roots |= _reads(ast.parse(text, path))
        elif path.endswith(".py") and path.startswith(_SRC):
            tree = ast.parse(text, path)
            _defs(tree.body, _module_name(path) + ".", True, units, roots)
            if path == _SRC + "cli.py":
                roots |= _reads(tree)
    return units, roots


def _reach(units, roots, extra=()):
    """The units reached from the names ``roots`` and the units ``extra``."""
    by_name = {}
    for unit in units:
        by_name.setdefault(unit.name, []).append(unit)
    reached, names = set(), set()
    todo = list(extra)
    pending = list(roots)
    while pending or todo:
        while pending:
            name = pending.pop()
            if name not in names:
                names.add(name)
                todo += by_name.get(name, ())
        while todo:
            unit = todo.pop()
            if unit not in reached:
                reached.add(unit)
                pending += unit.reads
                todo += unit.dunders
    return reached


def unreached(files, allowed=ALLOWED):
    """``(dead, stale)``: the qualnames of the public units that nothing
    reaches, and the ``allowed`` entries that are reached without their
    entry or name no unit."""
    units, roots = _parse(files)
    by_qualname = {unit.qualname: unit for unit in units}
    kept = [by_qualname[q] for q in allowed if q in by_qualname]
    reached = _reach(units, roots, kept)
    dead = sorted(u.qualname for u in units if u.public and u not in reached)
    stale = []
    for qualname in allowed:
        unit = by_qualname.get(qualname)
        if unit is None or unit in _reach(units, roots, [k for k in kept if k is not unit]):
            stale.append(qualname)
    return dead, stale


def unused_imports(files):
    """``[(path, line, name)]`` of every import a ``src/repro`` module other
    than a package ``__init__`` binds and never reads."""
    found = []
    for path, text in files:
        if not (path.startswith(_SRC) and path.endswith(".py")) or path.endswith("/__init__.py"):
            continue
        tree = ast.parse(text, path)
        read = _reads(tree, aliases=False)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound != "*" and bound not in read:
                        found.append((path, node.lineno, bound))
    return found


def _load(root, paths):
    """``(path, text)`` of the files among ``paths`` the gate reads."""
    for path in paths:
        if path.endswith(".py") and path.startswith((_SRC, *_ROOT_DIRS)):
            try:
                with open(os.path.join(root, path), encoding="utf-8") as f:
                    yield path, f.read()
            except OSError:  # listed but deleted in the working tree
                continue


@pytest.fixture(scope="module")
def repo_files():
    return list(_load(ROOT, _repo_paths()))


def test_every_public_name_has_a_caller(repo_files):
    dead, stale = unreached(repo_files)
    assert dead == [], "no caller outside the tests; delete, or name in ALLOWED"
    assert stale == [], "ALLOWED names a unit that is reached, or none"


def test_the_allowlist_is_short_and_says_why():
    assert len(ALLOWED) <= 15
    assert all(reason.strip() and "\n" not in reason for reason in ALLOWED.values())


def test_every_import_is_read(repo_files):
    assert unused_imports(repo_files) == []


# ---- the gate on a temporary tree ------------------------------------------

_PLANTED = '''\
"""A module."""

from .other import helper


def used():
    return helper()


def orphan():
    return 1


class Kept:
    def __init__(self):
        self.x = used()

    def method(self):
        return 2

    @property
    def prop(self):
        return 3


USED = Kept().method()
'''


def _tree(tmp_path, files):
    for path, text in files.items():
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return list(_load(str(tmp_path), sorted(files)))


def test_a_public_def_with_no_caller_is_reported(tmp_path):
    files = _tree(tmp_path, {"src/repro/mod.py": _PLANTED, "tests/test_mod.py": "orphan()\nprop\n"})
    dead, stale = unreached(files, allowed={})
    assert (dead, stale) == (["repro.mod.Kept.prop", "repro.mod.orphan"], [])


@pytest.mark.parametrize("path, text", [
    ("examples/demo.py", "from repro.mod import orphan\norphan()\n"),
    ("hostbench/tracer.py", 'TARGETS = ("repro.mod.orphan",)\n'),
])
def test_a_caller_outside_the_tests_reaches_it(tmp_path, path, text):
    files = _tree(tmp_path, {"src/repro/mod.py": _PLANTED, path: text})
    assert unreached(files, allowed={})[0] == ["repro.mod.Kept.prop"]


def test_a_reexport_is_not_a_caller(tmp_path):
    init = 'from .mod import orphan\n__all__ = ["orphan"]\n'
    files = _tree(tmp_path, {"src/repro/mod.py": _PLANTED, "src/repro/__init__.py": init})
    assert "repro.mod.orphan" in unreached(files, allowed={})[0]


def test_a_stale_allowlist_entry_fails(tmp_path):
    files = _tree(tmp_path, {"src/repro/mod.py": _PLANTED})
    allowed = {"repro.mod.orphan": "kept", "repro.mod.used": "reached", "repro.mod.gone": "absent"}
    assert unreached(files, allowed) == (["repro.mod.Kept.prop"], ["repro.mod.used", "repro.mod.gone"])


def test_an_unused_import_fails_outside_a_package_init(tmp_path):
    text = "import os\nfrom typing import Optional\n\nX = os.sep\n"
    files = _tree(tmp_path, {"src/repro/mod.py": text, "src/repro/__init__.py": text})
    assert unused_imports(files) == [("src/repro/mod.py", 2, "Optional")]
