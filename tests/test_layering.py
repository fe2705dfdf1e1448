"""Modules of pidlab reach into one another through public names only.

A name with one leading underscore is private to the module that defines
it. Dunders are exempt. Two shapes break that rule:
- `from .x import _name`, a private name imported from another module;
- `obj._name`, where obj is not self or cls and no code in this module
  defines _name (a def, a class, or an assignment to a name or attribute).

In pidlab.validator, every subclass of Validator implements classify_many,
and only Validator (classify_many of one pid) and RouthValidator define
classify.

Only ParamSpace reads search.grid_pid: its pid_at builds one config and
its cells one per grid cell, once per space, and every other layer takes its
configs from them instead of building one per cell again.

Every name a module imports is used in it, too; `__init__.py` is exempt,
because its imports are the package's exports. And every private def, class
or assignment at a module's top level is read somewhere in that module, so a
refactor cannot leave a dead helper behind. A public top-level def or class
is read by some module of the package, or exported by `__init__.py`, so no
public name is kept only for the tests.
"""

import ast
from pathlib import Path

import pytest

import pidlab

PACKAGE = Path(pidlab.__file__).parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def violations(source, filename):
    """'filename:line: reason' for each private name that source reaches in
    another module."""
    tree = ast.parse(source, filename)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "pidlab"):
            module = "." * node.level + (node.module or "")
            found += [(node.lineno, f"imports {alias.name} from {module}")
                      for alias in node.names if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and node.attr not in defined
              and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            found.append((node.lineno, f"reaches {node.attr} of another module"))
    return [f"{filename}:{line}: {what}" for line, what in sorted(found)]


def unused_imports(source, filename):
    """'filename:line: imports name and never uses it' for each such name."""
    tree = ast.parse(source, filename)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # import a.b binds a
            imported += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{filename}:{line}: imports {name} and never uses it"
            for line, name in sorted(imported) if name not in used]


def unread_privates(source, filename):
    """'filename:line: defines name and never reads it' for each private
    name that a top-level def, class or assignment binds and no code in
    source reads."""
    tree = ast.parse(source, filename)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(node.lineno, name.id) for target in targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{filename}:{line}: defines {name} and never reads it"
            for line, name in sorted(bound) if _private(name) and name not in read]


def uncalled_publics(sources):
    """'filename:line: defines name and no module reads it' for each public
    top-level def or class of the {filename: source} package sources that
    no module reads, as a name or an attribute, and `__init__.py` does not
    import."""
    trees = {filename: ast.parse(source, filename) for filename, source in sources.items()}
    read = set()
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and filename == "__init__.py":
                read.update(alias.name for alias in node.names)
    return [f"{filename}:{node.lineno}: defines {node.name} and no module reads it"
            for filename, tree in sorted(trees.items()) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not _private(node.name) and node.name not in read]


def grid_pid_reads(source, filename):
    """'filename:line: reads grid_pid outside ParamSpace' for each read of
    grid_pid, as a name or an attribute, outside a class named ParamSpace:
    a call, or a reference that another function calls (map(grid_pid, ...))."""
    tree = ast.parse(source, filename)
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "ParamSpace"
              for node in ast.walk(cls)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(getattr(node, "ctx", None), ast.Load) and id(node) not in inside
                   and "grid_pid" in (getattr(node, "id", None), getattr(node, "attr", None)))
    return [f"{filename}:{line}: reads grid_pid outside ParamSpace" for line in lines]


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_param_space_builds_grid_configs(path):
    assert grid_pid_reads(path.read_text(), path.name) == []


def test_grid_pid_reads_are_caught():
    source = '''
from .search import grid_pid

grid_pid = partial(tuple.__new__, PidConfig)


class ParamSpace:
    def pid_at(self, ip, ii, id_):
        return grid_pid((1.0, 2.0, 3.0))

    def cells(self):
        return tuple(map(grid_pid, self.values))


def region(values):
    return set(map(grid_pid, values))


def one(search):
    return search.grid_pid((1.0, 2.0, 3.0))


class Reader:
    build = grid_pid

    def read(self):
        return [self.build(v) for v in self.values]
'''
    assert grid_pid_reads(source, "m.py") == [
        "m.py:16: reads grid_pid outside ParamSpace",
        "m.py:20: reads grid_pid outside ParamSpace",
        "m.py:24: reads grid_pid outside ParamSpace"]


def test_every_public_def_has_a_caller():
    assert uncalled_publics({path.name: path.read_text() for path in MODULES}) == []


def test_uncalled_publics_are_caught():
    sources = {"__init__.py": "from .m import Exported\n", "m.py": '''
class Exported:
    pass


def called():
    return 1


def dead():
    return called()


class Unused:
    def method(self):
        return self.attr


def _private():
    pass
''', "n.py": '''
from . import m


def uses():
    return m.attr_read, helper()


def helper():
    return 2
'''}
    assert uncalled_publics(sources) == [
        "m.py:10: defines dead and no module reads it",
        "m.py:14: defines Unused and no module reads it",
        "n.py:5: defines uses and no module reads it"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reaches_a_private_name_of_another(path):
    assert violations(path.read_text(), path.name) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path.read_text(), path.name) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_defines_a_private_name_it_never_reads(path):
    assert unread_privates(path.read_text(), path.name) == []


def validator_methods(source):
    """{class name: names of the methods it defines} for Validator and each
    class of source that derives from it."""
    methods = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and (node.name == "Validator" or any(
                isinstance(base, ast.Name) and base.id in methods for base in node.bases)):
            methods[node.name] = {item.name for item in node.body
                                  if isinstance(item, ast.FunctionDef)}
    return methods


def test_validators_implement_classify_many_and_not_classify():
    methods = validator_methods((PACKAGE / "validator.py").read_text())
    assert {"SimulationValidator", "RouthValidator", "LookupValidator"} < methods.keys()
    assert [name for name, defs in methods.items() if "classify" in defs] == [
        "Validator", "RouthValidator"]
    assert all("classify_many" in defs for defs in methods.values())


def test_validator_methods_follow_subclasses():
    source = '''
class Validator:
    def classify(self, pid): ...


class Direct(Validator):
    def classify_many(self, pids): ...


class Indirect(Direct):
    def classify(self, pid): ...


class Other:
    def classify(self, pid): ...
'''
    assert validator_methods(source) == {"Validator": {"classify"},
                                         "Direct": {"classify_many"},
                                         "Indirect": {"classify"}}


def test_unread_privates_are_caught():
    source = '''
_USED = 1
_UNUSED = 2
_A, (_B, PUBLIC) = 3, (4, 5)
_T: int = _USED + _A
_COUNT += 1


def _helper():
    return _inner()


def _inner():
    return PUBLIC


def _orphan():
    return _helper()


class _Shape:
    _slot = 1

    def _method(self):
        _local = 1
        return _local
'''
    assert unread_privates(source, "m.py") == [
        "m.py:3: defines _UNUSED and never reads it",
        "m.py:4: defines _B and never reads it",
        "m.py:5: defines _T and never reads it",
        "m.py:6: defines _COUNT and never reads it",
        "m.py:17: defines _orphan and never reads it",
        "m.py:21: defines _Shape and never reads it"]


def test_unused_imports_are_caught():
    source = '''
from __future__ import annotations
import os.path
import sys
import numpy as np
from .evalkit import INVALID, VALID
from .plant import PidConfig as Pid


def f(x: Pid) -> None:
    return os.path.join(INVALID, np.nan)
'''
    assert unused_imports(source, "m.py") == [
        "m.py:4: imports sys and never uses it",
        "m.py:6: imports VALID and never uses it"]


def test_both_shapes_are_caught():
    source = '''
from .validator import SimulationValidator, _note_queries
from . import _helpers
from pidlab.search import _axis_count
from .plant import __all__

_TABLE = {}


class Local:
    _shared = 1

    def __init__(self):
        self._memo = {}

    def own(self, other, v):
        other._memo.clear()
        Local._shared += 1
        _TABLE._keys = None
        return cls._anything, self._anything, v.__dict__, v._checks(), v._tally
'''
    assert violations(source, "m.py") == [
        "m.py:2: imports _note_queries from .validator",
        "m.py:3: imports _helpers from .",
        "m.py:4: imports _axis_count from pidlab.search",
        "m.py:20: reaches _checks of another module",
        "m.py:20: reaches _tally of another module"]
