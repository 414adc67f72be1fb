import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import qpolar
from qpolar import (
    CovarianceMatrix,
    Ellipsoid,
    HardyInput,
    HPolytope,
    MeasurementCloud,
    VPolytope,
    cloud_analyze,
    cloud_generate_disk,
    disk_demo,
    hardy_check,
)

PACKAGE = Path(qpolar.__file__).parent


def test_export_list():
    names = qpolar.__all__
    assert names == sorted(names)
    exported = [getattr(qpolar, name) for name in names]  # every entry resolves
    assert not [n for n, obj in zip(names, exported) if n.startswith("_") or inspect.ismodule(obj)]
    # Only the package's own objects: an imported helper would leak in as a public name.
    assert all(obj is qpolar.ConvexBody or obj.__module__.startswith("qpolar.") for obj in exported)
    namespace = {}
    exec("from qpolar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names


def test_init_imports_each_name_from_its_defining_module():
    # A name taken through another module's namespace hides where it is defined.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert len(imports) > 50
    assert [(module, name) for module, name in imports
            if name != "ConvexBody" and getattr(qpolar, name).__module__ != f"qpolar.{module}"] == []


# Builders of each frozen value type that holds arrays; two calls give equal values.
VALUE_TYPES = {
    "Ellipsoid": lambda: Ellipsoid(np.eye(2)),
    "HPolytope": lambda: HPolytope.box([1.0, 2.0]),
    "VPolytope": lambda: VPolytope(np.eye(2)),
    "CovarianceMatrix": lambda: CovarianceMatrix(np.eye(2)),
    "HardyInput": lambda: HardyInput(np.eye(2), np.eye(2)),
    "HardyVerdict": lambda: hardy_check(HardyInput(np.eye(2), np.eye(2))),
    "MeasurementCloud": lambda: MeasurementCloud(np.eye(2), np.eye(2)),
    "AnalysisReport": lambda: cloud_analyze(cloud_generate_disk(1.0, 1.0, 50, 0)),
    "DiskDemoReport": lambda: disk_demo(1.0, 1.0, 50, 0),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_compare_by_identity(name):
    a, b = VALUE_TYPES[name](), VALUE_TYPES[name]()
    assert type(a).__name__ == name
    assert a == a and (a == b) is False and a != b
    assert isinstance(hash(a), int)
    assert len({a, b, a}) == 2


def _unused_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_check_finds_one():
    assert _unused_imports("import os\nimport sys.path\nfrom . import a, b as c\nsys.exit(c)") == ["a", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def _unread_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level private function, class or constant, and each
    upper-case constant, that no other top-level statement of these modules reads: a
    helper only tests use belongs in ``tests/``."""
    statements = [(module, node) for module, source in sources.items() for node in ast.parse(source).body]
    reads = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)}
             for _, node in statements]
    unread = []
    for i, (module, node) in enumerate(statements):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        unread += [f"{module}.{name}" for name in names
                   if (name.startswith("_") and not name.startswith("__") or name.isupper())
                   and not any(name in r for j, r in enumerate(reads) if j != i)]
    return sorted(unread)


def test_unread_helper_check_finds_one():
    sources = {"a": "LIMIT = 3\n_SCALE = 2\ndef _used(x):\n    return _SCALE * x\ndef _dead():\n    return _dead()\n",
               "b": "from .a import _used\ndef public(x):\n    return _used(x) + LIMIT\n"}
    assert _unread_helpers(sources) == ["a._dead"]


def test_no_unread_helpers():
    assert _unread_helpers({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []


def _defined_names(sources: dict[str, str]) -> dict[str, set[str]]:
    """The names each module defines: its functions, classes and assignments, and the
    fields and methods of its classes (no local names)."""
    defined = {}
    for module, source in sources.items():
        names, nodes = set(), list(ast.parse(source).body)
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
                nodes += node.body if isinstance(node, ast.ClassDef) else []
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        defined[module] = names
    return defined


def _unresolved(paths: list[str], defined: dict[str, set[str]]) -> list[str]:
    """The dotted names among paths that the package does not define: in ``module.name``
    the name must be that module's, and every other part a name of some module."""
    everywhere = set().union(*defined.values())

    def resolves(path):
        head, *rest = path.split(".")
        if head in defined and rest:
            return rest[0] in defined[head] and set(rest[1:]) <= everywhere
        return {head, *rest} <= everywhere

    return sorted({path for path in paths if not resolves(path)})


def test_doc_reference_check_finds_one():
    defined = _defined_names({"a": "X = 1\nclass K:\n    f: int\n    def m(self):\n        y = 2\n"})
    assert _unresolved(["X", "a.K", "K.f", "a.K.m", "a.y", "y", "b.X"], defined) == ["a.y", "b.X", "y"]


def test_doc_references_resolve():
    # A name a docstring or the README points at must exist: a fold or a rename that
    # moves it updates the text too.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    in_sources = [name for source in sources.values()
                  for name in re.findall(r"``([A-Za-z_]\w*(?:\.\w+)*)(?:``|\()", source)]
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    in_readme = re.findall(r"\bqpolar\.(\w+\.\w+)", readme) + re.findall(r"`(_\w+)`", readme)
    assert len(in_sources) > 50 and len(in_readme) > 3
    assert _unresolved(in_sources + in_readme, _defined_names(sources)) == []
