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


def test_body_document_tags_live_in_io():
    # One table in io reads and writes body documents; no other module spells its tags.
    spelled = {p.name for p in PACKAGE.glob("*.py") if '"hpoly"' in p.read_text() or '"vpoly"' in p.read_text()}
    assert spelled == {"io.py"}


def _power_of_two_sites(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each top-level function or class that reads frexp or ldexp (from
    math or numpy), and ``module`` where module-level code outside imports does."""
    sites = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    getattr(n, "id", getattr(n, "attr", None)) in ("frexp", "ldexp") for n in ast.walk(node)):
                sites.add(f"{module}.{node.name}" if hasattr(node, "name") else module)
    return sorted(sites)


def test_power_of_two_check_finds_one():
    sources = {"a": "import numpy as np\nfrom math import frexp\ndef _pow2_scaled(x):\n    return np.ldexp(x, -frexp(x)[1])\n"
                    "def fit(x):\n    return np.frexp(x)[1]\n",
               "b": "import math\nE = math.ldexp(1.0, 3)\n"}
    assert _power_of_two_sites(sources) == ["a._pow2_scaled", "a.fit", "b"]


def test_power_of_two_scaling_lives_in_one_helper():
    # One helper scales arrays by powers of two and reads their exponents; every other
    # kernel calls it.
    assert _power_of_two_sites({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == ["bodies._pow2_scaled"]


def _threshold_sites(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each top-level function or class that writes ``1 + tol`` (either
    order, 1 as an int or a float), the acceptance threshold's denominator, and ``module``
    where module-level code does."""
    sites = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            for n in ast.walk(node):
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add):
                    operands = (n.left, n.right)
                    if (any(isinstance(o, ast.Constant) and o.value == 1 for o in operands)
                            and any(getattr(o, "id", getattr(o, "attr", None)) == "tol" for o in operands)):
                        sites.add(f"{module}.{node.name}" if hasattr(node, "name") else module)
    return sorted(sites)


def test_threshold_check_finds_one():
    sources = {"a": "def _accepts(r, tol):\n    return r >= 1.0 / (1.0 + tol)\n"
                    "def each(rs, tol):\n    return [r >= 1 / (tol + 1) for r in rs]\n"
                    "def band(tol):\n    return 2 + tol\n",
               "b": "import cfg\nT = 1.0 / (1 + cfg.tol)\n"}
    assert _threshold_sites(sources) == ["a._accepts", "a.each", "b"]


def test_acceptance_threshold_is_written_once():
    # Every verdict, scalar or one per mode, passes its ratios to _accepts; none spells the
    # threshold 1/(1 + tol) itself.
    assert _threshold_sites({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == ["bodies._accepts"]


def _called(call, name: str) -> bool:
    """Whether an AST node is a call of ``name``, bare or as an attribute (``np.linalg.name``)."""
    return isinstance(call, ast.Call) and getattr(call.func, "attr", getattr(call.func, "id", None)) == name


def _polytope_inverse_sites(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each top-level function or class that calls ``inv`` on an
    expression reading a polytope's array: ``rows``, ``vertices`` or the validator's ``arr``."""
    sites = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            for call in ast.walk(node):
                if _called(call, "inv") and any(getattr(n, "id", getattr(n, "attr", None)) in ("rows", "vertices", "arr")
                                                for arg in call.args for n in ast.walk(arg)):
                    sites.add(f"{module}.{node.name}")
    return sorted(sites)


def test_polytope_inverse_check_finds_one():
    sources = {"a": "import numpy as np\ndef _factor(body):\n    return np.linalg.inv(body.factor)\n"
                    "def _solve(rows, s):\n    return np.linalg.solve(rows, s)\n",
               "b": "from numpy.linalg import inv\ndef gauge(body, x):\n    return x @ inv(body.vertices)\n"}
    assert _polytope_inverse_sites(sources) == ["b.gauge"]


def test_a_polytope_is_inverted_in_one_place():
    # One factorization per square polytope: the validator's inverse certifies the rank
    # and is kept as a V-polytope's gauge, so no verdict inverts a body's array again.
    assert _polytope_inverse_sites({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == ["bodies._square_inverse"]


def _inverse_transpose_sites(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each top-level function or class that transposes an inverse,
    ``inv(...).T``."""
    return sorted({f"{module}.{node.name}" for module, source in sources.items() for node in ast.parse(source).body
                   for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "T" and _called(n.value, "inv")})


def test_inverse_transpose_check_finds_one():
    sources = {"a": "import numpy as np\ndef _helper(f, c):\n    return np.linalg.inv(f).T / c\n"
                    "def polar(body):\n    return np.linalg.inv(body.factor).T\n"
                    "def other(m):\n    return np.linalg.inv(m) @ m.T\n",
               "b": "from numpy.linalg import inv\nclass V:\n    def pair(self):\n        return [inv(f).T for f in self.fs]\n"}
    assert _inverse_transpose_sites(sources) == ["a._helper", "a.polar", "b.V"]


def test_an_ellipsoid_factor_is_inverted_in_one_place():
    # F^-T / c serves the polar (c = hbar), (d M)^-1 (c = 1), the x/p pair of two blocks
    # (c = sqrt 2) and the MVEE core set's dual basis; no other site writes inv(F).T.
    assert _inverse_transpose_sites({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == [
        "bodies._inverse_transpose"]


def _call_sites(sources: dict[str, str], name: str) -> list[str]:
    """``module.function`` or ``module.Class.method`` for each top-level function or method
    that calls ``name``; ``module.Class`` or ``module`` for other class or module-level code."""
    sites = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = [node.name] if isinstance(node, ast.ClassDef) else []
            for member in node.body if owner else [node]:
                if any(_called(n, name) for n in ast.walk(member)):
                    sites.add(".".join([module, *owner, *([member.name] if hasattr(member, "name") else [])]))
    return sorted(sites)


def _imported_modules(source: str) -> set[str]:
    """The package modules a module imports anywhere: ``from .m import x``, ``from . import m``,
    ``from qpolar.m import x`` and ``import qpolar.m``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("qpolar").lstrip(".")
            if node.level or node.module and node.module.split(".")[0] == "qpolar":
                found.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("qpolar.") for a in node.names if a.name.startswith("qpolar."))
    return found


def test_call_and_import_checks_find_one():
    source = ("import numpy as np\nimport qpolar.cloud\nfrom . import bodies\nfrom .quantum import f\n"
              "from numpy.linalg import svd\nclass K:\n    def s(self, m):\n        from qpolar.io import read\n"
              "        return svd(m)\ndef e(m):\n    return np.linalg.eigvalsh(m)\n")
    assert _call_sites({"a": source}, "svd") == ["a.K.s"]
    assert _call_sites({"a": source}, "eigvalsh") == ["a.e"]
    assert _call_sites({"b": "from numpy.linalg import svd\nclass C:\n    S = svd(1)\nT = svd(2)\n"}, "svd") == ["b", "b.C"]
    assert _imported_modules(source) == {"cloud", "bodies", "quantum", "io"}


def test_the_ab_spectrum_lives_beside_its_factors():
    # The singular values of C^T G are taken in symplectic, beside _spd_pair; hardy reads them
    # from there, not through quantum.
    sources = {name: (PACKAGE / f"{name}.py").read_text() for name in ("quantum", "hardy")}
    assert _call_sites(sources, "svd") == []
    assert "quantum" not in _imported_modules(sources["hardy"])


def test_derived_bodies_are_built_by_the_range_checked_constructors():
    # _unchecked skips the validators; its only callers check the float range of what they
    # build (an ellipsoid's matrix, a polytope's row maxima), so every derived body does.
    assert _call_sites({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}, "_unchecked") == [
        "bodies.Ellipsoid._from_factor", "bodies._scaled_polytope"]


def test_the_pair_verdict_lives_beside_the_inclusion_scale():
    # PairVerdict and is_quantum_pair are defined once, in bodies, and no module imports the
    # polarity module they were folded from.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    defined = _defined_names(sources)
    assert [m for m in sorted(defined) if {"PairVerdict", "is_quantum_pair"} & defined[m]] == ["bodies"]
    assert [m for m, source in sources.items() if "polarity" in _imported_modules(source)] == []


def test_no_hermitian_eigensolver_in_the_library():
    # Validity reads nu_min off the Williamson spectrum's SVD; the Hermitian pencil is the
    # reference in tests (conftest.hermitian_validity_ratio), not a route of the library.
    assert _call_sites({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}, "eigvalsh") == []


def _cli_rule_sites(source: str) -> list[str]:
    """``name: call`` for each top-level function or statement (``<module>``) of a CLI module
    that calls ``sys.exit`` or builds ``click.Path(exists=True)``, decorators included."""
    sites = []
    for node in ast.parse(source).body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
                name = f"{getattr(call.func.value, 'id', None)}.{call.func.attr}"
                if name == "sys.exit" or name == "click.Path" and any(k.arg == "exists" for k in call.keywords):
                    sites.append(f"{getattr(node, 'name', '<module>')}: {name}")
    return sorted(sites)


def test_cli_rule_check_finds_one():
    source = ("import sys\nimport click\ndef _verdict(ok):\n    sys.exit(0 if ok else 2)\n"
              "@click.option('-x', type=click.Path(exists=True))\ndef run(x):\n    if x:\n        sys.exit(2)\n"
              "out = click.option('-o', type=click.Path())\n")
    assert _cli_rule_sites(source) == ["_verdict: sys.exit", "run: click.Path", "run: sys.exit"]


def test_cli_exit_rule_and_input_option_are_written_once():
    # Every command exits through _verdict on a verdict the library returned, and every
    # input-file option is input_option's.
    assert _cli_rule_sites((PACKAGE / "cli.py").read_text()) == ["_verdict: sys.exit", "input_option: click.Path"]


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


def test_readme_library_example_holds():
    # The README's library block runs, and each claim its comments make holds.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M).group(1)
    namespace, shown = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    hbar = 1.0
    assert namespace["verdict"].lambda_max == 1.0
    assert namespace["report"].value == 4 * hbar
    valid, pair, spectrum, envelope = shown
    assert valid is True and pair is True
    assert spectrum == pytest.approx([0.75, 0.75], rel=1e-12, abs=0.0)
    assert envelope is True
