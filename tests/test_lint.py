"""Source rules that keep each rule in one home: no module reaches into
another module's private names, the CLI reads no kernel's block or table size (its
working-set rules live beside the loops they bound), the library needs nothing beyond numpy, no
deletion leaves an unused import, an unread private name or an unread
public constant behind, no
matrix is inverted numerically, no test tolerance is relative by default, no
test module imports another, the default grid size is spelled once, no lattice step is
read off its first two points, and importing the CLI loads no numpy
submodule that only a rare path needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrfsim

SRC = Path(qrfsim.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def imported_names(path: Path, wanted) -> list[str]:
    """'line: name' for every name that wanted accepts and that the module takes from
    another qrfsim module, by `from . import` / `from qrfsim... import` or as an
    attribute of a qrfsim module it imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "qrfsim"):
            for alias in node.names:
                if wanted(alias.name):
                    found.append(f"{node.lineno}: {alias.name}")
                if node.module in (None, "qrfsim"):  # `from . import packets`
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qrfsim":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and wanted(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def private_imports(path: Path) -> list[str]:
    """The single-underscore names the module takes from another qrfsim module."""
    return imported_names(path, _private)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_names_cross_modules(path):
    assert private_imports(path) == []


def test_the_rule_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import __version__, packets\n"
                     "from .packets import _derivative, apply_x\n"
                     "from qrfsim.relkin import _nw_packet\n"
                     "import qrfsim.clocks as clk\n"
                     "packets._derivative\nclk._LOBE_NODES\npackets.__doc__\n")
    assert private_imports(probe) == ["2: _derivative", "3: _nw_packet",
                                      "5: packets._derivative", "6: clk._LOBE_NODES"]



def _block_or_table_size(name: str) -> bool:
    """INTERP_BLOCK, ANGLE_TABLE_POINTS, POSITION_TABLE_POINTS and their like."""
    return name.isupper() and ("BLOCK" in name or name.endswith("TABLE_POINTS"))


def test_the_cli_reads_no_block_or_table_size():
    # a working-set rule that needs a kernel's block or table size lives beside that kernel
    assert imported_names(SRC / "cli.py", _block_or_table_size) == []


def test_the_rule_sees_block_and_table_sizes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .sampling import INTERP_BLOCK, make_rng\n"
                     "from qrfsim.relkin import (BOOST_MAX_NODES, ANGLE_TABLE_POINTS,\n"
                     "                           ALPHA_I_WARN)\n"
                     "from . import relkin, sampling\n"
                     "relkin.POSITION_TABLE_POINTS\nrelkin.BOOST_TAIL\nsampling.INTERP_BLOCK\n"
                     "OWN_BLOCK = 3\n")
    assert imported_names(probe, _block_or_table_size) == [
        "1: INTERP_BLOCK", "2: ANGLE_TABLE_POINTS", "5: relkin.POSITION_TABLE_POINTS",
        "7: sampling.INTERP_BLOCK"]


def function_level_imports(path: Path) -> list[str]:
    """'line: module' for every import inside a function or method body, nested
    functions included: a module's imports all sit at its top."""
    found = set()
    for scope in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(scope):
                if isinstance(node, ast.Import):
                    found |= {(node.lineno, alias.name) for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    found.add((node.lineno, "." * node.level + (node.module or "")))
    return [f"{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_level_imports(path):
    assert function_level_imports(path) == []


def test_the_rule_sees_function_level_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "from . import packets\n"
                     "def f():\n"
                     "    from .clocks import rotator_read\n"
                     "    def g():\n"
                     "        import json, os\n"
                     "class C:\n"
                     "    import math\n"
                     "    async def m(self):\n"
                     "        from . import frames\n")
    assert function_level_imports(probe) == ["4: .clocks", "6: json", "6: os", "10: ."]

#: Top-level packages src/ may import besides the standard library (pyproject's dependencies).
DEPENDENCIES = {"numpy", "qrfsim"}


def third_party_imports(path: Path) -> list[str]:
    """'line: module' for every absolute import, at any depth, whose top-level
    package is neither in the standard library nor a declared dependency."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | DEPENDENCIES]
    return found


def test_src_imports_only_numpy_and_stdlib():
    # scipy is installed alongside numpy but is not a dependency of the package
    found = {p.relative_to(SRC).as_posix(): third_party_imports(p) for p in SRC.rglob("*.py")}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_the_rule_sees_third_party_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os.path, numpy as np\n"
                     "import scipy.linalg\n"
                     "from numpy.linalg import inv\n"
                     "from scipy import special\n"
                     "from . import packets\n"
                     "from qrfsim.frames import Body\n"
                     "import json, hypothesis\n"
                     "def f():\n"
                     "    import pandas as pd\n")
    assert third_party_imports(probe) == ["3: scipy.linalg", "5: scipy", "8: hypothesis",
                                          "10: pandas"]


def _read_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(path: Path) -> list[str]:
    """'line: name' for every name an import binds, at any depth, that the module
    never reads; a name listed in `__all__` is read, `from __future__` binds none."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read_names(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                 for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            found += [f"{node.lineno}: {name}" for name in
                      (alias.asname or alias.name.split(".")[0] for alias in node.names)
                      if name != "*" and name not in read]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_the_rule_sees_unused_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os, sys\n"
                     "import numpy as np\n"
                     "import os.path\n"
                     "from . import packets\n"
                     "from .packets import apply_x as ax, make_gaussian\n"
                     "from .errors import *\n"
                     "__all__ = ['make_gaussian']\n"
                     "def f():\n"
                     "    import json\n"
                     "    return np.pi + sys.maxsize\n")
    assert unused_imports(probe) == ["2: os", "4: os", "5: packets", "6: ax", "10: json"]


def _assigned_names(node: ast.stmt) -> list[str]:
    """The names an assignment statement binds, none for any other statement."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unread_private_names(path: Path) -> list[str]:
    """'line: name' for every single-underscore name that a top-level def, class or
    assignment binds and that nothing in the module reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            names = _assigned_names(node)
        bound += [(node.lineno, name) for name in names if _private(name)]
    read = _read_names(tree)
    return [f"{line}: {name}" for line, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_read(path):
    assert unread_private_names(path) == []


def test_the_rule_sees_unread_private_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "_USED = 1\n"
                     "_UNUSED = 2\n"
                     "_a, (_b, c) = 1, (2, 3)\n"
                     "_annotated: int = 4\n"
                     "def _helper():\n"
                     "    return _USED + _a\n"
                     "class _Hidden:\n"
                     "    _attr = 1\n"
                     "def public():\n"
                     "    return _helper()\n"
                     "__version__ = '1'\n")
    assert unread_private_names(probe) == ["3: _UNUSED", "4: _b", "5: _annotated", "8: _Hidden"]


def unread_constants(paths: list[Path]) -> list[str]:
    """'module:line: NAME' for every public upper-case name that a top-level assignment
    in one of the modules binds and that none of them reads, by name or as an
    attribute: a table size or bound that its last reader left behind."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = set()
    for tree in trees.values():
        read |= _read_names(tree) | {node.attr for node in ast.walk(tree)
                                     if isinstance(node, ast.Attribute)
                                     and isinstance(node.ctx, ast.Load)}
    return [f"{stem}:{node.lineno}: {name}" for stem, tree in trees.items()
            for node in tree.body for name in _assigned_names(node)
            if name.isupper() and not name.startswith("_") and name not in read]


def test_every_public_constant_is_read():
    assert unread_constants(sorted(SRC.rglob("*.py"))) == []


def test_the_rule_sees_unread_constants(tmp_path):
    (tmp_path / "a.py").write_text("USED = 1\n"
                                   "UNUSED = 2\n"
                                   "IMPORTED, _PRIVATE = 3, 4\n"
                                   "ANNOTATED: int = 5\n"
                                   "IMPORTED_ONLY = 6\n"
                                   "__version__, lower = '1', 7\n"
                                   "def f():\n"
                                   "    LOCAL = 8\n"
                                   "    return USED\n")
    (tmp_path / "b.py").write_text("from .a import IMPORTED, IMPORTED_ONLY\n"
                                   "from . import a\n"
                                   "print(IMPORTED * a.ANNOTATED)\n")
    assert unread_constants(sorted(tmp_path.glob("*.py"))) == ["a:2: UNUSED",
                                                               "a:5: IMPORTED_ONLY"]


#: numpy.linalg routines that invert a matrix, solve with it or take its determinant.
MATRIX_INVERSIONS = {"inv", "pinv", "solve", "lstsq", "det", "slogdet"}


def matrix_inversions(path: Path) -> list[str]:
    """'line: call' for every numpy.linalg inversion or determinant the module uses,
    as `np.linalg.inv`, through a `numpy.linalg` alias, or imported by name.  Chart
    maps are canonical, A B^T = 1, so each inverse is a transpose of a known map."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, found = {"linalg"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname for alias in node.names if alias.name == "numpy.linalg"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "linalg"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in MATRIX_INVERSIONS]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in MATRIX_INVERSIONS and (
                getattr(node.value, "attr", None) == "linalg"
                or getattr(node.value, "id", None) in aliases):
            found.append((node.lineno, ast.unparse(node)))
    return [f"{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_matrix_is_inverted(path):
    assert matrix_inversions(path) == []


def test_the_rule_sees_matrix_inversions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "import numpy.linalg as la\n"
                     "from numpy import linalg\n"
                     "from numpy.linalg import det, norm\n"
                     "np.linalg.inv(a) @ np.linalg.norm(a)\n"
                     "la.solve(a, b), linalg.pinv(a), la.eigh(a)\n"
                     "def f(x):\n"
                     "    return x.inv, numpy.linalg.slogdet(x)\n")
    assert matrix_inversions(probe) == ["4: det", "5: np.linalg.inv", "6: la.solve",
                                        "6: linalg.pinv", "8: numpy.linalg.slogdet"]


def atol_without_rtol(path: Path) -> list[str]:
    """'line: call' for every assert_allclose call that passes atol but not rtol:
    numpy's default rtol=1e-7 would then pass errors far above the stated atol."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and "assert_allclose" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            given = {kw.arg for kw in node.keywords}
            if "atol" in given and "rtol" not in given:
                found.append(f"{node.lineno}: {ast.unparse(node.func)}")
    return found


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("test_*.py")),
                         ids=lambda path: path.stem)
def test_tolerances_are_absolute_when_stated_so(path):
    assert atol_without_rtol(path) == []


def test_the_rule_sees_atol_without_rtol(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "from numpy.testing import assert_allclose\n"
                     "assert_allclose(a, b, atol=1e-12)\n"
                     "assert_allclose(a, b, rtol=0, atol=1e-12)\n"
                     "np.testing.assert_allclose(a, b,\n"
                     "                           atol=0.1)\n"
                     "assert_allclose(a, b, 1e-7, 1e-12)\n"
                     "assert_allclose(a, b, rtol=1e-10)\n"
                     "np.allclose(a, b, atol=1e-12)\n")
    assert atol_without_rtol(probe) == ["3: assert_allclose", "5: np.testing.assert_allclose"]


def imports_of_test_modules(path: Path) -> list[str]:
    """'line: module' for every import, at any depth, of a test_* module: tests share
    their helpers through tests/oracles.py, so no test module runs another's import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + ([alias.name for alias in node.names]
                                           if node.module in (None, "tests") else [])
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name.split(".")[-1].startswith("test_")]
    return found


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_no_test_module_imports_another(path):
    assert imports_of_test_modules(path) == []


def test_the_rule_sees_test_module_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "from oracles import condition\n"
                     "from test_sampling import condition\n"
                     "import test_relkin, json\n"
                     "from tests.test_cli import _edited\n"
                     "from . import test_frames, oracles\n"
                     "from tests import test_packets\n"
                     "def f():\n"
                     "    import tests.test_clocks as tc\n")
    assert imports_of_test_modules(probe) == ["3: test_sampling", "4: test_relkin",
                                          "5: tests.test_cli", "6: test_frames",
                                          "7: test_packets", "9: tests.test_clocks"]


def grid_size_literals(path: Path) -> list[str]:
    """'line: literal' for every number 2048 the module spells, int or float: the
    default grid size has one home, packets.DEFAULT_GRID_POINTS."""
    return [f"{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == 2048]


def test_only_packets_spells_the_default_grid_size():
    found = {p.relative_to(SRC).as_posix(): grid_size_literals(p) for p in SRC.rglob("*.py")}
    assert [path for path, lines in found.items() if lines] == ["packets.py"]


def test_the_rule_sees_grid_size_literals(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("n = 2048\n"
                     "x = 2048.0\n"
                     "s = '2048'\n"
                     "m = 20480, 2 ** 11, True\n"
                     "def f(n=2048, k=DEFAULT_GRID_POINTS):\n"
                     "    return n\n")
    assert grid_size_literals(probe) == ["1: 2048", "2: 2048.0", "5: 2048"]


def first_point_steps(path: Path) -> list[str]:
    """'line: expression' for every difference x[1] - x[0] of one array's first two
    entries: a lattice's step has one home, packets.uniform_step, which takes it end to
    end, so that a lattice and its reflection share it to the bit."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.Subscript) and isinstance(node.right, ast.Subscript)
                and ast.dump(node.left.value) == ast.dump(node.right.value)
                and [ast.unparse(node.left.slice), ast.unparse(node.right.slice)] == ["1", "0"]):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_lattice_step_is_read_off_its_first_points():
    found = {p.relative_to(SRC).as_posix(): first_point_steps(p) for p in SRC.rglob("*.py")}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_the_rule_sees_first_point_steps(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("step = x[1] - x[0]\n"
                     "h = float(self.points[1] - self.points[0])\n"
                     "d = x[2] - x[1]\n"
                     "e = x[1] - y[0]\n"
                     "f = (x[-1] - x[0]) / (n - 1)\n"
                     "g = a.b[1] - a.b[0] + x[0] - x[1]\n")
    assert first_point_steps(probe) == ["1: x[1] - x[0]", "2: self.points[1] - self.points[0]",
                                        "6: a.b[1] - a.b[0]"]


def test_importing_the_cli_loads_no_numpy_polynomial():
    # numpy.polynomial costs every fresh interpreter several ms; only
    # clocks.angle_moments reaches it, through numpy's lazy attribute
    probe = ("import sys, qrfsim.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out.strip() == "[]"
