"""Source rules that keep each rule in one home: no module reaches into
another module's private names."""

import ast
from pathlib import Path

import pytest

import qrfsim

SRC = Path(qrfsim.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(path: Path) -> list[str]:
    """'line: name' for every single-underscore name that the module takes from
    another qrfsim module, by `from . import` / `from qrfsim... import` or as an
    attribute of a qrfsim module it imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "qrfsim"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.lineno}: {alias.name}")
                if node.module in (None, "qrfsim"):  # `from . import packets`
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qrfsim":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


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
