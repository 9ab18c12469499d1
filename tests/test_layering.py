"""The counting layers import one another in one direction only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sqflab"

# Each lower layer with the sqflab modules it may import.
ALLOWED = {
    "arith_core": set(),
    "progression_stats": {"arith_core"},
    "exponent_calculus": {"arith_core"},
    "congruence_count": {"arith_core", "exponent_calculus"},
}


def sqflab_imports(module: str) -> set[str]:
    """The sqflab modules that one module of the package imports, by name."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(
                alias.name.removeprefix("sqflab.") for alias in node.names
                if alias.name.startswith("sqflab.")
            )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("sqflab."):
                found.add(node.module.removeprefix("sqflab."))
            elif node.level > 0 and node.module:
                found.add(node.module)
            elif node.level > 0 or node.module == "sqflab":
                # from sqflab import x, or from . import x: x is a module.
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module, allowed", sorted(ALLOWED.items()))
def test_a_layer_imports_only_the_layers_below_it(module, allowed):
    assert sqflab_imports(module) <= allowed


def test_the_import_reader_sees_every_sqflab_import():
    assert sqflab_imports("cli_runner") == {
        "arith_core", "congruence_count", "decomposition_pipeline", "exponent_calculus",
        "progression_stats",
    }
