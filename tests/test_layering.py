"""The counting layers import one another in one direction only, a command
reaches every top-level definition, and every imported name is used."""

import ast
import sys
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


PERFBENCH = SRC.parents[1] / "perfbench"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def module_parts(module: str) -> tuple[dict, dict, list]:
    """A module's top-level definitions, names imported from sqflab and other statements."""
    defs, imported, statements = {}, {}, []
    for node in ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")).body:
        if isinstance(node, DEFINITIONS):
            defs[node.name] = node
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sqflab."):
            for alias in node.names:
                imported[alias.asname or alias.name] = (
                    node.module.removeprefix("sqflab."), alias.name
                )
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            statements.append(node)
    return defs, imported, statements


def test_every_top_level_definition_is_reached(monkeypatch):
    # The roots: the console entry points, every module-level statement but
    # an import, and the names perfbench's tracer wraps.  The tracer's names
    # are roots only while it holds a name list (ROADMAP item 5).
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    modules = {path.stem: module_parts(path.stem) for path in SRC.glob("*.py")}

    def resolve(module, name):
        """The (module, name) of the definition that `name` means in `module`, or None."""
        defs, imported, _ = modules[module]
        if name in defs:
            return module, name
        return resolve(*imported[name]) if name in imported else None

    # Where the tracer patches a counter into every namespace (None), one
    # module that binds the name suffices.
    wrapped = [([layer], name) for layer, names in tracer.SPANS.items() for name in names]
    wrapped += [([m] if m else list(modules), name) for m, name, _ in tracer.COUNTERS]
    roots = {("cli_runner", "main"), ("cli_runner", "run")}
    for where, name in wrapped:
        found = {resolve(m, name) for m in where} - {None}
        assert found, f"{where} {name}"
        roots |= found

    reached = set(roots)
    todo = [(m, node) for m, (_, _, statements) in modules.items() for node in statements]
    todo += [(m, modules[m][0][name]) for m, name in roots]
    while todo:
        module, node = todo.pop()
        for used in ast.walk(node):
            found = isinstance(used, ast.Name) and resolve(module, used.id)
            if found and found not in reached:
                reached.add(found)
                todo.append((found[0], modules[found[0]][0][found[1]]))
    defined = {(m, name) for m, (defs, _, _) in modules.items() for name in defs}
    assert sorted(defined - reached) == []


def test_every_imported_name_is_used():
    # __init__.py imports to re-export; a name imported only for another
    # module's sake is marked on its line with `# noqa: F401`.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.stem}: {name}")
    assert unused == []
