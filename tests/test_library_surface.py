"""Every top-level name in the library earns its place.

A function, class or constant in ``src/hodgeslope/`` stays only if
another part of the library refers to it, if the benchmark binds it, or if
``KEPT`` names the open item that settles it.  A helper that only the tests
call belongs in ``tests/support.py``.  The benchmark binds a name when
``perfbench/tracer.py`` lists it among its ``LAYERS`` targets or
``perfbench/run.py`` reaches it as ``inequalities.<name>``.  A reference is
judged on the syntax tree: a name or an attribute of that spelling anywhere
in ``src/`` outside the definition itself.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from support import load_tracer

ROOT = Path(__file__).resolve().parents[1]

#: Unreferenced names kept on purpose, as "module.name", each with its reason.
KEPT = {
    "__init__.__version__": "the package version, read by the package's users",
    "hodge_system.derive_components": "ROADMAP item 4 makes it the one statement "
    "of the inheritance rule, or deletes it",
}


def definitions(tree: ast.Module):
    """(name, node) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def spellings(node: ast.AST) -> Counter:
    """How often each name and attribute is spelled inside ``node``."""
    found: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
    return found


def benchmark_bindings() -> set[str]:
    """The library names the benchmark binds, as "module.name"."""
    bound = {
        f"{module}.{attr.split('.')[0]}"
        for targets in load_tracer().LAYERS.values()
        for module, attr in targets
    }
    run = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in ast.walk(run):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "inequalities"
        ):
            bound.add(f"inequalities.{node.attr}")
    return bound


def test_every_library_name_has_a_caller():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "hodgeslope").glob("*.py"))
    }
    everywhere = sum((spellings(tree) for tree in trees.values()), Counter())
    bound = benchmark_bindings()
    defined, unreached, kept_yet_reached = set(), [], []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            qualified = f"{module}.{name}"
            defined.add(qualified)
            reached = everywhere[name] > spellings(node)[name] or qualified in bound
            if not reached and qualified not in KEPT:
                unreached.append(qualified)
            elif reached and qualified in KEPT:
                kept_yet_reached.append(qualified)
    assert not unreached, f"library names nothing in src/ or perfbench/ reaches: {unreached}"
    assert not kept_yet_reached, f"KEPT names that are reached after all: {kept_yet_reached}"
    assert set(KEPT) <= defined, f"KEPT names that no longer exist: {sorted(set(KEPT) - defined)}"


def importers(name: str) -> list[str]:
    """Each "module:line" in ``src/`` that imports a module whose last
    dotted part is ``name``."""
    found = []
    for path in sorted((ROOT / "src" / "hodgeslope").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or "", *[alias.name for alias in node.names]]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(module.split(".")[-1] == name for module in modules):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_library_module_imports_inequalities():
    # no command decides through inequalities, whose lemmas only the tests
    # and the benchmark call: ROADMAP item 14 moves them out of the library
    found = importers("inequalities")
    assert not found, f"library modules importing inequalities: {found}"


def test_no_library_module_imports_enum():
    # answers and modes are the strings the reports and the command line
    # use, compared with ==, so no module needs an Enum
    found = importers("enum")
    assert not found, f"library modules importing enum: {found}"
