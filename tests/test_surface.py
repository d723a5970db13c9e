"""Every public function and class of the package has a caller outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "maecodec"

# The acceptance verdict's measures; they are scored only by the tests today.
ALLOWED_UNREFERENCED = {"training.baseline_fill_mse", "training.masked_model_mse"}


def _references(tree: ast.AST) -> set[str]:
    """Names, attribute names and import aliases anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
            if node.asname:
                names.add(node.asname)
    return names


def _public_definitions_and_references() -> tuple[dict[str, str], set[str]]:
    """Public module-level defs of the package by qualified name, and every name
    referenced outside the tests: from the package (not a definition's own body),
    ``perfbench/`` and ``tools/``."""
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined[f"{path.stem}.{own}"] = own
            referenced |= _references(stmt) - {own}
    for sub in ("perfbench", "tools"):
        for path in sorted((ROOT / sub).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                referenced |= _references(ast.parse(path.read_text(), str(path)))
    return defined, referenced


def test_every_public_definition_has_a_caller_outside_the_tests():
    defined, referenced = _public_definitions_and_references()
    assert "pipeline.compress" in defined and "compress" in referenced
    unreferenced = {qual for qual, name in defined.items() if name not in referenced}
    # an allowed name that gains a caller leaves the list too
    assert unreferenced == ALLOWED_UNREFERENCED


def test_package_root_holds_only_its_docstring():
    # callers import modules; a re-export list at the root would state the
    # surface a second time
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 1
