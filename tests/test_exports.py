"""Names are imported from their modules, and every public name has a caller outside the test suite.

A product caller is code in ``src/crms`` or a ``perfbench`` workload.  The package module exports
nothing, so the rule is checked on every public function, class, method or property, and module
constant of every module.
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crms"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def used_names(node: ast.AST) -> collections.Counter:
    """Each name read in ``node``'s code, as a variable or an attribute, with its count."""
    return collections.Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    )


def public_definitions() -> dict[str, ast.AST]:
    """Each public name of each module, as module.name or module.Class.method, with the node that defines it."""
    found = {}
    for path in MODULES:
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                found.update((f"{module}.{node.name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef))
            if isinstance(node, ast.Assign):
                found.update((f"{module}.{t.id}", node) for t in node.targets if isinstance(t, ast.Name))
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                found[f"{module}.{node.target.id}"] = node
    # A method of a private class is private too.
    return {name: node for name, node in found.items() if not any(part.startswith("_") for part in name.split("."))}


def benchmark_words() -> set[str]:
    # The benchmark's tracer looks functions up by name, so strings count there.
    words = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def test_package_module_holds_only_its_docstring():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1, "crms/__init__.py re-exports or defines names; import them from their modules"


def test_every_public_name_has_a_product_caller():
    definitions = public_definitions()
    assert {
        "linalg.validate_crms",  # function
        "flow.FlowConfig",  # class
        "flow.FlowConfig.check_stability",  # method
        "fields.TorusGrid.h1",  # property
        "fields.COMPLEX_STEP",  # constant
    } <= set(definitions)
    package_uses = sum((used_names(ast.parse(p.read_text(encoding="utf-8"))) for p in MODULES), collections.Counter())
    words = benchmark_words()
    test_only = sorted(
        qualified
        for qualified, node in definitions.items()
        # A use inside the name's own def, class or assignment is not a caller.
        if package_uses[name := qualified.rpartition(".")[2]] <= used_names(node)[name] and name not in words
    )
    assert test_only == [], f"public but called only from tests: {test_only}"
