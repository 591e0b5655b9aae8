"""The spatial discretisation is read in one place: the field operator and the step cap.

Centered differences are taken only by the field operator's ``terms`` and by the
written-out reference ``bridges_residual``; the transposed pair is read only inside
the operator; the stability constants only by ``flow.stability_bound``; and the
fiber blocks are derived, not written out as literals.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crms"


def scoped_nodes():
    """(module, enclosing class/def names, node) for every node of the package's code."""
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), ())]
        while stack:
            node, scope = stack.pop()
            yield path.stem, scope, node
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = scope + (node.name,)
            stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def where(predicate) -> set[tuple[str, tuple[str, ...]]]:
    return {(module, scope) for module, scope, node in scoped_nodes() if predicate(node)}


def test_differences_are_taken_only_by_the_operator_terms_and_the_reference():
    def calls_diff(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        return (isinstance(f, ast.Name) and f.id == "diff") or (
            isinstance(f, ast.Attribute) and f.attr == "diff" and not (isinstance(f.value, ast.Name) and f.value.id == "np")
        )

    assert where(calls_diff) == {("fields", ("_FieldOperator", "terms")), ("fields", ("bridges_residual",))}


def test_transposed_pair_is_read_only_inside_the_operator():
    reads = where(lambda node: isinstance(node, ast.Attribute) and node.attr in ("j1t", "j2t"))
    assert reads and all(module == "fields" and scope[:1] == ("_FieldOperator",) for module, scope in reads)


def test_stability_constants_are_looked_up_only_by_the_step_cap():
    lookups = where(
        lambda node: isinstance(node, ast.Subscript)
        and isinstance(node.value, (ast.Name, ast.Attribute))
        and getattr(node.value, "id", getattr(node.value, "attr", None)) == "STABILITY_KAPPA"
    )
    assert lookups == {("flow", ("stability_bound",))}
    imports = where(
        lambda node: isinstance(node, ast.ImportFrom) and any(a.name == "STABILITY_KAPPA" for a in node.names)
    )
    assert imports == set()


def test_fiber_blocks_are_not_literals():
    def literal_4x4(node):
        return (
            isinstance(node, (ast.List, ast.Tuple))
            and len(node.elts) == 4
            and all(isinstance(row, (ast.List, ast.Tuple)) and len(row.elts) == 4 for row in node.elts)
        )

    assert where(literal_4x4) == set()
