"""Each decision is made in one place.

Centered differences are taken only by the field operator's ``terms`` and by the
written-out reference ``bridges_residual``; the transposed pair is read only inside
the operator; the stability constants only by ``flow.stability_bound``; and the
fiber blocks are derived, not written out as literals.  What counts as an integer or
a real number is decided only by ``linalg._number``, and every entry point that takes
one rejects the same values and stores a Python number.  Every rank verdict comes from
``linalg._rank_profile``, the one reader of ``COND_LIMIT`` and the one values-only SVD.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from crms.cli import parse_config
from crms.errors import ConfigError, DimensionMismatchError
from crms.fields import HamiltonianSpec, TorusGrid, make_hamiltonian
from crms.flow import FlowConfig
from crms.symbols import principal_symbol

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


def test_numbers_are_typed_only_by_the_one_rule():
    number_types = {"bool", "int", "float", "bool_", "integer", "floating", "number"}

    def names(node):
        if isinstance(node, ast.Tuple):
            return {name for elt in node.elts for name in names(elt)}
        return {getattr(node, "id", getattr(node, "attr", None))}

    def tests_number_type(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and bool(names(node.args[1]) & number_types)
        )

    assert where(tests_number_type) == {("linalg", ("_number",))}


def test_rank_verdicts_come_only_from_the_one_rule():
    reads_limit = where(
        lambda node: isinstance(node, (ast.Name, ast.Attribute))
        and getattr(node, "id", getattr(node, "attr", None)) == "COND_LIMIT"
        and isinstance(node.ctx, ast.Load)
    )
    assert reads_limit == {("linalg", ("_rank_profile",))}
    svd_calls = where(lambda node: isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "svd")
    # build_compatible's SVD is a full one: it needs U and V for the polar factors.
    assert svd_calls == {("linalg", ("_rank_profile",)), ("compatible", ("build_compatible",))}
    for path in PACKAGE.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "_condition_number" not in text and "_KERNEL_REL_TOL" not in text, path.name


# Every entry point that takes a number: (kind, the error it raises, its message, a call that
# returns the stored number, or for a function what it builds from the number).
ENTRY_POINTS = {
    "TorusGrid.n1": (int, ValueError, "grid resolution must be an integer", lambda v: TorusGrid(v, 8).n1),
    "TorusGrid.n2": (int, ValueError, "grid resolution must be an integer", lambda v: TorusGrid(8, v).n2),
    "TorusGrid.l1": (float, ValueError, "periods must be real numbers", lambda v: TorusGrid(8, 8, v).l1),
    "TorusGrid.l2": (float, ValueError, "periods must be real numbers", lambda v: TorusGrid(8, 8, 1.0, v).l2),
    "FlowConfig.ds": (float, ConfigError, "ds must be a real number", lambda v: FlowConfig(ds=v, max_steps=1).ds),
    "FlowConfig.grad_tolerance": (
        float, ConfigError, "grad_tolerance must be a real number",
        lambda v: FlowConfig(ds=0.1, max_steps=1, grad_tolerance=v).grad_tolerance,
    ),
    "FlowConfig.max_steps": (
        int, ConfigError, "max_steps must be an integer", lambda v: FlowConfig(ds=0.1, max_steps=v).max_steps
    ),
    "FlowConfig.record_every": (
        int, ConfigError, "record_every must be an integer",
        lambda v: FlowConfig(ds=0.1, max_steps=1, record_every=v).record_every,
    ),
    "make_hamiltonian.n": (
        int, ValueError, "n must be a positive integer", lambda v: make_hamiltonian("quadratic", v).fiber_dim
    ),
    "make_hamiltonian.lam": (
        float, ValueError, "lambda must be a real number",
        lambda v: make_hamiltonian("quadratic", 1, v).value(np.linspace(-1.0, 1.0, 4)),
    ),
    "HamiltonianSpec.fiber_dim": (
        int, DimensionMismatchError, "fiber dimension must be a positive multiple of 4",
        lambda v: HamiltonianSpec("half", v, lambda z: 0.5 * np.sum(z**2, axis=-1), lambda z: z).fiber_dim,
    ),
    "principal_symbol.n": (
        int, ValueError, "n must be a positive integer", lambda v: principal_symbol("Bridges", np.array([1.0, 0.0]), v)
    ),
    "config.n": (int, ConfigError, "config field 'n' must be int", lambda v: parse_config({"n": v}, "validate")["n"]),
    "config.grid.l1": (
        float, ConfigError, "config field 'l1' must be a finite number",
        lambda v: parse_config({"grid": {"l1": v}}, "flow")["grid"].l1,
    ),
    "config.symbol.xi": (
        float, ConfigError, "symbol.xi must be a 2-element list of finite numbers",
        lambda v: parse_config({"symbol": {"xi": [v, 1.0]}}, "symbol")["symbol.xi"][0],
    ),
}
NOT_NUMBERS = ("5", None, [1.0], {"x": 1}, True, np.True_)
NOT_INTEGERS = (8.0, np.float32(8.0), np.float64(8.0))
NUMPY_INTEGERS = (np.int64(8), np.int32(8))
NUMPY_REALS = (np.float32(8.0), np.float64(8.0))
REJECTED = [
    (entry, value)
    for entry, (kind, *_) in ENTRY_POINTS.items()
    for value in NOT_NUMBERS + (NOT_INTEGERS if kind is int else ())
]
ACCEPTED = [
    (entry, value)
    for entry, (kind, *_) in ENTRY_POINTS.items()
    for value in NUMPY_INTEGERS + (NUMPY_REALS if kind is float else ())
]


def _ids(cases):
    return [f"{entry}={value!r}" for entry, value in cases]


@pytest.mark.parametrize(("entry", "value"), REJECTED, ids=_ids(REJECTED))
def test_every_entry_point_rejects_what_is_not_its_number(entry, value):
    _, error, message, build = ENTRY_POINTS[entry]
    with pytest.raises(error, match=message) as caught:
        build(value)
    assert type(caught.value) is error


@pytest.mark.parametrize(("entry", "value"), ACCEPTED, ids=_ids(ACCEPTED))
def test_every_entry_point_stores_numpy_numbers_as_python_numbers(entry, value):
    kind, _, _, build = ENTRY_POINTS[entry]
    got, want = build(value), build(kind(value))
    assert type(got) is type(want) and got == want
