"""Every name the package exports has a caller outside the test suite."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crms"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def package_code_names() -> set[str]:
    # Identifiers in the code of the package's modules (not in strings or
    # comments), leaving out the name a def or class line defines.
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        previous = None
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                names.add(tok.string)
            if tok.type == tokenize.NAME:
                previous = tok.string
            elif tok.type not in (tokenize.NL, tokenize.COMMENT):
                previous = None
    return names


def benchmark_words() -> set[str]:
    # The benchmark looks functions up by name, so strings count there.
    words = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def test_every_export_has_a_product_caller():
    names = exported_names()
    assert {"validate_crms", "build_compatible", "run_flow"} <= names
    callers = package_code_names() | benchmark_words()
    test_only = sorted(names - callers)
    assert test_only == [], f"exported but called only from tests: {test_only}"
