import ast
from pathlib import Path

import hexafield


def test_exports_resolve_once():
    names = hexafield.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from hexafield import *", namespace)  # raises on a name that does not resolve
    assert set(names) <= namespace.keys()


def test_no_assert_statements_in_src():
    # invariants must hold under python -O, which strips assert statements
    sources = sorted(Path(hexafield.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"
