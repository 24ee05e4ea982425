"""Repository checks that guard the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opalg"


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so validation must raise instead
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert not found, f"assert statements in src/opalg: {found}"
