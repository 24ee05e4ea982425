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


def test_immutable_classes_define_reduce():
    # the default copy and pickle restore slots through __setattr__, so a class
    # whose __setattr__ raises must rebuild itself through __reduce__
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    immutable, found = [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {
                node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)
            }
            setattr_def = methods.get("__setattr__")
            if setattr_def is None or not any(
                isinstance(node, ast.Raise) for node in ast.walk(setattr_def)
            ):
                continue
            immutable.append(cls.name)
            if "__reduce__" not in methods:
                found.append(f"{path.name}:{cls.lineno} {cls.name}")
    assert immutable, "the scan found no immutable class"
    assert not found, f"immutable classes without __reduce__: {found}"
