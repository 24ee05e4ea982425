"""Repository checks that guard the library source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "opalg"


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


def _imports_cli(node):
    if isinstance(node, ast.Import):
        return any(a.name == "opalg.cli" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        package = "." * node.level + (node.module or "")
        if package in (".cli", "opalg.cli"):
            return True
        return package in (".", "opalg") and any(a.name == "cli" for a in node.names)
    return False


def test_core_modules_do_not_import_the_cli():
    # the CLI imports the core, so a core module importing the CLI closes an
    # import cycle and makes `import opalg` load the CLI and argparse
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = []
    for path in paths:
        if path.name in ("cli.py", "__main__.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _imports_cli(node)
        )
    assert not found, f"core modules import the CLI: {found}"


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


# Installs the benchmark's tracer over the library, runs one call of each
# traced layer, and prints the per-layer metrics as JSON.
_TRACED_ROUND = """
import json, time
import opalg
from opalg.gsbases import VerifyConfig
from opalg.models import HurwitzConstrainedModel, RationalRing
from tracing import Tracer

tracer = Tracer(0, clock=time.perf_counter)
tracer.install()
tracer.on = True
opalg.verify_gs(opalg.preset("rb"), VerifyConfig(0, 0, False))
opalg.enumerate_irr(opalg.preset("drb"), 3, ("x",))
opalg.check_axioms(HurwitzConstrainedModel(RationalRing(), 2, window=6), samples=2)
opalg.format_polynomial(opalg.normal_form(opalg.parse_polynomial("d(p(x))*y"), opalg.preset("drb").rules).poly)
tracer.on = False
print(json.dumps(tracer.layer_metrics()))
"""


def test_benchmark_tracer_installs():
    # the tracer wraps library functions by name (rewrite.reduce_once,
    # gsbases.check_triviality, HurwitzSeries.__mul__, ...), so renaming or
    # removing one breaks traced benchmark runs; this reads perfbench/ only
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_ROUND],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    expected = {m["name"] for m in declared} - {"trace.overhead_s", "trace.spans"}
    assert expected <= set(metrics), sorted(expected - set(metrics))
    for name in ("gsbases.compositions", "rewrite.nf_calls", "rewrite.match_calls",
                 "terms.words_built", "coeff.scalar_ops", "models.hurwitz_muls",
                 "gsbases.enumerate_words_s", "cli.parse_s", "cli.format_s"):
        assert metrics[name] > 0, name
    # an exact count for the fixed round: the axiom checks at window 6 make 24
    # series products, so a change that adds products shows here, not as noise
    assert metrics["models.hurwitz_muls"] == 24
