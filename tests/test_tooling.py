"""Repository checks that guard the library source itself."""

import ast
import importlib
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


def test_cli_reads_numbers_through_coeff():
    # Fraction(text) builds 1e10000000 before any bound sees it, so every
    # number typed on the command line goes through the bounded reader in
    # opalg.coeff (exact_fraction, exact_weight)
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(node.lineno for a in node.names if a.name.split(".")[0] == "fractions")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fractions"):
            found.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "Fraction":
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "Fraction":
            found.append(node.lineno)
    assert not found, f"cli.py reads Fraction directly at lines {found}"


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


def test_every_all_name_exists():
    # a name left in __all__ after its definition is deleted breaks
    # `from opalg.<module> import *`, which no other test does
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    missing = []
    for path in paths:
        module = importlib.import_module(
            "opalg" if path.stem == "__init__" else f"opalg.{path.stem}"
        )
        missing.extend(
            f"{path.stem}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        )
    assert not missing, f"names in __all__ that the module lacks: {missing}"


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
opalg.normal_form(opalg.parse_polynomial("d(p(x))*y"), opalg.preset("drb").rules, strategy="random")
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
    # the matcher's counters for the same round, so a change in what is
    # matched or reduced shows as a diff; words built may only fall.  The
    # leading reducer asks for least matches, not through match_rule, so
    # the match counters come from the random pass alone
    assert metrics["rewrite.match_calls"] == 10
    assert metrics["rewrite.matches_returned"] == 1
    assert metrics["gsbases.compositions"] == 10
    assert metrics["rewrite.nf_calls"] == 12
    assert metrics["terms.words_built"] <= 1510


# one untimed round of every workload at seed 1, with sys.path set as
# perfbench/worker.py sets it: the script's directory, then src/ first and
# the oracles in tests/ last
_WORKLOAD_ROUND = """
import json, sys, time
from contextlib import nullcontext
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
sys.path.append(str(root / "tests"))
from workloads import WORKLOADS, Calls

out = {}
for name, workload in WORKLOADS.items():
    inputs = workload.inputs(1)
    calls = Calls(nullcontext, clock=time.perf_counter)
    outputs = workload.run(inputs, calls)
    out[name] = [calls.errors, *workload.check(inputs, outputs, 1)]
print(json.dumps(out))
"""


def test_benchmark_workloads_pass_their_own_checks():
    # the workloads import the models and tests/oracles.py, so a bad edit to
    # either fails every benchmark round; this reads perfbench/ only
    proc = subprocess.run(
        [sys.executable, "-c", _WORKLOAD_ROUND, str(ROOT)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert set(results) == {w["name"] for w in declared}
    for name, (errors, failed, notes) in results.items():
        assert (errors, failed) == ([], 0), (name, errors, notes)


def _module_containers():
    """(module, name) -> size of each module-level dict, list or set in opalg."""
    sizes = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "opalg" or mod_name.startswith("opalg.")):
            continue
        for name, value in vars(mod).items():
            if isinstance(value, (dict, list, set)) and not name.startswith("__"):
                sizes[(mod_name, name)] = len(value)
    return sizes


def test_the_word_table_is_the_only_growing_store():
    # every memo lives on the hash-consed words, so the word table and its
    # one bound are the only process-wide state a round of work grows
    import opalg
    from opalg.gsbases import VerifyConfig
    from opalg.models import HurwitzConstrainedModel, RationalRing

    before = _module_containers()
    opalg.verify_gs(opalg.preset("rb"), VerifyConfig(1, 1, True))
    text = "d(p(tool_a*tool_b))*p(tool_c)*p(tool_c) - L*tool_a"
    opalg.normal_form(opalg.parse_polynomial(text), opalg.preset("drb").rules)
    opalg.enumerate_irr(opalg.preset("drb"), 4, ("tool_a", "tool_b"))
    opalg.check_axioms(HurwitzConstrainedModel(RationalRing(), 2, window=6), samples=2)
    after = _module_containers()
    changed = {key for key in before.keys() | after.keys() if before.get(key) != after.get(key)}
    assert changed == {("opalg.terms", "_TABLE")}


def _exceeded_classes():
    """Every exception class in src/opalg whose name ends in Exceeded."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = [
            node.name for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name.endswith("Exceeded")
        ]
        if names:
            module = importlib.import_module(f"opalg.{path.stem}")
            found.extend(getattr(module, name) for name in names)
    return found


def test_every_limit_error_exits_3(monkeypatch, capsys):
    # the CLI catches the one limit type, so a new limit that does not
    # subclass it would escape exit 3
    from opalg import cli
    from opalg.coeff import BoundExceeded

    limits = _exceeded_classes()
    assert BoundExceeded in limits and len(limits) > 1
    for cls in limits:
        assert issubclass(cls, BoundExceeded), cls.__name__

        def refuse(args, cls=cls):
            raise cls("too large")

        monkeypatch.setattr(cli, "_cmd_cmp", refuse)
        assert cli.main(["cmp", "x", "y"]) == 3, cls.__name__
        assert capsys.readouterr().err == "limit: too large\n"
