"""Repository checks that guard the library source itself."""

import argparse
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


def test_only_coeff_reads_its_private_names():
    # a bound or a helper re-derived outside opalg.coeff drifts from the one
    # the scalar type applies, so other modules ask Scalar instead
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = []
    for path in paths:
        if path.name == "coeff.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
                (1, "coeff"), (0, "opalg.coeff")
            ):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "coeff":
                names = [node.attr]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno} {n}" for n in names if n.startswith("_"))
    assert not found, f"modules read private names of opalg.coeff: {found}"


#: The slots filled after a value is frozen: caches built on first use.
_LATE_SLOTS = {"_memo", "_hash", "_desc", "_reduct", "_num", "_den"}


def _is_object_setattr(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


def _assigned(node):
    """The targets of an assignment statement, else none."""
    return node.targets if isinstance(node, ast.Assign) else []


def _names(node):
    """The plain names an assignment statement binds."""
    return [getattr(t, "id", None) for t in _assigned(node)]


def _freezes(node):
    """The name frozen by ``name.__class__ = C``, else None."""
    for t in _assigned(node):
        if isinstance(t, ast.Attribute) and t.attr == "__class__":
            return getattr(t.value, "id", "?")
    return None


def test_immutable_classes_define_reduce():
    # the default copy and pickle restore slots through __setattr__, so a class
    # whose __setattr__ raises must rebuild itself through __reduce__.  Values
    # are built in a draft, a subclass with __slots__ = () that binds
    # __setattr__ back to object.__setattr__, and frozen into an immutable
    # class by one __class__ store, before _intern publishes them;
    # object.__setattr__ is then left for the caches filled after the freeze
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    immutable, drafts, freezes, found = set(), [], [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()  # the object.__setattr__ nodes that the rules allow
        aliases = set()  # module names bound to object.__setattr__
        for node in tree.body:
            if _assigned(node) and _is_object_setattr(node.value):
                aliases.update(_names(node))
                allowed.add(id(node.value))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ClassDef):
                methods = {f.name: f for f in node.body if isinstance(f, ast.FunctionDef)}
                setattr_def = methods.get("__setattr__")
                if setattr_def and any(isinstance(n, ast.Raise) for n in ast.walk(setattr_def)):
                    immutable.add(node.name)
                    if "__reduce__" not in methods:
                        found.append(f"{where} {node.name} has no __reduce__")
                for stmt in node.body:
                    if _names(stmt) == ["__setattr__"] and _is_object_setattr(stmt.value):
                        allowed.add(id(stmt.value))
                        slots = [s.value for s in node.body if _names(s) == ["__slots__"]]
                        empty = slots and isinstance(slots[0], ast.Tuple) and not slots[0].elts
                        bases = [getattr(b, "id", None) for b in node.bases]
                        drafts.append((where, node.name, bases, empty))
            elif isinstance(node, ast.FunctionDef):
                frozen_at = {}
                for n in ast.walk(node):
                    if _freezes(n):
                        freezes.append((f"{path.name}:{n.lineno}", n.value))
                        frozen_at.setdefault(_freezes(n), n.lineno)
                for n in ast.walk(node):
                    if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_intern":
                        value = getattr(n.args[1], "id", None)
                        if not frozen_at.get(value, n.lineno) < n.lineno:
                            found.append(f"{path.name}:{n.lineno} publishes {value} unfrozen")
            elif isinstance(node, ast.Call) and (
                _is_object_setattr(node.func) or getattr(node.func, "id", None) in aliases
            ):
                allowed.add(id(node.func))
                slot = node.args[1] if len(node.args) > 1 else None
                if not (isinstance(slot, ast.Constant) and slot.value in _LATE_SLOTS):
                    found.append(f"{where} sets a slot that is not a late cache")
        found.extend(
            f"{path.name}:{node.lineno} object.__setattr__ outside a draft or a cache store"
            for node in ast.walk(tree)
            if _is_object_setattr(node) and id(node) not in allowed
        )
    assert immutable and drafts and freezes, "the scan found no immutable class"
    found.extend(
        f"{where} freezes into {getattr(target, 'id', '?')}, not an immutable class"
        for where, target in freezes
        if getattr(target, "id", None) not in immutable
    )
    for where, name, bases, empty in drafts:
        if len(bases) != 1 or bases[0] not in immutable:
            found.append(f"{where} draft {name} is not one immutable class's")
        if not empty:
            found.append(f"{where} draft {name} does not set __slots__ = ()")
    assert not found, f"immutability idiom broken: {found}"


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


def test_the_golden_corpus_covers_the_cli():
    # reads tests/golden/cli.jsonl and runs none of it
    from golden import regen
    from opalg import cli
    from opalg.gsbases import PRESETS

    lines = regen.load()
    argvs = [line["argv"] for line in lines]
    subparsers = next(
        a for a in cli._build_argparser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) == {argv[0] for argv in argvs}
    theories = {argv[i + 1] for argv in argvs for i, a in enumerate(argv[:-1]) if a == "--theory"}
    # presets only: a rule-set file's path would be printed
    assert theories == set(PRESETS)
    assert {0, 1, 2, 3} <= {line["exit"] for line in lines}
    paths = [argv for argv in argvs if any(os.path.isabs(p) for a in argv for p in a.split("="))]
    assert not paths, f"argvs that name an absolute path: {paths}"
    assert len(set(map(tuple, argvs))) == len(argvs), "an argv appears twice"
