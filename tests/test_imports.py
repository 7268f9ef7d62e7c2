"""Import hygiene: the heavy optional modules, and each of the package's own
modules, load only on the paths that use them."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path
from typing import Iterator

import pytest

import parkfun

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "parkfun"

LAZY = ("jsonschema", "decimal", "concurrent.futures.process", "multiprocessing", "dataclasses", "inspect")

SCRIPT = f"""
import contextlib, io, sys

lazy = {LAZY!r}

def loaded():
    return sorted(m for m in lazy if m in sys.modules)

import parkfun
assert loaded() == [], ("import parkfun", loaded())

import parkfun.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = parkfun.cli.main(["park", "classical", "-p", "3,1,1,2"])
assert code == 0, code
assert loaded() == [], ("park classical", loaded())

# The sweep is serial for any --workers value: no process pool is loaded.
with contextlib.redirect_stdout(io.StringIO()):
    code = parkfun.cli.main(["count", "fpf", "-g", "cycle:4", "--brute", "--workers", "2"])
assert code == 0, code
assert loaded() == [], ("count --workers 2", loaded())

# A report is accepted, and refused, without jsonschema or decimal.
parkfun.validate_report({{"command": "x", "inputs": {{}}, "result": {{}}, "elapsed_ms": 1}})
assert loaded() == [], ("validate a valid report", loaded())

try:
    parkfun.validate_report({{"command": "x"}})
except parkfun.InvalidReport:
    pass
else:
    raise AssertionError("an invalid report was accepted")
assert loaded() == [], ("refuse an invalid report", loaded())
print("ok")
"""


def _python(script: str, *args: str, stdin: str = "") -> str:
    """Run `script` in a fresh interpreter on this checkout; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        input=stdin, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_heavy_modules_load_only_when_used():
    assert _python(SCRIPT) == "ok\n"


def test_import_parkfun_loads_no_submodule():
    script = """
import sys
import parkfun
print(*sorted(m for m in sys.modules if m.startswith("parkfun.")))
print(parkfun.structure.fibre_size is parkfun.fibre_size, parkfun.notation.__name__)
"""
    assert _python(script) == "\nTrue parkfun.notation\n"


@pytest.mark.parametrize(
    "raw, printed",
    [("12", "12"), ("x", "refused: PARKFUN_BRUTE_CAP must be an integer, got 'x'")],
    ids=["valid", "not-a-number"],
)
def test_brute_cap_reads_its_setting_without_core(raw, printed, monkeypatch):
    """`limits` reads the cap with its own number reader: it imports nothing
    from the package."""
    script = """
import sys
from parkfun.limits import BadCapSetting, brute_cap
try:
    print(brute_cap())
except BadCapSetting as e:
    print("refused:", e)
print("parkfun.core" in sys.modules)
"""
    monkeypatch.setenv("PARKFUN_BRUTE_CAP", raw)
    assert _python(script) == f"{printed}\nFalse\n"


# Prints the exit code, then every module loaded by one CLI call.
CLI_PROBE = """
import contextlib, io, sys
from parkfun.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""

REPORT = (
    '{"command": "count", "inputs": {}, "result": {"formula": 192}, "elapsed_ms": 0.1}'
)


# Every subcommand module; a call loads its own and none of the others.
COMMANDS = {
    f"parkfun._cmd_{name}"
    for name in ("park", "fibre", "count", "bijection", "verify", "validate_report")
}

SIMULATION = frozenset({"parkfun.classical", "parkfun.friendship"})


def _loaded_by(argv: list[str], stdin: str = "") -> tuple[str, set[str]]:
    """The exit code of one CLI call and the modules it loaded, once its own
    subcommand module is seen among them and no other."""
    code, *loaded = _python(CLI_PROBE, *argv, stdin=stdin).split()
    own = f"parkfun._cmd_{argv[0].replace('-', '_')}"
    assert own in loaded
    assert not (COMMANDS - {own}) & set(loaded), (COMMANDS - {own}) & set(loaded)
    return code, set(loaded)


def _call(command: str, unloaded: frozenset[str] = frozenset()):
    return pytest.param(command.split(), "", unloaded, id=command)


# The first two cases, then one for each other kind of call that the
# cli_calls workload of perfbench makes.
@pytest.mark.parametrize(
    "argv, stdin, unloaded",
    [
        (
            ["park", "classical", "-p", "3,1,1,2"],
            "",
            {"parkfun.verify", "parkfun.structure", "parkfun.cyclic", "parkfun.cycle",
             "parkfun.report", "dataclasses", "inspect", "jsonschema"},
        ),
        (["validate-report"], REPORT,
         {"parkfun.core", "parkfun.verify", "parkfun.structure", "dataclasses", "jsonschema", "decimal"}),
        _call("park friendship -g cycle:4 -p 2,2,4,1"),
        _call("park friendship -g file:{dir}/graph.txt -p 1,1,2"),
        _call("fibre -g fig4 -o 87152463 --count"),
        _call("fibre -g cycle:5 -o 34512 --sets"),
        _call("count cyclic -n 5 --formula", SIMULATION),
        _call("count cyclic -n 5 --formula --json", SIMULATION),
        _call("count fpf -g cycle:5 --both"),
        _call("bijection psi -p 1,1,2"),
        _call("bijection psi-inverse --perm 341278659 --start 5", SIMULATION),
        _call("verify table1"),
    ],
)
def test_subcommand_loads_only_its_modules(argv, stdin, unloaded, tmp_path):
    (tmp_path / "graph.txt").write_text("n 3\n1 2\n2 3\n")
    code, loaded = _loaded_by([arg.format(dir=tmp_path) for arg in argv], stdin)
    assert code == "0"
    assert not unloaded & loaded, unloaded & loaded


def test_refused_sweep_loads_only_count(monkeypatch):
    monkeypatch.delenv("PARKFUN_BRUTE_CAP", raising=False)
    code, loaded = _loaded_by(["count", "fpf", "-g", "complete:9", "--brute"])
    assert code == "2"
    assert "parkfun.friendship" not in loaded


@pytest.mark.parametrize(
    "command, code", [("count fpf -g cycle:5 --both", "0"), ("count fpf -g complete:9 --brute", "2")]
)
def test_count_fpf_loads_no_notation(command, code, monkeypatch):
    """The graph spec's size is read by `limits`, so a count that prints no
    word loads no `notation`."""
    monkeypatch.delenv("PARKFUN_BRUTE_CAP", raising=False)
    exit_code, loaded = _loaded_by(command.split())
    assert exit_code == code
    assert "parkfun.notation" not in loaded


# Today's exports, by defining module.
EXPORTS = {
    "classical": ["classical_park", "is_parking_function", "total_displacement"],
    "core": [
        "Failure", "FriendshipGraph", "ParkOutcome", "ParkingPreference", "Permutation",
        "Success", "all_labelled_graphs", "graph_generator", "identity_permutation",
        "inverse_position", "make_graph", "make_preference", "parse_graph_text",
    ],
    "cycle": [
        "CyclicOutcome", "Direction", "cycle_fibre_size", "cycle_total_count",
        "cyclic_outcomes", "decreasing_word", "expand_cyclic", "increasing_word",
    ],
    "cyclic": [
        "Component", "InversionSequence", "NotCyclicPreference", "components",
        "count_cyclic_brute", "cyclic_fibre_size", "cyclic_total_count",
        "enumerate_cyclic_pf", "inv_seq", "inversion_number", "is_cyclic_pf",
        "perm_from_inv_seq", "psi", "psi_inverse",
    ],
    "friendship": [
        "LotState", "brute_fibre_counts", "count_fpf_brute", "enumerate_fpf",
        "friendship_park", "is_available", "is_friendship_pf",
    ],
    "limits": ["BadCapSetting", "SearchCapExceeded", "brute_cap", "ensure_within_cap"],
    "report": ["InvalidReport", "RunReport", "report_schema", "validate_report"],
    "structure": [
        "BlockingSequence", "FibreCharacterisation", "NotHamiltonianPath",
        "blocking_sequence", "enumerate_fibre", "fibre_characterisation", "fibre_size",
        "fig4_graph", "hamiltonian_paths", "has_hamiltonian_path", "is_blocker",
        "is_hamiltonian_path", "total_fpf_count",
    ],
}


class TestExports:
    def test_all_is_todays_names(self):
        names = sorted(name for names in EXPORTS.values() for name in names)
        assert len(names) == 66
        assert sorted(parkfun.__all__) == names

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_its_defining_modules_object(self, module):
        defining = importlib.import_module(f"parkfun.{module}")
        for name in EXPORTS[module]:
            assert getattr(parkfun, name) is getattr(defining, name), name

    def test_dir_lists_every_export(self):
        assert set(parkfun.__all__) <= set(dir(parkfun))
        assert "__version__" in dir(parkfun)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            parkfun.no_such_name
        assert not hasattr(parkfun, "verify_all")

    def test_star_import(self):
        namespace: dict = {}
        exec("from parkfun import *", namespace)
        assert all(namespace[name] is getattr(parkfun, name) for name in parkfun.__all__)

    def test_submodules_import_by_name(self):
        from parkfun import cli, verify

        assert isinstance(cli, types.ModuleType) and cli.main
        assert isinstance(verify, types.ModuleType) and verify.run_suite


def _imports(path: Path) -> set[str]:
    """The modules the file at `path` imports, at its top or inside a
    function; a relative one as `.name`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            if node.module:
                names.add(dots + node.module)
            else:  # from . import name
                names.update(dots + alias.name for alias in node.names)
    return names


def _reaches(module: str) -> set[str]:
    """The package's modules that `module` imports, directly or through others."""
    seen, todo = set(), [module]
    while todo:
        for name in _imports(PACKAGE / f"{todo.pop()}.py"):
            if name.startswith((".", "parkfun.")):
                name = name.rsplit(".", 1)[-1]
                if name not in seen:
                    seen.add(name)
                    todo.append(name)
    return seen - {module}


class TestOracleIndependence:
    """The availability-rule oracles share no code with the blocker, fibre
    and closed-form routes they check."""

    def test_friendship_reaches_only_core_and_limits(self):
        assert _reaches("friendship") <= {"core", "limits"}

    def test_classical_reaches_no_closed_form(self):
        assert not _reaches("classical") & {"structure", "cycle", "cyclic"}

    def test_perfbench_oracles_import_nothing_from_parkfun(self):
        names = _imports(SRC.parent / "perfbench" / "oracles.py")
        assert not {name for name in names if name.split(".")[0] == "parkfun"}


def test_no_module_imports_jsonschema():
    """jsonschema is a test dependency only: the package checks a report itself."""
    for path in PACKAGE.rglob("*.py"):
        assert not {name for name in _imports(path) if name.split(".")[0] == "jsonschema"}, path.name


def _scoped(tree: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """Every node under `tree`, with the qualified name of the class or
    function it sits in ("" at module level)."""
    todo = [(tree, "")]
    while todo:
        node, where = todo.pop()
        yield node, where
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}".lstrip(".")
        todo.extend((child, where) for child in ast.iter_child_nodes(node))


def test_only_core_sets_fields_past_the_frozen_guard():
    """`_Value.__init__` stores every value's slots, and `_Word._unchecked`
    the word of a listing's item: nothing else writes round
    `_Value.__setattr__` with `object.__setattr__`, and no class keys its
    equality and hash on anything but its slots."""
    writers, keys = [], []
    for path in PACKAGE.rglob("*.py"):
        for node, where in _scoped(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                writers.append(f"{path.stem}.{where}")
            if (isinstance(node, ast.FunctionDef) and node.name == "_key"
                    or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "_key"):
                keys.append(f"{path.stem}.{where}")
    assert sorted(writers) == ["core._Value.__init__", "core._Word._unchecked"]
    assert keys == []


def test_only_core_states_the_int_rule():
    """A label or a size is an int, held so by `_require_ints`,
    `_require_label` and `_require_size` alone: no other function tests
    `type(...) is not int`."""
    checks = []
    for path in PACKAGE.rglob("*.py"):
        for node, where in _scoped(ast.parse(path.read_text())):
            if (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.IsNot)
                    and isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Name)
                    and node.left.func.id == "type"
                    and isinstance(node.comparators[0], ast.Name) and node.comparators[0].id == "int"):
                checks.append(f"{path.stem}.{where}")
    assert sorted(set(checks)) == ["core._require_ints", "core._require_label", "core._require_size"]


def test_only_core_states_the_order_rule():
    """A word meets a graph with one letter per vertex, said by
    `core._require_order` alone; and the previous-greater jumps of a
    blocking-run scan live in `structure._run_starts`, which scans a whole
    word, and in the DFS of `structure._leaves`, which backtracks."""
    messages, jumps = [], []
    for path in PACKAGE.rglob("*.py"):
        for node, where in _scoped(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "but the graph has" in node.value):
                messages.append(f"{path.stem}.{where}")
            if (isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "pg"
                    and ast.unparse(node.value).startswith("[-1] *")):
                jumps.append(f"{path.stem}.{where}")
    assert messages == ["core._require_order"]
    assert sorted(jumps) == ["structure._leaves", "structure._run_starts"]


def test_cyclic_parks_a_preference_in_one_place():
    """`cyclic._parked_rotation` runs the classical process and reads the
    start of its increasing rotation, for `is_cyclic_pf` and psi alike: no
    other scope of `cyclic` names `classical_park`, and no module keeps a
    rotation-start rule of its own."""
    parkers, starts = set(), []
    for path in PACKAGE.rglob("*.py"):
        for node, where in _scoped(ast.parse(path.read_text())):
            if path.stem == "cyclic" and (isinstance(node, ast.Name) and node.id == "classical_park"
                                          or isinstance(node, ast.alias) and node.name == "classical_park"):
                parkers.add(where)
            if isinstance(node, ast.FunctionDef) and node.name == "_rotation_start":
                starts.append(f"{path.stem}.{where}")
    assert parkers == {"_parked_rotation"}
    assert starts == []
