"""Source hygiene: every Python file of the package (except its export list
in __init__.py), of the test suite, of its oracle generators and of the
benchmark references each name it imports; the package imports nothing
from scipy.linalg, neither calls SciPy's solve_ivp nor reads its private
dense-output state, takes no sample times (`t_eval`) in any integration,
looks solutions up in the geodesics module only through the group action,
reads the evaluation budget only in the stepper, defines no function,
method, class or class field that nothing reads, keeps every name that the
benchmark reads from it, and loads SciPy's heavy subpackages only when a
task needs them.

The scan uses only the standard library's ast, so it needs no linter.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "ecs_lab").glob("*.py") if p.name != "__init__.py"]
    + [p for d in ("tests", "tests/oracles", "bench") for p in (ROOT / d).glob("*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import except `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})"
                  for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_resolves_aliases_and_dotted_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .mod import Used, Unused as Spare\n"
        "def f(x: Used) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["Spare (line 4)", "os (line 3)"]


def scipy_linalg_imports(source: str) -> list[int]:
    """Lines that import scipy.linalg or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.")
               for name in names):
            lines.append(node.lineno)
    return lines


def test_scan_finds_scipy_linalg_imports():
    source = (
        "import scipy.linalg\n"
        "from scipy import linalg\n"
        "from scipy.linalg import expm\n"
        "from scipy.integrate import solve_ivp\n"
        "import scipy\n"
    )
    assert scipy_linalg_imports(source) == [1, 2, 3]


def test_package_does_not_import_scipy_linalg():
    # The package's linear algebra is NumPy's. SciPy serves DOP853's
    # coefficient tables and linear_sum_assignment only.
    found = {p.name: scipy_linalg_imports(p.read_text())
             for p in (ROOT / "src" / "ecs_lab").glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


# SciPy's private dense-output state: attributes of its results, and its
# classes.
DENSE_OUTPUT_ATTRS = {"interpolants", "F"}
DENSE_OUTPUT_CLASSES = {"Dop853DenseOutput", "OdeSolution"}


def scipy_solver_reads(source: str) -> list[int]:
    """Lines that read a dense-output attribute, name a dense-output class,
    or import or call SciPy's solve_ivp. A solve_ivp bound from the scanned
    package itself is not SciPy's."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            names = {alias.name for alias in node.names}
            if names & (DENSE_OUTPUT_CLASSES | {"solve_ivp"}):
                lines.add(node.lineno)
        elif isinstance(node, ast.Attribute):
            scipy_call = node.attr == "solve_ivp" and "integrate" in ast.unparse(node.value)
            if scipy_call or node.attr in DENSE_OUTPUT_ATTRS | DENSE_OUTPUT_CLASSES:
                lines.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id in DENSE_OUTPUT_CLASSES:
            lines.add(node.lineno)
    return sorted(lines)


def test_scan_finds_scipy_solver_reads():
    source = (
        "from scipy.integrate import solve_ivp\n"
        "import scipy.integrate\n"
        "sol = scipy.integrate.solve_ivp(f, (0, 1), y0, dense_output=True)\n"
        "steps = sol.sol.interpolants\n"
        "F = steps[0].F\n"
        "from scipy.integrate._ivp.rk import Dop853DenseOutput\n"
        "isinstance(sol.sol, OdeSolution)\n"
        "from .solution_space import solve_ivp\n"
        "solve_ivp(f, (0, 1), y0, rtol=1e-12, atol=1e-12)\n"
        "from scipy.integrate import DOP853\n"
        "F = np.empty((7, 4))\n"
    )
    assert scipy_solver_reads(source) == [1, 3, 4, 5, 6, 7]


def test_package_integrates_without_scipy_solver_state():
    # The flow and the geodesic runs use the package's own DOP853. SciPy's
    # solver objects stay the tests' oracle.
    found = {p.name: scipy_solver_reads(p.read_text())
             for p in (ROOT / "src" / "ecs_lab").glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def t_eval_uses(source: str) -> list[int]:
    """Lines that declare a `t_eval` parameter or pass a `t_eval` keyword."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.arg, ast.keyword)) and node.arg == "t_eval")


def test_scan_finds_t_eval():
    source = (
        "def solve(fun, span, y0, *, t_eval=None):\n"
        "    return fun\n"
        "solve(f, (0, 1), y0, t_eval=ts)\n"
        "t_eval = ts\n"
        "solve(f, (0, 1), y0, **{'t_eval': ts})\n"
    )
    assert t_eval_uses(source) == [1, 3]


def test_package_samples_only_from_step_tables():
    # The package's DOP853 has one output, its step table, and every sample
    # is a `_StepTable` lookup: no run takes sample times.
    found = {p.name: t_eval_uses(p.read_text())
             for p in (ROOT / "src" / "ecs_lab").glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def name_reads(source: str, name: str) -> list[int]:
    """Lines that import `name` from a module, under any alias, or read it
    by name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.ImportFrom)
                      and any(alias.name == name for alias in node.names))
                  or (isinstance(node, ast.Name) and node.id == name
                      and isinstance(node.ctx, ast.Load))
                  or (isinstance(node, ast.Attribute) and node.attr == name))


def test_scan_finds_name_reads():
    source = (
        "from .solution_space import solution_at\n"
        "from .solution_space import flow, solution_at as lookup\n"
        "import ecs_lab.solution_space as ss\n"
        "ss.solution_at(model, u, t)\n"
        "from .isometry_group import iso_apply\n"
        "solution_at = iso_apply\n"
        "lookup = solution_at\n"
    )
    assert name_reads(source, "solution_at") == [1, 2, 4, 7]


def test_geodesics_reads_solutions_through_the_group_action():
    # The closed-form geodesic is a Heisenberg isometry's image of a line,
    # so the ODE layer has no solution lookup of its own.
    source = (ROOT / "src" / "ecs_lab" / "geodesics.py").read_text()
    assert name_reads(source, "solution_at") == []


def reads_outside(source: str, name: str, owner: str) -> list[int]:
    """Lines of `name_reads` that lie outside the module-level function
    `owner`."""
    spans = [(node.lineno, node.end_lineno) for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and node.name == owner]
    return [line for line in name_reads(source, name)
            if not any(lo <= line <= hi for lo, hi in spans)]


def test_scan_finds_budget_reads_outside_the_stepper():
    source = (
        "_MAX_EVALS = 100\n"
        "def solve_ivp(fun):\n"
        "    return nfev > _MAX_EVALS\n"
        "class Flow:\n"
        "    def _rhs(self, t, y):\n"
        "        if self._evals > _MAX_EVALS:\n"
        "            raise RuntimeError\n"
        "from .solution_space import _MAX_EVALS as budget\n"
        "limit = solution_space._MAX_EVALS\n"
    )
    assert reads_outside(source, "_MAX_EVALS", "solve_ivp") == [6, 8, 9]


def test_only_the_stepper_reads_the_evaluation_budget():
    # Every run of the stepper has one evaluation budget, and solve_ivp is
    # its one owner: no right-hand side or caller counts evaluations.
    found = {p.relative_to(ROOT).as_posix():
             reads_outside(p.read_text(), "_MAX_EVALS", "solve_ivp")
             for p in MODULES + [ROOT / "src" / "ecs_lab" / "__init__.py"]}
    assert {name: lines for name, lines in found.items() if lines} == {}



def definitions(source: str) -> dict[str, int]:
    """Name -> line of every function, method and class a module defines,
    dunders excepted, and of every annotated field in a class body (a
    dataclass or NamedTuple field)."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and not (node.name.startswith("__") and node.name.endswith("__")):
            out[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            out.update((stmt.target.id, stmt.lineno) for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign)
                       and isinstance(stmt.target, ast.Name))
    return out


def reads(source: str) -> set[str]:
    """Names a module reads: loaded names and attributes, and the names it
    imports from a module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unread_definitions(package: dict[str, str], readers: list[str]) -> list[str]:
    """`file: name (line n)` for each definition in the package sources
    (file -> source) that no reader source reads."""
    read = set().union(*map(reads, readers))
    return sorted(f"{file}: {name} (line {line})"
                  for file, source in package.items()
                  for name, line in definitions(source).items() if name not in read)


def test_scan_finds_unread_definitions():
    package = {"mod.py": (
        "class Used:\n"
        "    def method(self):\n"
        "        return helper()\n"
        "    def orphan_method(self):\n"
        "        return None\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "def helper():\n"
        "    return 1\n"
        "def orphan():\n"
        "    return 2\n"
        "def exported():\n"
        "    return 3\n"
        "@dataclass\n"
        "class Result:\n"
        "    value: float\n"
        "    unread_field: int\n"
        "    total = 0\n"
    )}
    readers = [*package.values(),
               "from mod import Used as U, exported, Result\n"
               "U().method()\n"
               "orphan = U.orphan_method = None\n"
               "Result(1.0, unread_field=2).value\n"]
    assert unread_definitions(package, readers) == [
        "mod.py: orphan (line 10)", "mod.py: orphan_method (line 4)",
        "mod.py: unread_field (line 17)"]


def test_every_package_definition_is_read():
    # A definition that a change leaves without a caller, a test or a
    # benchmark reader is dead code.
    package = {p.name: p.read_text() for p in (ROOT / "src" / "ecs_lab").glob("*.py")}
    readers = [p.read_text() for p in MODULES] + [package["__init__.py"]]
    assert unread_definitions(package, readers) == []


def bench_reads(source: str) -> set[tuple[str, str]]:
    """(module, dotted name) pairs that a benchmark file reads from the
    package: the names it imports from an ecs_lab module, the attributes it
    reads on a name bound to one (by `import ecs_lab.m as x` or
    `x = importlib.import_module("ecs_lab.m")`, also as `self.x`), and the
    (layer, class, method) entries of a `METHODS` tuple."""
    tree = ast.parse(source)
    out, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ecs_lab"):
            out.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            aliases.update((alias.asname, alias.name) for alias in node.names
                           if alias.asname and alias.name.startswith("ecs_lab."))
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            target, value = node.targets[0].id, node.value
            if target == "METHODS":
                out.update((f"ecs_lab.{layer}", f"{cls}.{method}")
                           for layer, cls, method in ast.literal_eval(value))
            elif (isinstance(value, ast.Call)
                  and ast.unparse(value.func) == "importlib.import_module"
                  and isinstance(value.args[0], ast.Constant)):
                aliases[target] = value.args[0].value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else \
                owner.attr if isinstance(owner, ast.Attribute) else None
            if name in aliases:
                out.add((aliases[name], node.attr))
    return out


def unresolved(pairs: set[tuple[str, str]]) -> list[str]:
    """`module.name` for each pair whose dotted name the module lacks."""
    missing = []
    for module, name in sorted(pairs):
        obj = importlib.import_module(module)
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{name}")
    return missing


def test_scan_finds_missing_bench_names():
    source = (
        "import importlib\n"
        "import ecs_lab.geodesics as geodesics\n"
        "from ecs_lab.cli import build_model, no_such_runner\n"
        "cli = importlib.import_module('ecs_lab.cli')\n"
        "tables = (cli.TASK_RUNNERS, cli.no_such_table, geodesics.solve_ivp)\n"
        "self.cli.main(['run'])\n"
        "METHODS = (('solution_space', 'CauchyFlow', 'matrix'),\n"
        "           ('homogeneous', 'HomogeneousModel', 'no_such_method'))\n"
    )
    assert bench_reads(source) == {
        ("ecs_lab.cli", "build_model"), ("ecs_lab.cli", "no_such_runner"),
        ("ecs_lab.cli", "TASK_RUNNERS"), ("ecs_lab.cli", "no_such_table"),
        ("ecs_lab.cli", "main"), ("ecs_lab.geodesics", "solve_ivp"),
        ("ecs_lab.solution_space", "CauchyFlow.matrix"),
        ("ecs_lab.homogeneous", "HomogeneousModel.no_such_method")}
    assert unresolved(bench_reads(source)) == [
        "ecs_lab.cli.no_such_runner", "ecs_lab.cli.no_such_table",
        "ecs_lab.homogeneous.HomogeneousModel.no_such_method"]


def test_every_name_the_benchmark_reads_resolves():
    # The benchmark runs against the package as it is checked out; a name it
    # reads that a change removes would show only as a failed benchmark run.
    reads = set().union(*(bench_reads((ROOT / "bench" / name).read_text())
                          for name in ("run.py", "setup_probe.py", "test_bench.py",
                                       "tracer.py")))
    assert {("ecs_lab.cli", "main"), ("ecs_lab.cli", "TASK_RUNNERS"),
            ("ecs_lab.cli", "Scenario"), ("ecs_lab.geodesics", "solve_ivp"),
            ("ecs_lab.homogeneous", "HomogeneousModel.sigma_q_matrix")} <= reads
    assert unresolved(reads) == []


# SciPy subpackages that cost most of a cold start. Importing the CLI and a
# verify-model run load none of them; only integrations and eigenvalue
# matching do, on first use.
HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.special")

_PROBE = """
import contextlib, io, json, sys
import ecs_lab.cli as cli
heavy = {heavy!r}
after_import = [m for m in heavy if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", "--scenario", {scenario!r}, "--report", {report!r}])
after_run = [m for m in heavy if m in sys.modules]
print(json.dumps({{"code": code, "after_import": after_import, "after_run": after_run}}))
"""


def _fresh_run(tmp_path, task: dict) -> dict:
    """Import the CLI and run one task on scenarios/polynomial_m3.json's model
    in a fresh interpreter; the heavy SciPy subpackages loaded after each."""
    scenario = json.loads((ROOT / "scenarios" / "polynomial_m3.json").read_text())
    scenario["tasks"] = [task]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    source = _PROBE.format(heavy=HEAVY_SCIPY, scenario=str(path),
                           report=str(tmp_path / "report.json"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_cli_and_verify_model_load_no_heavy_scipy(tmp_path):
    out = _fresh_run(tmp_path, {"task": "verify-model", "points": 2})
    assert out == {"code": 0, "after_import": [], "after_run": []}


def test_an_integration_loads_the_integrator(tmp_path):
    # The probe sees a subpackage that a task does load.
    out = _fresh_run(tmp_path, {"task": "geodesic", "count": 1, "tau": 0.5})
    assert out["code"] == 0 and out["after_import"] == []
    assert "scipy.integrate" in out["after_run"]
