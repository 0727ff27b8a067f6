"""Single-element CLI calls never import numpy; the batch modules load on first use.

No module of the package imports a name it never uses, and every module
and script parses as the oldest Python that pyproject.toml accepts.  The
replay net's ``decompose`` and ``boost`` calls give, under every other
interpreter found from that floor up, the exit codes and stdout that
``tests/golden/replay.txt`` holds.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from replay_net import replay_lines

ROOT = Path(__file__).resolve().parent.parent

# Every name ``fiberalg`` exported while it imported all of its modules.
EXPORTS = [
    "ActionIntegral", "AlgebraElement", "CausalClass", "ComponentBasis", "CrossQuad",
    "EUCLIDEAN_FIBER_SIGNATURE", "EUCLIDEAN_TANGENT_SIGNATURE", "EuclideanFiberDecomposition",
    "EuclideanSector", "FIBER_SIGNATURE", "Factorization", "FiberDecomposition", "Idempotent",
    "MomentumTriple", "PropertyResult", "Signature", "TANGENT_SIGNATURE", "TangentTriple",
    "VerificationReport", "algebra", "basis_sign", "boost_check", "boost_element",
    "classify_causal", "decompose_c2", "decompose_c2_projected", "decompose_d2",
    "decompose_d2_projected", "decompose_euclidean", "decompose_euclidean_projected",
    "diagonal_projector", "factorize", "fiber", "fiber_component_basis",
    "free_particle_element", "idempotent_half", "idempotent_pair", "is_min_action",
    "lift_kinematics", "multiply", "multiply_coeffs", "rotation_element", "run_verification",
    "square_embed", "tensor", "tensor_multiply", "tensor_product", "trajectory_action",
    "transform", "verify",
]

DECOMPOSE = [("+", ["2", "1"]), ("++", ["2", "1", "1", "0.5"]), ("m", ["1", "-3"]), ("m+", ["1", "2", "3", "4"])]
SINGLE_ELEMENT_CALLS = [
    *[["decompose", sig, *coeffs, "--format", fmt] for sig, coeffs in DECOMPOSE for fmt in ("json", "csv", "pretty")],
    ["decompose", "++", "--labels"],
    ["boost", "+", "2", "1", "0.5"],
    ["boost", "++", "2", "1", "1", "0.5", "1.0"],
]
BOUNDARY_CALLS = [
    ["decompose", "++", "nan", "1", "1", "1"],
    ["boost", "++", "1", "0", "0", "0", "1000"],
    ["decompose", "+++++++", "--labels"],
]
# The last call shares its checks with verify's helper process: the child may run on two CPUs.
BATCH_CALLS = [["verify", "++", "50", "1"], ["trajectory", "1", "0", "1", "10"], ["verify", "++", "3000", "1"]]

# Records, after a bare import, after importing the CLI and after each
# call, which of WATCHED fiberalg has loaded: a module already in
# sys.modules before the import (a site hook's, say) does not count.
POOLS = ("multiprocessing", "socket", "concurrent.futures")
WATCHED = ("numpy", "dataclasses", "inspect", *POOLS)
CHILD = """
import contextlib, io, json, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
watched = json.loads(sys.argv[2])
before = set(sys.modules)

def loaded_now():
    return sorted(set(watched) & (set(sys.modules) - before))

import fiberalg
loaded = [loaded_now()]
from fiberalg import cli
loaded.append(loaded_now())
results = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append((code, out.getvalue()))
    loaded.append(loaded_now())
helper = getattr(sys.modules.get("fiberalg.verify"), "_helper", None) is not None
print(json.dumps({"loaded": loaded, "results": results, "helper": helper}))
"""


def run_child(code, *args, python=sys.executable):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [str(python), "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def calls():
    return run_child(CHILD, json.dumps(SINGLE_ELEMENT_CALLS + BOUNDARY_CALLS + BATCH_CALLS), json.dumps(WATCHED))


# The stages of CHILD that load none of WATCHED: the bare import, the CLI
# import, and every single-element and boundary call.
LIGHT_STAGES = 2 + len(SINGLE_ELEMENT_CALLS) + len(BOUNDARY_CALLS)


def test_single_element_calls_never_import_numpy(calls):
    # verify and trajectory load numpy in their command.
    loaded = [("numpy" in stage) for stage in calls["loaded"]]
    assert loaded == [False] * LIGHT_STAGES + [True] * len(BATCH_CALLS)
    codes = [code for code, _ in calls["results"]]
    assert codes == [0] * len(SINGLE_ELEMENT_CALLS) + [2] * len(BOUNDARY_CALLS) + [0] * len(BATCH_CALLS)
    for (_, out), argv in zip(calls["results"][len(codes) - len(BATCH_CALLS):], BATCH_CALLS):
        assert json.loads(out)["command"] == argv[0]


def test_single_element_calls_never_import_dataclasses_or_inspect(calls):
    # Records are plain classes; neither module is needed to define or build them.
    assert calls["loaded"][:LIGHT_STAGES] == [[]] * LIGHT_STAGES


def test_sharing_a_verify_sweep_loads_no_process_pool_or_socket(calls):
    # verify's helper is one os.fork with plain pipes
    assert calls["helper"]
    assert [sorted(set(POOLS) & set(stage)) for stage in calls["loaded"]] == [[]] * len(calls["loaded"])


def test_every_export_resolves_and_star_import_keeps_its_names():
    got = run_child(
        """
import json, sys
import fiberalg
resolved = {}
for name in json.loads(sys.argv[1]):
    value = getattr(fiberalg, name)
    home = getattr(value, "__module__", None) or value.__name__
    resolved[name] = home.startswith("fiberalg")
star = {}
exec("from fiberalg import *", star)
print(json.dumps({"resolved": resolved, "star": sorted(set(star) - {"__builtins__"}),
                  "version": fiberalg.__version__}))
""",
        json.dumps(EXPORTS),
    )
    assert got["resolved"] == {name: True for name in EXPORTS}
    assert got["star"] == sorted(EXPORTS)
    assert got["version"] == "0.1.0"


def test_exact_elements_never_import_numpy():
    got = run_child(
        """
import json, sys
from fractions import Fraction
from fiberalg.algebra import AlgebraElement, Signature, multiply
x = AlgebraElement(Signature((1, -1)), [Fraction(1, 2), 1, Fraction(-2, 3), 0])
square = multiply(x, x)
print(json.dumps({"exact": square.exact, "norm": str(square.norm_squared()), "numpy": "numpy" in sys.modules}))
"""
    )
    assert got == {"exact": True, "norm": "5017/1296", "numpy": False}


def _imports_without_use(scope: ast.AST) -> list[str]:
    """Names bound by an import in ``scope``, or in a function nested in it, that the binding scope never reads.

    A nested function reads the names of the scopes around it; an
    annotation reads its names, a string annotation included.
    """
    imported, unused = {}, []

    def bind(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unused.extend(_imports_without_use(child))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if getattr(child, "module", None) != "__future__":
                    imported.update({alias.asname or alias.name.split(".")[0]: child.lineno for alias in child.names})
            else:
                bind(child)

    bind(scope)
    used = set()
    for node in ast.walk(scope):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval")) if isinstance(n, ast.Name))
        if isinstance(node, ast.Name):
            used.add(node.id)
    return unused + [f"{name} (line {line})" for name, line in imported.items() if name not in used]


MODULES = sorted(p for p in (ROOT / "src" / "fiberalg").glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _imports_without_use(ast.parse(path.read_text(), filename=str(path))) == []


# pyproject's requires-python floor, as (major, minor)
FLOOR = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups()))
SOURCES = sorted([*(ROOT / "src" / "fiberalg").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_the_oldest_supported_python(path):
    # the tests run on a newer Python; feature_version rejects its syntax, such as except* and PEP 695 generics
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def other_interpreters() -> dict[str, Path]:
    """pyenv's ``bin/python`` of the newest build of each minor version from FLOOR up, this one's left out.

    Found by path: a ``python3.1x`` shim may fail, or resolve to another build.
    """
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = {}
    for python in versions.glob("*/bin/python"):
        match = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", python.parent.parent.name)
        if match:
            found[tuple(map(int, match.groups()))] = python
    newest = {version[:2]: python for version, python in sorted(found.items())}
    return {
        f"{major}.{minor}": python
        for (major, minor), python in newest.items()
        if (major, minor) >= FLOOR and (major, minor) != sys.version_info[:2]
    }


OTHER_INTERPRETERS = other_interpreters()


# The replay net's decompose and boost calls, each argv split back from its label, with the exit
# code and stdout that tests/golden/replay.txt holds for it; stderr holds argparse's and json's
# wording, which is the interpreter's.
REPLAY_CALLS = [
    (label.split()[1:], json.loads(value)[:2])
    for label, value in replay_lines().items()
    if label.split()[:2] in (["fiberalg", "decompose"], ["fiberalg", "boost"])
]


# Skipped, as an empty parameter set, where no other interpreter is found.
@pytest.mark.parametrize("python", OTHER_INTERPRETERS.values(), ids=OTHER_INTERPRETERS.keys())
def test_other_interpreters_replay_the_same_bytes_without_numpy(python):
    got = run_child(CHILD, json.dumps([argv for argv, _ in REPLAY_CALLS]), json.dumps(WATCHED), python=python)
    assert got["loaded"] == [[]] * (2 + len(REPLAY_CALLS))
    assert got["results"] == [result for _, result in REPLAY_CALLS]
