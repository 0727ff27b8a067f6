#!/usr/bin/env python3
"""Check that this tree and PARENT_TREE give byte-identical verify reports and CLI calls.

Usage: compare_reports.py PARENT_TREE

Each tree runs, in one child process that imports ``fiberalg`` from
that tree's ``src``, a fixed list of ``run_verification`` cases: the
paper's four signatures at 100 000 samples, wider signatures, small and
odd sample counts around the block edges, and the verify goldens'
sample counts.  The small cases run again at ``verify.BLOCK_VALUES =
160``, where every sweep spans many blocks; the child retires verify's
helper process at each change of the block size, since the helper runs
the code as it stood at its fork.  The same child then replays
a fixed list of CLI calls through ``cli.main``: every format and
signature of ``decompose``, ``boost``, calls at the edges of the float range,
``verify`` on its defaults, a small sample count (with its option first,
too) and a failing positional tol, one ``trajectory``, a failing ``boost``
and ``trajectory``, and one json ``decompose`` per signature on an input
that rounds.  Last it replays a fixed list of
library calls on the dyadic ``decompose`` inputs, exact in floats, and on
those that round: each closed form and its projector twin,
``norm_squared`` on float and ``Fraction`` elements, and at ``+`` and
``++`` ``boost_residuals`` at rapidity ``BOOST_RAPIDITY``; then, per signature,
the names and every tensor's values of ``fiber_component_basis``; then
seeded ``multiply_coeffs`` batches, printed as the hex of their bytes, so
a kernel that moves one bit of one row shows.  The batches cover the
doubled paper signatures, dims 64 and 4096, a broadcast shape, and one
row of infinities, signed zeros and subnormals.
The script prints each case whose ``json.dumps(report.to_dict())``, each
CLI call whose exit code, stdout or stderr, and each library call whose
``repr`` of the result differs between the trees.  It exits 0 when all
are identical, 1 on any difference, and 2 with one stderr line for a bad
argument.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-10
SMALL_BLOCK = 160

# (signature, samples, seed)
SMALL = [
    ("+", 3, 3),
    ("++", 1001, 3),
    ("++", 1, 3),
    ("-+", 4097, 3),
    ("+-", 5, 3),
    ("+++", 1001, 3),
    ("-", 7, 3),
]
CASES = [
    *[(signature, 100_000, seed) for seed in (1, 42) for signature in ("+", "++", "-", "-+")],
    ("+-+", 6000, 0),
    ("++-+", 800, 0),
    *SMALL,
    *[(signature, samples, 0) for signature in ("++", "-+") for samples in (2000, 20_000)],
]
# (signature, samples, seed, BLOCK_VALUES or None for the tree's own)
RUNS = [(*case, None) for case in CASES] + [(*case, SMALL_BLOCK) for case in SMALL]

DECOMPOSE = [("+", ["3", "-1.5"]), ("++", ["2", "1", "1", "0.5"]), ("m", ["0.25", "-4"]), ("m+", ["1", "-2", "3.5", "0.125"])]
# Inputs with no exact float, so a change in the order of a sum or a product shows in the last bits.
ROUNDING = [(sig, ["0.3", "-1.7", "2.9", "0.11"][: len(coeffs)]) for sig, coeffs in DECOMPOSE]
CLI_CALLS = [
    *[["decompose", sig, *coeffs, "--format", fmt] for sig, coeffs in DECOMPOSE for fmt in ("json", "csv", "pretty")],
    ["decompose", "++", "1", "2", "3", "4", "--tol", "0.5"],
    ["decompose", "++", "--labels"],
    ["boost", "+", "3", "1", "0.7"],
    ["boost", "++", "2", "1", "1", "0.5", "-1.25", "--format", "csv"],
    # The boundaries: a non-finite argument, a rapidity past cosh's range,
    # coefficients whose squares overflow or underflow, a scalar part
    # whose reciprocal overflows.
    ["decompose", "++", "nan", "1", "1", "1"],
    ["boost", "++", "1", "0", "0", "0", "1000"],
    ["boost", "+", "1", "0.5", "-710"],
    ["decompose", "++", "1e200", "1", "1", "1"],
    ["decompose", "+", "1e200", "1"],
    ["decompose", "-", "5e-324", "1"],
    ["decompose", "++", "5e-324", "5e-324", "5e-324", "5e-324"],
    ["decompose", "++", "1e-310", "0", "0", "0"],
    ["boost", "++", "1e-310", "0", "0", "0", "0.1"],
    ["verify", "m+", "300", "2"],
    # options before the values
    ["verify", "m+", "--format", "csv", "300", "2"],
    # verify's three defaults, and a positional tol that fails the sweep (exit 1)
    ["verify", "m"],
    ["verify", "+", "200", "1", "1e-30"],
    ["trajectory", "1.3", "0.4", "1.7", "1000"],
    # a boost whose gaps fail their tol and a trajectory off its closed form (exit 1)
    ["boost", "++", "0.3", "-1.7", "2.9", "0.11", "-1.25", "--tol", "1e-30"],
    ["trajectory", "1e20", "0.3", "1", "1000"],
    *[["decompose", sig, *coeffs] for sig, coeffs in ROUNDING],
]
BOOST_RAPIDITY = -1.25
CLOSED_FORMS = {"+": "decompose_c2", "++": "decompose_d2", "m": "decompose_euclidean", "m+": "decompose_euclidean"}
# (signature, shape of a, shape of b) of seeded multiply_coeffs calls: the batch axes before the
# basis axis ("64", "3x1"), "" for one element, "edge" for one row of the EDGE values.
KERNEL_CALLS = [
    ("++++", "64", "64"),
    ("-+-+", "64", "64"),
    ("+-++-+", "16", "16"),
    ("+-+-+-+-+-+-", "2", "2"),
    ("-+-+", "3x1", ""),
    ("-+-+", "edge", "edge"),
]
# (function, signature, coefficients, exact): norm_squared is a method, fiber_component_basis takes
# the signature alone, multiply_coeffs takes the two shapes of KERNEL_CALLS, boost_residuals takes an
# element and BOOST_RAPIDITY, the rest are fiberalg functions of an element.
LIBRARY_CALLS = [
    *[(CLOSED_FORMS[sig] + twin, sig, coeffs, False) for sig, coeffs in DECOMPOSE + ROUNDING for twin in ("", "_projected")],
    *[("norm_squared", sig, coeffs, exact) for sig, coeffs in DECOMPOSE + ROUNDING for exact in (False, True)],
    *[("boost_residuals", sig, coeffs, False) for sig, coeffs in DECOMPOSE + ROUNDING if sig in ("+", "++")],
    *[("fiber_component_basis", sig, [], False) for sig, _ in DECOMPOSE],
    *[("multiply_coeffs", sig, shapes, False) for sig, *shapes in KERNEL_CALLS],
]

CHILD = """
import contextlib, io, json, sys
from fractions import Fraction
import numpy as np
import fiberalg
from fiberalg import algebra, cli, verify
EDGE = [float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -3.25]
def operand(rng, shape, dim):
    if shape == "edge":
        return rng.choice(EDGE, dim)
    return rng.uniform(-10, 10, tuple(int(n) for n in shape.split("x") if n) + (dim,))
runs, calls, library = json.loads(sys.argv[1])
default = verify.BLOCK_VALUES
def block_values(values):
    if values != verify.BLOCK_VALUES:
        verify.BLOCK_VALUES = values
        getattr(verify, "_retire", lambda: None)()
for signature, samples, seed, block in runs:
    block_values(default if block is None else block)
    report = verify.run_verification(signature, samples, seed, %r)
    print(json.dumps(report.to_dict()))
block_values(default)
for argv in calls:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
for name, signature, coeffs, exact in library:
    sig = fiberalg.Signature.from_string(signature)
    if name == "multiply_coeffs":
        rng = np.random.default_rng(11)
        left, right = (operand(rng, shape, sig.dim) for shape in coeffs)
        with np.errstate(all="ignore"):
            print(algebra.multiply_coeffs(sig, left, right).tobytes().hex())
        continue
    if name == "fiber_component_basis":
        basis = fiberalg.fiber_component_basis(sig)
        print(repr([basis.names, *(tensor.values for tensor in basis.tensors)]))
        continue
    x = fiberalg.AlgebraElement(sig, [(Fraction if exact else float)(c) for c in coeffs])
    if name == "norm_squared":
        print(repr(x.norm_squared()))
    elif name == "boost_residuals":
        print(repr(fiberalg.boost_residuals(x, %r)))
    else:
        print(repr(getattr(fiberalg, name)(x)))
""" % (TOL, BOOST_RAPIDITY)


def start(tree: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, json.dumps([RUNS, CLI_CALLS, LIBRARY_CALLS])],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def reports(tree: Path, child: subprocess.Popen) -> list[str] | None:
    out, err = child.communicate()
    if child.returncode != 0:
        print(f"{tree}: the verify child exited {child.returncode}", file=sys.stderr)
        print(err, end="", file=sys.stderr)
        return None
    lines = out.splitlines()
    expected = len(RUNS) + len(CLI_CALLS) + len(LIBRARY_CALLS)
    if len(lines) != expected:
        print(f"{tree}: the verify child printed {len(lines)} lines, not {expected}", file=sys.stderr)
        return None
    return lines


def main(argv: list[str]) -> int:
    prog = Path(argv[0]).name
    if len(argv) != 2:
        print(f"{prog}: error: expected one argument, PARENT_TREE", file=sys.stderr)
        return 2
    parent = Path(argv[1])
    if not (parent / "src" / "fiberalg" / "verify.py").is_file():
        print(f"{prog}: error: {parent} has no src/fiberalg/verify.py", file=sys.stderr)
        return 2
    children = [(tree, start(tree)) for tree in (parent, ROOT)]
    got = [reports(tree, child) for tree, child in children]
    if None in got:
        return 1
    differ = calls_differ = library_differ = 0
    for run, before, after in zip(RUNS, *got):
        if before != after:
            differ += 1
            signature, samples, seed, block = run
            print(f"differs: {signature} samples={samples} seed={seed} block_values={block or 'default'}")
    for argv, before, after in zip(CLI_CALLS, *(lines[len(RUNS):] for lines in got)):
        if before != after:
            calls_differ += 1
            print(f"differs: fiberalg {' '.join(argv)}")
    for call, before, after in zip(LIBRARY_CALLS, *(lines[len(RUNS) + len(CLI_CALLS):] for lines in got)):
        if before != after:
            library_differ += 1
            name, signature, coeffs, exact = call
            print(f"differs: {' '.join([name, signature, *coeffs])}{' exact' if exact else ''}")
    print(f"{len(RUNS) - differ} of {len(RUNS)} reports identical")
    print(f"{len(CLI_CALLS) - calls_differ} of {len(CLI_CALLS)} CLI calls identical")
    print(f"{len(LIBRARY_CALLS) - library_differ} of {len(LIBRARY_CALLS)} library calls identical")
    return 1 if differ or calls_differ or library_differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
