#!/usr/bin/env python3
"""Print the replay net of this checkout: one ``label<TAB>value`` line per case.

Usage: replay.py

The script imports ``fiberalg`` from this checkout's ``src`` and runs, in
one process, a fixed list of ``run_verification`` cases: the paper's
four signatures at 100 000 samples, wider signatures, and small and odd
sample counts around the block edges.  The small cases run again at
``verify.BLOCK_VALUES = 160``, where every sweep spans many blocks;
verify's helper process is retired at each change of the block size,
since the helper runs the code as it stood at its fork.  It then replays
a fixed list of CLI calls through ``cli.main``: every format and
signature of ``decompose``, ``decompose --labels`` within and past the
generator cap, ``boost``, calls at the edges of the float range and at
scales where a square underflows, ``verify`` on its defaults, a small
sample count (with its option first, too) and a failing positional tol,
four ``trajectory`` calls, at masses 1.3, 1e20, 1e-200 and 1e200, a
failing ``boost``, one json ``decompose`` per signature on an input that
rounds, and the calls whose stdout the tests pin: a ``decompose`` per
signature, a ``boost``, and ``verify`` at 2000 and 20 000 samples.  Last
it replays a fixed list of library calls on the dyadic ``decompose``
inputs, exact in floats, and on those that round: each closed form and
its projector twin, ``norm_squared`` on float and ``Fraction`` elements,
and at ``+`` and ``++`` ``boost_check`` at rapidity ``BOOST_RAPIDITY``
and tol ``TOL``, its boosted element, gaps and verdict; then, per
signature, the names and every tensor's values of
``fiber_component_basis``; then seeded ``multiply_coeffs`` batches,
printed as the sha256 of their bytes, so a kernel that moves one bit of
one row shows.  The batches cover the doubled paper signatures, dims 64
and 4096, a broadcast shape, and one row of infinities, signed zeros and
subnormals.

A report's value is ``json.dumps(report.to_dict())``, a CLI call's is
``json.dumps([exit code, stdout, stderr])`` and a library call's the
``repr`` of its result.  The first line, a ``#`` comment, names the
Python and numpy that wrote the lines, numpy's highest enabled SIMD
dispatch target and, where ``numpy.libs`` holds a scipy-openblas64
library, the OpenBLAS core it picked.  ``tests/golden/replay.txt``
holds this output and is the only file of expected bytes: a tier-1 test
compares it line by line, and the tests that pin a call's stdout read
that call's line.  A change that means to move a line regenerates the
file with ``python scripts/replay.py > tests/golden/replay.txt`` and
reviews ``git diff``; comparing with another tree is a ``diff`` of both
printouts.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fiberalg  # noqa: E402
from fiberalg import algebra, cli, verify  # noqa: E402

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
    # 2**7 labels, past MAX_GENERATORS: exit 2 with one stderr line
    ["decompose", "+++++++", "--labels"],
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
    # a boost whose gaps fail their tol (exit 1), and a trajectory far from mass 1
    ["boost", "++", "0.3", "-1.7", "2.9", "0.11", "-1.25", "--tol", "1e-30"],
    ["trajectory", "1e20", "0.3", "1", "1000"],
    # masses whose action rate, -mass**2, underflows and overflows at the element itself
    ["trajectory", "1e-200", "0.3", "1", "1000"],
    ["trajectory", "1e200", "0.3", "1", "1000"],
    *[["decompose", sig, *coeffs] for sig, coeffs in ROUNDING],
    # Squares that underflow: a non-minimal element whose x0 x3 - x1 x2 and |x|**2 read 0, and
    # a boost whose gaps and scale do; both verdicts read the element scaled into [0.5, 1).
    ["decompose", "++", "1e-170", "2e-170", "3e-170", "4e-170"],
    ["boost", "++", "2e-160", "1e-160", "1e-160", "5e-161", "0.7"],
    # The calls whose stdout the tests pin, ++'s being `decompose ++ 2 1 1 0.5 --format json`;
    # the verify calls at 20 000 samples span several blocks.
    ["decompose", "+", "2", "1"],
    ["decompose", "--", "-", "2", "1"],
    ["decompose", "m+", "2", "1", "1", "0.5"],
    ["boost", "++", "2", "1", "1", "0.5", "1.0"],
    *[["verify", signature, "2000", "0"] for signature in ("++", "m+", "+", "m")],
    *[["verify", signature, "20000", "0"] for signature in ("++", "m+")],
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
# the signature alone, multiply_coeffs takes the two shapes of KERNEL_CALLS, boost_check takes an
# element, BOOST_RAPIDITY and TOL, the rest are fiberalg functions of an element.
LIBRARY_CALLS = [
    *[(CLOSED_FORMS[sig] + twin, sig, coeffs, False) for sig, coeffs in DECOMPOSE + ROUNDING for twin in ("", "_projected")],
    *[("norm_squared", sig, coeffs, exact) for sig, coeffs in DECOMPOSE + ROUNDING for exact in (False, True)],
    *[("boost_check", sig, coeffs, False) for sig, coeffs in DECOMPOSE + ROUNDING if sig in ("+", "++")],
    *[("fiber_component_basis", sig, [], False) for sig, _ in DECOMPOSE],
    *[("multiply_coeffs", sig, shapes, False) for sig, *shapes in KERNEL_CALLS],
]
EDGE = [float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -3.25]


def operand(rng: np.random.Generator, shape: str, dim: int) -> np.ndarray:
    if shape == "edge":
        return rng.choice(EDGE, dim)
    return rng.uniform(-10, 10, tuple(int(n) for n in shape.split("x") if n) + (dim,))


def block_values(values: int) -> None:
    if values != verify.BLOCK_VALUES:
        verify.BLOCK_VALUES = values
        verify._retire()


def cli_call(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return json.dumps([code, out.getvalue(), err.getvalue()])


def library_call(name: str, signature: str, coeffs: list[str], exact: bool) -> str:
    sig = fiberalg.Signature.from_string(signature)
    if name == "multiply_coeffs":
        rng = np.random.default_rng(11)
        left, right = (operand(rng, shape, sig.dim) for shape in coeffs)
        with np.errstate(all="ignore"):
            return "sha256:" + hashlib.sha256(algebra.multiply_coeffs(sig, left, right).tobytes()).hexdigest()
    if name == "fiber_component_basis":
        basis = fiberalg.fiber_component_basis(sig)
        return repr([basis.names, *(tensor.values for tensor in basis.tensors)])
    x = fiberalg.AlgebraElement(sig, [(Fraction if exact else float)(c) for c in coeffs])
    if name == "norm_squared":
        return repr(x.norm_squared())
    if name == "boost_check":
        return repr(fiberalg.boost_check(x, BOOST_RAPIDITY, TOL))
    return repr(getattr(fiberalg, name)(x))


def host() -> str:
    """The ``#`` line: Python, numpy, numpy's highest enabled dispatch target and the OpenBLAS core, if known."""
    enabled = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    words = [f"Python {sys.version.split()[0]}", f"numpy {np.__version__}"]
    words.append(f"dispatch {enabled[-1] if enabled else 'baseline'}")
    for path in (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        words.append(f"OpenBLAS {corename().decode()}")
    return "# " + ", ".join(words)


def main() -> None:
    print(host())
    default = verify.BLOCK_VALUES
    for signature, samples, seed, block in RUNS:
        block_values(default if block is None else block)
        report = verify.run_verification(signature, samples, seed, TOL)
        print(f"verify {signature} {samples} {seed} block={block or 'default'}\t{json.dumps(report.to_dict())}")
    block_values(default)
    for argv in CLI_CALLS:
        print(f"fiberalg {' '.join(argv)}\t{cli_call(argv)}")
    for name, signature, coeffs, exact in LIBRARY_CALLS:
        label = " ".join(filter(None, [name, signature, *coeffs, "exact" if exact else ""]))
        print(f"{label}\t{library_call(name, signature, coeffs, exact)}")


if __name__ == "__main__":
    main()
