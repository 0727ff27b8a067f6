"""The traced probe pass and the per-layer metrics derived from its spans.

Each per-layer metric is the median self time of the spans of one name,
or the median of one recorded count.  The probe pass calls each module's
public functions at the input shapes the workloads use, so a traced run
of any workload reports every metric; spans of the workload's own traced
rounds join those of the same name.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
from fractions import Fraction

import numpy as np
from fiberalg import (
    EUCLIDEAN_FIBER_SIGNATURE,
    FIBER_SIGNATURE,
    AlgebraElement,
    Signature,
    diagonal_projector,
    fiber_component_basis,
    multiply,
    trajectory_action,
)
from fiberalg.cli import main as cli_main

import workloads

NS_PER = {"us": 1e3, "ms": 1e6}

# (metric, unit, span or count name), in the order of BENCHMARK.json.
PER_LAYER = [
    ("algebra.sign_table_ms.n4", "ms", "algebra.sign_table.n4"),
    ("algebra.sign_table_ms.n6", "ms", "algebra.sign_table.n6"),
    ("algebra.sign_table_ms.n8", "ms", "algebra.sign_table.n8"),
    ("algebra.multiply_us.dim4", "us", "algebra.multiply.dim4"),
    ("algebra.multiply_us.dim16", "us", "algebra.multiply.dim16"),
    ("algebra.multiply_us.dim64", "us", "algebra.multiply.dim64"),
    ("algebra.multiply_us.dim256", "us", "algebra.multiply.dim256"),
    ("algebra.multiply_exact_us.dim4", "us", "algebra.multiply_exact.dim4"),
    ("tensor.square_embed_us.pp", "us", "tensor.square_embed.pp"),
    ("tensor.tensor_multiply_us.pp", "us", "tensor.tensor_multiply.pp"),
    ("tensor.components_batch_ms.pp", "ms", "tensor.components_batch.pp"),
    ("tensor.projector_us.pp", "us", "tensor.projector.pp"),
    ("fiber.decompose_d2_us", "us", "fiber.decompose_d2"),
    ("fiber.decompose_d2_projected_us", "us", "fiber.decompose_d2_projected"),
    ("fiber.transform_us", "us", "fiber.transform"),
    ("fiber.factorize_us", "us", "fiber.factorize"),
    ("fiber.decompose_euclidean_us.mp", "us", "fiber.decompose_euclidean.mp"),
    ("fiber.component_basis_ms.pp", "ms", "fiber.component_basis.pp"),
    ("fiber.component_basis_ms.mp", "ms", "fiber.component_basis.mp"),
    ("fiber.trajectory_ms", "ms", "fiber.trajectory"),
    *[(f"verify.sweep_ms.{s}", "ms", f"verify.sweep.{s}") for s in ("p", "pp", "m", "mp", "pmp", "ppmp")],
    *[(f"verify.samples.{s}", "count", f"verify.samples.{s}") for s in ("p", "pp", "m", "mp", "pmp", "ppmp")],
    ("cli.import_ms", "ms", "cli.import"),
    *[(f"cli.main_ms.{c}", "ms", f"cli.main.{c}") for c in ("decompose", "labels", "boost", "verify", "trajectory")],
    ("cli.interpreter_ms", "ms", "cli.interpreter"),
    ("cli.import_numpy_ms", "ms", "cli.import_numpy"),
    ("host.pyloop_ms", "ms", "host.pyloop"),
]

# Signatures whose tables and products the workloads build: ++ and its
# doubling (n = 4, dim 16), and the doublings of the wide signatures.
TABLE_SHAPES = {"n4": (1, 1, 1, 1), "n6": (1, -1, 1, 1, -1, 1), "n8": (1, 1, -1, 1, 1, 1, -1, 1)}
PRODUCT_SHAPES = {"dim4": (1, 1), "dim16": TABLE_SHAPES["n4"], "dim64": TABLE_SHAPES["n6"], "dim256": TABLE_SHAPES["n8"]}
COMPONENT_SAMPLES = 100_000
TRAJECTORY_STEPS = 1_000_000
ELEMENT_OPS = 512


def _fresh_table(squares):
    return Signature(squares).sign_table


def _fresh_basis(signature):
    fiber_component_basis.cache_clear()
    return fiber_component_basis(signature)


def _main_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli_main(argv)
    return code, out.getvalue()


def _python(env, root, code):
    return subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, check=True, timeout=60)


def pyloop():
    """Fixed pure-Python work; its time follows the host, not the program."""
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


def _repeat(tracer, reps, name, fn, *args):
    for _ in range(reps):
        tracer.call(name, fn, *args)


def probe_pass(tracer, seed: int, root) -> None:
    rng = np.random.default_rng([seed, 1])
    for key, squares in TABLE_SHAPES.items():
        _repeat(tracer, {"n4": 50, "n6": 10, "n8": 5}[key], f"algebra.sign_table.{key}", _fresh_table, squares)
    for key, squares in PRODUCT_SHAPES.items():
        signature = Signature(squares)
        a, b = (AlgebraElement(signature, rng.uniform(-10, 10, signature.dim)) for _ in range(2))
        _repeat(tracer, {"dim4": 500, "dim16": 200, "dim64": 50, "dim256": 20}[key], f"algebra.multiply.{key}", multiply, a, b)
    exact = [
        AlgebraElement(FIBER_SIGNATURE, np.array([Fraction(int(v), 7) for v in rng.integers(-70, 71, 4)], dtype=object))
        for _ in range(2)
    ]
    _repeat(tracer, 200, "algebra.multiply_exact.dim4", multiply, *exact)

    x = rng.uniform(-10, 10, (COMPONENT_SAMPLES, 4))
    flat = np.einsum("ni,nj->nij", x, x).reshape(COMPONENT_SAMPLES, 16)
    _repeat(tracer, 10, "tensor.components_batch.pp", fiber_component_basis(FIBER_SIGNATURE).components_batch, flat)
    _repeat(tracer, 200, "tensor.projector.pp", diagonal_projector, FIBER_SIGNATURE, 0b01, 1)
    _repeat(tracer, 10, "fiber.component_basis.pp", _fresh_basis, FIBER_SIGNATURE)
    _repeat(tracer, 10, "fiber.component_basis.mp", _fresh_basis, EUCLIDEAN_FIBER_SIGNATURE)
    _repeat(tracer, 10, "fiber.trajectory", trajectory_action, 1.3, 0.4, 1.7, TRAJECTORY_STEPS)

    chain = workloads.ElementChain(seed)
    for i in range(ELEMENT_OPS):
        chain.check(i % chain.size, tracer.call("op.element", chain.op, i % chain.size, tracer.call))
    for plan in (workloads.PAPER_PLAN, workloads.WIDE_PLAN):
        sweeps = workloads.VerifySweeps(seed, plan)
        reports = tracer.call("op.verify", sweeps.op, 0, tracer.call)
        sweeps.check(0, reports)
        sweeps.final_check()
        for report in reports:
            tracer.count(f"verify.samples.{workloads.alias(report.signature)}", sum(p.samples for p in report.properties))

    cli = workloads.CliCalls(seed, root)
    argv = {"decompose": 1, "labels": 6, "boost": 7, "verify": 8, "trajectory": 9}
    for name, index in argv.items():
        _repeat(tracer, 5 if name == "verify" else 20, f"cli.main.{name}", _main_quietly, cli.cycle[index][0])
    for name, code in (("interpreter", "pass"), ("import_numpy", "import numpy"), ("import", "import fiberalg")):
        _repeat(tracer, 5, f"cli.{name}", _python, cli.env, root, code)
    _repeat(tracer, 10, "host.pyloop", pyloop)


def per_layer_metrics(tracer) -> dict:
    times = tracer.median_self_ns()
    metrics = {}
    for metric, unit, source in PER_LAYER:
        if unit == "count":
            values = sorted(tracer.counts[source])
            value = values[len(values) // 2]
        else:
            value = times[source] / NS_PER[unit]
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
