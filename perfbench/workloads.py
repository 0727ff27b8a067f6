"""The workloads and the element chain: seeded inputs, one operation, its checks.

A workload object holds inputs made from the seed.  ``op(i, call)`` runs
operation ``i`` of a round, routing every call into fiberalg through
``call(span_name, fn, *args)`` so a traced run can put a span around
it.  ``check(i, result)`` raises :class:`Failed` when the program gave no
valid answer and :class:`Incorrect` when it answered wrongly.  The
checks compare against arithmetic written here or against properties
the construction must have, never against recorded output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
from fiberalg import (
    EUCLIDEAN_FIBER_SIGNATURE,
    FIBER_SIGNATURE,
    AlgebraElement,
    Signature,
    decompose_d2,
    decompose_d2_projected,
    decompose_euclidean,
    factorize,
    is_min_action,
    run_verification,
    square_embed,
    tensor_multiply,
    transform,
)

TOL = 1e-10
COEFF_RANGE = 10.0
RAPIDITY_RANGE = 3.0

# (signature, samples) of one operation.  The paper sweeps are the
# defaults of scripts/run_verification.py.  The wide sweeps run once,
# checked, in the traced probe pass (see README.md).
PAPER_PLAN = (("+", 100_000), ("++", 100_000), ("-", 100_000), ("-+", 100_000))
WIDE_PLAN = (("+-+", 6_000), ("++-+", 800))
ELEMENTS = 256
CLI_VERIFY_SAMPLES = 1000
CLI_TRAJECTORY_STEPS = 1_000_000
CLI_TIMEOUT_S = 60


class Failed(Exception):
    """The program gave no valid answer: a traceback or an invalid document."""


class Incorrect(Exception):
    """The program answered, and the answer is wrong."""


def alias(signature: str) -> str:
    """The CLI's p/m spelling of a signature, used in metric names."""
    return signature.replace("+", "p").replace("-", "m")


def _near(value, expected, scale, what: str) -> None:
    if not abs(value - expected) <= TOL * scale:
        raise Incorrect(f"{what}: {value!r} vs {expected!r} (scale {scale:.3e})")


# ---------------------------------------------------------------------------
# Arithmetic of the signed group algebra, written apart from fiberalg.


def _negative_mask(squares) -> int:
    return sum(1 << i for i, square in enumerate(squares) if square < 0)


def sign_parity_table(squares) -> np.ndarray:
    """(-1) ** popcount(S & T & negmask) for every pair of basis subsets."""
    masks = np.arange(1 << len(squares))
    shared = masks[:, None] & masks[None, :] & _negative_mask(squares)
    parity = np.zeros_like(shared)
    for bit in range(len(squares)):
        parity ^= (shared >> bit) & 1
    return (1 - 2 * parity).astype(np.int8)


def product(a, b, squares) -> list[float]:
    """Bilinear product e_S e_T = sign(S, T) e_(S xor T) over plain floats."""
    negative = _negative_mask(squares)
    out = [0.0] * len(a)
    for s, a_s in enumerate(a):
        for t, b_t in enumerate(b):
            sign = -1.0 if bin(s & t & negative).count("1") % 2 else 1.0
            out[s ^ t] += sign * a_s * b_t
    return out


# ---------------------------------------------------------------------------
# verify_paper, and the wide sweeps of the probe pass.


class VerifySweeps:
    """One operation is ``run_verification`` on every signature of a plan."""

    round_size = 1

    def __init__(self, seed: int, plan) -> None:
        self.seed = seed
        self.plan = plan
        self.first = None

    def op(self, i, call):
        return tuple(
            call(f"verify.sweep.{alias(sig)}", run_verification, sig, samples, self.seed, TOL)
            for sig, samples in self.plan
        )

    def check(self, i, reports) -> None:
        for report in reports:
            for prop in report.properties:
                finite = math.isfinite(prop.max_abs_residual) and math.isfinite(prop.max_rel_residual)
                if not (prop.passed and finite and prop.max_rel_residual <= prop.tolerance):
                    raise Incorrect(f"{report.signature} {prop.name} failed: {prop}")
            if not report.passed:
                raise Incorrect(f"{report.signature} report did not pass")
        if self.first is None:
            self.first = reports
        elif reports != self.first:
            raise Incorrect("a second sweep with the same seed returned another report")

    def final_check(self) -> None:
        for sig, _ in self.plan:
            signature = Signature.from_string(sig)
            for s in (signature, signature.doubled()):
                if not np.array_equal(s.sign_table, sign_parity_table(s.squares)):
                    raise Incorrect(f"sign table of {s} differs from popcount parity")


# ---------------------------------------------------------------------------
# The element chain.  Its host-driven spread was too wide for a workload
# of its own (see README.md); the traced probe pass runs and checks it.


def _exact_minimal(rng) -> list[float]:
    """A minimal element x0 x3 == x1 x2 whose float construction is exact."""
    x0 = float(rng.choice([-1.0, 1.0]) * 2.0 ** int(rng.integers(-3, 4)))
    x1 = int(rng.integers(-2560, 2561)) / 256.0
    x2 = int(rng.integers(-2560, 2561)) / 256.0
    return [x0, x1, x2, x1 * x2 / x0]


class ElementChain:
    """One operation takes one ``++`` element and a boost through the scalar API."""

    size = ELEMENTS

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(self.size):
            x = rng.uniform(-COEFF_RANGE, COEFF_RANGE, 4)
            phi = float(rng.uniform(-RAPIDITY_RANGE, RAPIDITY_RANGE))
            u = [math.cosh(phi), math.sinh(phi), 0.0, 0.0]
            y = rng.uniform(-COEFF_RANGE, COEFF_RANGE, 4)
            self.inputs.append(
                (
                    AlgebraElement(FIBER_SIGNATURE, x),
                    phi,
                    AlgebraElement(FIBER_SIGNATURE, u),
                    AlgebraElement(FIBER_SIGNATURE, _exact_minimal(rng)),
                    AlgebraElement(EUCLIDEAN_FIBER_SIGNATURE, y),
                )
            )

    def op(self, i, call):
        x, _, u, xmin, y = self.inputs[i]
        closed = call("fiber.decompose_d2", decompose_d2, x)
        projected = call("fiber.decompose_d2_projected", decompose_d2_projected, x)
        xu = call("fiber.transform", transform, x, u)
        boosted = call("fiber.decompose_d2", decompose_d2, xu)
        minimal = (call("fiber.is_min_action", is_min_action, x), call("fiber.is_min_action", is_min_action, xmin))
        factors = call("fiber.factorize", factorize, xmin)
        grid = call(
            "tensor.tensor_multiply.pp",
            tensor_multiply,
            call("tensor.square_embed.pp", square_embed, x),
            call("tensor.square_embed.pp", square_embed, u),
        )
        euclidean = call("fiber.decompose_euclidean.mp", decompose_euclidean, y)
        return closed, projected, boosted, minimal, factors, grid, euclidean

    def check(self, i, result) -> None:
        x, phi, u, xmin, _ = self.inputs[i]
        closed, projected, boosted, minimal, factors, grid, euclidean = result
        coeffs = [float(c) for c in x.coeffs]
        t, m = closed.tangent, closed.momentum
        size = t.dt + m.H  # twice the squared coefficient norm
        _near(t.ds * t.ds, t.dt * t.dt - t.dq * t.dq, size * size, "ds^2 = dt^2 - dq^2")
        _near(m.m * m.m, m.H * m.H - m.p * m.p, size * size, "m^2 = H^2 - p^2")

        for part in ("tangent", "momentum", "cross"):
            ours, theirs = vars(getattr(closed, part)), vars(getattr(projected, part))
            for key, value in ours.items():
                _near(theirs[key], value, size, f"projected {part}.{key}")
        _near(projected.action_rate, closed.action_rate, size * size, "projected dS")
        _near(projected.min_action_residual, closed.min_action_residual, size * size, "projected residual")

        t1, m1 = boosted.tangent, boosted.momentum
        scale = max(size, t1.dt + m1.H)
        ch, sh = math.cosh(2 * phi), math.sinh(2 * phi)
        _near(t1.ds, t.ds, scale, "boost keeps ds")
        _near(m1.m, m.m, scale, "boost keeps m")
        _near(boosted.action_rate, closed.action_rate, scale * scale, "boost keeps dS")
        _near(t1.dt, ch * t.dt + sh * t.dq, scale, "boosted dt")
        _near(t1.dq, sh * t.dt + ch * t.dq, scale, "boosted dq")
        _near(m1.H, ch * m.H + sh * m.p, scale, "boosted H")
        _near(m1.p, sh * m.H + ch * m.p, scale, "boosted p")

        xu = product(coeffs, [float(c) for c in u.coeffs], FIBER_SIGNATURE.squares)
        bound = (sum(map(abs, coeffs)) * sum(abs(float(c)) for c in u.coeffs)) ** 2
        gap = float(np.max(np.abs(np.asarray(grid.grid, dtype=float) - np.outer(xu, xu))))
        _near(gap, 0.0, bound, "tensor_multiply(x(x)x, u(x)u) = xu (x) xu")

        norm_sq = sum(c * c for c in coeffs)
        expect_minimal = abs(coeffs[0] * coeffs[3] - coeffs[1] * coeffs[2]) <= 1e-10 * norm_sq
        if minimal != (expect_minimal, True):
            raise Incorrect(f"is_min_action gave {minimal}, expected ({expect_minimal}, True)")
        if factors.reconstruct() != xmin:
            raise Incorrect(f"factorize({xmin}).reconstruct() differs")
        dmin = decompose_d2(xmin)
        min_size = dmin.tangent.dt + dmin.momentum.H
        _near(dmin.action_rate, -dmin.momentum.m * dmin.tangent.ds, min_size * min_size, "dS = -m ds")

        te, me = euclidean.tangent, euclidean.momentum
        e_size = (te.invariant + me.invariant) ** 2
        _near(te.vec_1**2 + te.vec_e1**2, te.invariant**2, e_size, "tangent circle")
        _near(me.vec_1**2 + me.vec_e1**2, me.invariant**2, e_size, "momentum circle")
        product_inv = te.invariant * me.invariant
        _near(euclidean.cross_invariant_1**2 + euclidean.cross_invariant_e12**2, product_inv, e_size, "cross invariants")
        _near(euclidean.cross_vec_1**2 + euclidean.cross_vec_e1**2, product_inv, e_size, "cross vector")


# ---------------------------------------------------------------------------
# cli_calls.


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def _strict_number(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _flat(fmt: str, stdout: str) -> dict:
    """The payload as flattened 'a.b' keys, from any of the three formats."""
    if fmt == "json":
        out = {}

        def walk(value, path):
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(item, f"{path}{key}.")
            else:
                out[path[:-1]] = value

        walk(json.loads(stdout, parse_constant=_reject_constant), "")
        return out
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["field", "value"]:
            raise ValueError(f"csv header {rows[0]}")
        pairs = rows[1:]
    else:
        pairs = [line.split(None, 1) for line in stdout.splitlines()]
    out = {}
    for key, raw in pairs:
        try:
            out[key] = _strict_number(raw)
        except ValueError:
            if raw in ("NaN", "Infinity", "-Infinity"):
                raise
            out[key] = raw
    return out


def _fiber_norms(flat: dict, prefix: str = "") -> float:
    g = {key[len(prefix):]: value for key, value in flat.items() if key.startswith(prefix)}
    dt, dq, ds = g["tangent.dt_dlambda"], g["tangent.dq_dlambda"], g["tangent.ds_dlambda"]
    energy, p, m = g["momentum.H"], g["momentum.p"], g["momentum.m"]
    size = dt + energy
    _near(ds * ds, dt * dt - dq * dq, size * size, "payload ds^2")
    _near(m * m, energy * energy - p * p, size * size, "payload m^2")
    _near(g["dS_dlambda"], p * dq - energy * dt, size * size, "payload dS")
    return size


def _fmt(values) -> list[str]:
    return [f"{v:.4f}" for v in values]


class CliCalls:
    """One operation is one fresh ``python -m fiberalg`` child from a fixed cycle."""

    def __init__(self, seed: int, root) -> None:
        rng = np.random.default_rng(seed)
        x = _fmt(rng.uniform(-COEFF_RANGE, COEFF_RANGE, 2))
        xx = _fmt(rng.uniform(-COEFF_RANGE, COEFF_RANGE, 4))
        xmin = [repr(v) for v in _exact_minimal(rng)]
        y = _fmt(rng.uniform(-COEFF_RANGE, COEFF_RANGE, 2))
        z = _fmt(rng.uniform(-COEFF_RANGE, COEFF_RANGE, 4))
        phi = _fmt([rng.uniform(-RAPIDITY_RANGE, RAPIDITY_RANGE)])
        mass, rapidity, span = _fmt([rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)])
        # (argv, format, boundary): a boundary call may also end in a
        # documented error exit.  The last two fail on every seed today.
        self.cycle = (
            (["decompose", "+", *x], "json", False),
            (["decompose", "++", *xx], "json", False),
            (["decompose", "++", *xmin, "--format", "csv"], "csv", False),
            (["decompose", "-", *y, "--format", "csv"], "csv", False),
            (["decompose", "m+", *z, "--format", "pretty"], "pretty", False),
            (["decompose", "++", *xx, "--format", "pretty"], "pretty", False),
            (["decompose", "++", "--labels"], "json", False),
            (["boost", "++", *xx, *phi], "json", False),
            (["verify", "++", str(CLI_VERIFY_SAMPLES), str(seed)], "json", False),
            (["trajectory", mass, rapidity, span, str(CLI_TRAJECTORY_STEPS)], "json", False),
            (["decompose", "++", "nan", "1", "1", "1"], "json", True),
            (["boost", "++", "1", "0", "0", "0", "1000"], "json", True),
        )
        self.round_size = len(self.cycle)
        self.root = root
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.first_stdout: dict[int, bytes] = {}

    def spawn(self, argv):
        done = subprocess.run(
            [sys.executable, "-m", "fiberalg", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
        return done.returncode, done.stdout, done.stderr

    def op(self, i, call):
        return call("cli.call", self.spawn, self.cycle[i][0])

    def check(self, i, result) -> None:
        argv, fmt, boundary = self.cycle[i]
        code, stdout, stderr = result
        if b"Traceback" in stderr:
            raise Failed(f"{argv} ended in a traceback: {stderr.decode()[-200:]!r}")
        if code in (1, 2):
            if boundary:
                return
            raise Incorrect(f"{argv} exited {code} on valid input: {stderr.decode()[-200:]!r}")
        if code != 0:
            raise Failed(f"{argv} exited {code}")
        try:
            flat = _flat(fmt, stdout.decode())
        except ValueError as exc:
            raise Failed(f"{argv} printed an invalid {fmt} document: {exc}") from None
        if self.first_stdout.setdefault(i, stdout) != stdout:
            raise Incorrect(f"{argv} printed other bytes on a repeated call")
        if str(flat.get("schema_version")) != "1" or (fmt == "json" and flat["schema_version"] != "1"):
            raise Incorrect(f"{argv} schema_version {flat.get('schema_version')!r}")
        self._check_payload(argv, flat)

    def _check_payload(self, argv, flat) -> None:
        command, signature = argv[0], argv[1]
        if command == "decompose" and "--labels" in argv:
            if flat["basis"] != ["1", "e1", "e2", "e12"]:
                raise Incorrect(f"labels {flat['basis']!r}")
        elif command == "decompose" and signature == "+":
            dt, dq, ds = (flat[f"tangent.{k}_dlambda"] for k in ("dt", "dq", "ds"))
            _near(ds * ds, dt * dt - dq * dq, dt * dt, "payload ds^2")
        elif command == "decompose" and signature == "++":
            _fiber_norms(flat)
            coeffs = [float(v) for v in argv[2:6]]
            if coeffs[0] * coeffs[3] == coeffs[1] * coeffs[2]:
                if flat["minimal"] is not True or flat.get("factorization.scale") != 1.0 / coeffs[0]:
                    raise Incorrect(f"{argv}: minimal element not reported as factored")
        elif command == "decompose" and signature == "-":
            c = [flat[f"components.{k}"] for k in ("p_plus_1", "p_plus_e", "p_minus")]
            _near(c[1] ** 2 + c[2] ** 2, c[0] ** 2, c[0] ** 2, "payload circle")
        elif command == "decompose":
            for part in ("tangent", "momentum"):
                inv, v1, ve = (flat[f"components.{part}.{k}"] for k in ("invariant", "vec_1", "vec_e1"))
                _near(v1 * v1 + ve * ve, inv * inv, inv * inv, f"payload {part} circle")
        elif command == "boost":
            size = _fiber_norms(flat, "before.") + _fiber_norms(flat, "after.")
            for key, value in flat.items():
                if key.startswith("residuals."):
                    scale = size * size if key == "residuals.dS_dlambda" else size
                    _near(value, 0.0, scale, key)
        elif command == "verify":
            props = flat["properties"]
            if flat["pass"] is not True or not all(p["pass"] for p in props):
                raise Incorrect(f"verify {signature} did not pass")
        elif command == "trajectory":
            mass, span = float(argv[1]), float(argv[3])
            if not abs(flat["numeric_S"] + mass * span) <= 1e-9:
                raise Incorrect(f"numeric_S {flat['numeric_S']} vs {-mass * span}")

    def final_check(self) -> None:
        pass


def make(name: str, seed: int, root):
    if name == "verify_paper":
        return VerifySweeps(seed, PAPER_PLAN)
    if name == "cli_calls":
        return CliCalls(seed, root)
    raise ValueError(f"unknown workload {name!r}")
