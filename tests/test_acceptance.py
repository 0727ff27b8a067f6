"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Sweep sizes and tolerances are pinned here, not configurable; the goal
is a reproducible go/no-go record, not a benchmark.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from fiberalg.algebra import AlgebraElement, Signature, basis_sign, idempotent_pair, multiply, multiply_coeffs
from fiberalg.cli import main
from fiberalg.fiber import (
    FIBER_SIGNATURE,
    TANGENT_SIGNATURE,
    _fiber_parts,
    decompose_c2,
    decompose_d2,
    decompose_d2_projected,
    factorize,
    fiber_component_basis,
    trajectory_action,
)
from fiberalg.verify import _embed_flat

from oracles import all_signatures, reference_basis_product
from replay_net import golden
from test_cli import child_env
from test_verify import span_gap


def report(number, title, ok):
    print(f"criterion {number:>2} ({title}): {'PASS' if ok else 'FAIL'}")
    return ok


def rel(diff, scale):
    scale = np.maximum(np.asarray(scale, dtype=float), 1e-300)
    return np.abs(diff) / scale


def test_criterion_1_identity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    x = rng.uniform(-10, 10, (100_000, 4))
    f = _fiber_parts(*x.T)
    hdt, pdq, mds = f.H * f.dt, f.p * f.dq, f.m * f.ds
    worst = max(
        float(np.max(rel(f.ds * f.ds - (f.dt * f.dt - f.dq * f.dq), f.dt * f.dt))),
        float(np.max(rel(f.m * f.m - (f.H * f.H - f.p * f.p), f.H * f.H))),
        float(np.max(rel(2 * f.c_plus_1**2 - (hdt + pdq + mds), hdt))),
        float(np.max(rel(2 * f.c_plus_e1**2 - (hdt + pdq - mds), hdt))),
        float(np.max(rel(2 * f.c_minus_1**2 - (hdt - pdq + mds), hdt))),
        float(np.max(rel(2 * f.c_minus_e12**2 - (hdt - pdq - mds), hdt))),
    )
    speed_ok = bool(np.all(np.abs(f.dq) <= f.dt * (1 + 1e-14) + 1e-300)) and bool(
        np.all(np.abs(f.p) <= f.H * (1 + 1e-14) + 1e-300)
    )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and speed_ok and elapsed <= 10.0
    assert report(1, "identity suite, 1e5 samples", ok), (worst, speed_ok, elapsed)


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    # coefficients of order one keep the absolute tolerance meaningful
    x = rng.uniform(-1, 1, (10_000, 4))
    f = _fiber_parts(*x.T)
    closed = np.stack(
        [f.dt, f.dq, f.ds, f.H, f.p, f.m, f.c_plus_1, f.c_plus_e1, f.c_minus_1, f.c_minus_e12],
        axis=1,
    )
    basis = fiber_component_basis(FIBER_SIGNATURE)
    flat = _embed_flat(x.T)
    projected = basis.components_batch(flat.T)
    worst = float(np.max(np.abs(projected - closed)))
    recon = float(np.max(span_gap(basis, flat.T)))
    # spot-check the scalar API route end to end
    for row in x[:200]:
        a = decompose_d2(AlgebraElement(FIBER_SIGNATURE, row))
        b = decompose_d2_projected(AlgebraElement(FIBER_SIGNATURE, row))
        worst = max(
            worst,
            abs(a.tangent.dt - b.tangent.dt),
            abs(a.tangent.dq - b.tangent.dq),
            abs(a.tangent.ds - b.tangent.ds),
            abs(a.momentum.H - b.momentum.H),
            abs(a.momentum.p - b.momentum.p),
            abs(a.momentum.m - b.momentum.m),
            abs(a.cross.c_plus_1 - b.cross.c_plus_1),
            abs(a.cross.c_plus_e1 - b.cross.c_plus_e1),
            abs(a.cross.c_minus_1 - b.cross.c_minus_1),
            abs(a.cross.c_minus_e12 - b.cross.c_minus_e12),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-13 and recon <= 1e-13 and elapsed <= 10.0
    assert report(2, "closed forms match projector path", ok), (worst, recon, elapsed)


def test_criterion_3_min_action_equivalence():
    rng = np.random.default_rng(3)
    minimal = rng.uniform(-10, 10, (10_000, 4))
    sign = np.where(rng.uniform(size=10_000) < 0.5, -1.0, 1.0)
    minimal[:, 0] = sign * rng.uniform(0.1, 10, 10_000)
    minimal[:, 3] = minimal[:, 1] * minimal[:, 2] / minimal[:, 0]
    generic = rng.uniform(-10, 10, (10_000, 4))

    disagreements = 0
    for block in (minimal, generic):
        f = _fiber_parts(*block.T)
        norm_sq = np.sum(block * block, axis=1)
        by_residual = f.residual <= 1e-20 * norm_sq * norm_sq
        by_product = np.abs(block[:, 0] * block[:, 3] - block[:, 1] * block[:, 2]) <= 1e-10 * norm_sq
        recon_gap = np.abs(block[:, 1] * block[:, 2] / block[:, 0] - block[:, 3])
        by_roundtrip = recon_gap <= 1e-13 * np.max(np.abs(block), axis=1)
        disagreements += int(np.sum(by_residual != by_product))
        disagreements += int(np.sum(by_product != by_roundtrip))

    # the factorize API agrees with the vectorized gates
    for row in minimal[:100]:
        element = AlgebraElement(FIBER_SIGNATURE, row)
        back = factorize(element).reconstruct()
        if float(np.max(np.abs(back.coeffs - row))) > 1e-13 * float(np.max(np.abs(row))):
            disagreements += 1
    for row in generic[:100]:
        try:
            factorize(AlgebraElement(FIBER_SIGNATURE, row))
            disagreements += 1  # generic elements must be rejected
        except ValueError:
            pass

    f = _fiber_parts(*minimal.T)
    action_residual = float(np.max(rel(f.action_rate + f.m * f.ds, f.H * f.dt)))
    ok = disagreements == 0 and action_residual <= 1e-11
    assert report(3, "minimum-action equivalence", ok), (disagreements, action_residual)


def _boost_pair_samples(count, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10, 10, (count, 4))
    phi = rng.uniform(-3, 3, count)
    u = np.zeros((count, 4))
    u[:, 0] = np.cosh(phi)
    u[:, 1] = np.sinh(phi)
    xu = multiply_coeffs(FIBER_SIGNATURE, x, u)
    before = _fiber_parts(*x.T)
    after = _fiber_parts(*xu.T)
    return before, after, phi


def test_criterion_4_boost_invariants_and_matrix():
    before, after, phi = _boost_pair_samples(1000, 4)
    ch, sh = np.cosh(2 * phi), np.sinh(2 * phi)
    tangent_scale = np.maximum(before.dt, after.dt)
    momentum_scale = np.maximum(before.H, after.H)
    cross_scale = np.sqrt(np.maximum(before.H * before.dt, after.H * after.dt))
    action_scale = np.maximum(before.H * before.dt, after.H * after.dt)
    worst = max(
        float(np.max(rel(after.ds - before.ds, tangent_scale))),
        float(np.max(rel(after.m - before.m, momentum_scale))),
        float(np.max(rel(after.action_rate - before.action_rate, action_scale))),
        float(np.max(rel(after.c_minus_1 - before.c_minus_1, cross_scale))),
        float(np.max(rel(after.c_minus_e12 - before.c_minus_e12, cross_scale))),
        float(np.max(rel(after.dt - (ch * before.dt + sh * before.dq), tangent_scale))),
        float(np.max(rel(after.dq - (sh * before.dt + ch * before.dq), tangent_scale))),
        float(np.max(rel(after.H - (ch * before.H + sh * before.p), momentum_scale))),
        float(np.max(rel(after.p - (sh * before.H + ch * before.p), momentum_scale))),
        float(np.max(rel(after.c_plus_1 - (ch * before.c_plus_1 + sh * before.c_plus_e1), cross_scale))),
        float(np.max(rel(after.c_plus_e1 - (sh * before.c_plus_1 + ch * before.c_plus_e1), cross_scale))),
    )
    ok = worst <= 1e-10
    assert report(4, "boost: norms, action, minus-half cross, matrix law", ok), worst


@pytest.mark.xfail(
    strict=True,
    reason="the plus-half cross pair transforms covariantly with the tangent and "
    "momentum vectors (doubled-rapidity matrix); it is not a boost invariant",
)
def test_criterion_4_plus_cross_preservation():
    before, after, _ = _boost_pair_samples(1000, 4)
    cross_scale = np.sqrt(np.maximum(before.H * before.dt, after.H * after.dt))
    worst = max(
        float(np.max(rel(after.c_plus_1 - before.c_plus_1, cross_scale))),
        float(np.max(rel(after.c_plus_e1 - before.c_plus_e1, cross_scale))),
    )
    ok = worst <= 1e-10
    assert report(4, "boost: plus-half cross preservation", ok), worst


def test_criterion_5_tangent_base_case():
    worked = decompose_c2(AlgebraElement(TANGENT_SIGNATURE, [2.0, 1.0]))
    rest = decompose_c2(AlgebraElement(TANGENT_SIGNATURE, [1.0, 0.0]))
    ok = (
        (worked.dt, worked.dq, worked.ds) == (5.0, 4.0, 3.0)
        and worked.dt**2 == worked.dq**2 + worked.ds**2
        and (rest.dt, rest.dq, rest.ds) == (1.0, 0.0, 1.0)
    )
    assert report(5, "tangent base case (2,1) -> (5,4,3)", ok)


def test_criterion_6_worked_fiber_fixture():
    element = AlgebraElement(FIBER_SIGNATURE, [2.0, 1.0, 1.0, 0.5])
    expected = {
        "dt": 11.25, "dq": 9.0, "ds": 6.75,
        "H": 1.25, "p": 1.0, "m": 0.75,
        "c_plus_1": 3.75, "c_plus_e1": 3.0, "c_minus_1": 2.25, "c_minus_e12": 0.0,
    }
    worst = 0.0
    for route in (decompose_d2, decompose_d2_projected):
        dec = route(element)
        got = {
            "dt": dec.tangent.dt, "dq": dec.tangent.dq, "ds": dec.tangent.ds,
            "H": dec.momentum.H, "p": dec.momentum.p, "m": dec.momentum.m,
            "c_plus_1": dec.cross.c_plus_1, "c_plus_e1": dec.cross.c_plus_e1,
            "c_minus_1": dec.cross.c_minus_1, "c_minus_e12": dec.cross.c_minus_e12,
        }
        worst = max(worst, max(abs(got[k] - expected[k]) for k in expected))
        worst = max(worst, abs(dec.action_rate - (-5.0625)), dec.min_action_residual)
    factorization = factorize(element)
    factor_ok = (
        factorization.scale == 0.5
        and list(factorization.first.coeffs) == [2.0, 1.0, 0.0, 0.0]
        and list(factorization.second.coeffs) == [2.0, 0.0, 1.0, 0.0]
        and factorization.reconstruct() == element
    )
    ok = worst <= 1e-13 and factor_ok
    assert report(6, "worked fiber fixture (2,1,1,0.5)", ok), (worst, factor_ok)


def test_criterion_7_euclidean_invariance():
    sig = Signature((-1,))
    rng = np.random.default_rng(7)
    x = rng.uniform(-10, 10, (1000, 2))
    theta = rng.uniform(-np.pi, np.pi, 1000)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    xu = multiply_coeffs(sig, x, u)
    before = x[:, 0] ** 2 + x[:, 1] ** 2
    after = xu[:, 0] ** 2 + xu[:, 1] ** 2
    worst = float(np.max(rel(after - before, np.maximum(before, after))))
    ok = worst <= 1e-12
    assert report(7, "euclidean rotation invariance", ok), worst


def test_criterion_8_trajectory_integral():
    started = time.perf_counter()
    record = trajectory_action(0.75, 0.5493061443340549, 1.0, 10**6)
    elapsed = time.perf_counter() - started
    ok = record.error <= 1e-9 and elapsed <= 1.0
    assert report(8, "free-particle action integral, 1e6 steps", ok), (record.error, elapsed)


def test_criterion_9_algebra_kernel():
    table_ok = True
    for squares in all_signatures():
        sig = Signature(squares)
        for s in range(sig.dim):
            for t in range(sig.dim):
                product = multiply(
                    AlgebraElement.basis(sig, s) * Fraction(1),
                    AlgebraElement.basis(sig, t) * Fraction(1),
                )
                ref_sign, ref_mask = reference_basis_product(s, t, squares)
                expected = [Fraction(0)] * sig.dim
                expected[ref_mask] = Fraction(ref_sign)
                if not product.exact or list(product.coeffs) != expected:
                    table_ok = False
    projector_ok = True
    for squares in all_signatures():
        sig = Signature(squares)
        one = AlgebraElement.basis(sig, 0) * Fraction(1)
        zero = AlgebraElement.zero(sig) * Fraction(1)
        for mask in range(sig.dim):
            if basis_sign(mask, mask, sig) != 1:
                continue
            # Times Fraction(1), the float pair is promoted with no rounding.
            plus, minus = (p.element * Fraction(1) for p in idempotent_pair(mask, sig))
            if plus + minus != one:
                projector_ok = False
            product = multiply(plus, minus)
            if not product.exact or product != zero:
                projector_ok = False
    ok = table_ok and projector_ok
    assert report(9, "exhaustive tables and exact projectors, n <= 3", ok)


def test_criterion_10_cli_contract(capsys):
    code_c2 = main(["decompose", "+", "2", "1"])
    out_c2 = capsys.readouterr().out
    code_d2 = main(["decompose", "++", "2", "1", "1", "0.5"])
    out_d2 = capsys.readouterr().out
    golden_ok = (
        code_c2 == 0
        and code_d2 == 0
        and out_c2 == golden("decompose + 2 1")
        and out_d2 == golden("decompose ++ 2 1 1 0.5 --format json")
    )
    runs = [
        subprocess.run(
            [sys.executable, "-m", "fiberalg", "decompose", "++", "2", "1", "1", "0.5"],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        for _ in range(2)
    ]
    repeat_ok = runs[0].stdout == runs[1].stdout and json.loads(runs[0].stdout)["schema_version"] == "1"

    def exit_code(argv):
        try:
            code = main(argv)
        except SystemExit as err:
            code = err.code
        capsys.readouterr()
        return code

    exit_ok = (
        exit_code(["decompose", "++", "1", "0", "0"]) == 2
        and exit_code(["decompose", "q+", "1", "0", "0", "0"]) == 2
        and exit_code(["verify", "++", "0", "1", "1e-10"]) == 2
        and exit_code(["verify", "+", "200", "1", "1e-10"]) == 0
        and exit_code(["verify", "+", "200", "1", "1e-30"]) == 1
        and exit_code(["trajectory", "-1", "0", "1", "10"]) == 2
    )
    ok = golden_ok and repeat_ok and exit_ok
    assert report(10, "CLI golden bytes and exit codes", ok), (golden_ok, repeat_ok, exit_ok)
