"""Fiber semantics tests: decompositions, minimality, boosts, kinematics.

The worked fixture values were computed through the projector path
(square_embed, sector products, trace extraction) before the closed
forms existed; both routes are asserted against the same frozen numbers.
"""

import math
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fiberalg.algebra import AlgebraElement, Signature
from fiberalg.cli import _decompose_payload
from fiberalg.fiber import (
    EUCLIDEAN_FIBER_SIGNATURE,
    EUCLIDEAN_TANGENT_SIGNATURE,
    FIBER_SIGNATURE,
    MAX_STEPS,
    TANGENT_SIGNATURE,
    TRAJECTORY_GATE,
    ActionIntegral,
    CausalClass,
    EuclideanSector,
    MomentumTriple,
    TangentTriple,
    boost_check,
    boost_element,
    classify_causal,
    decompose_c2,
    decompose_c2_projected,
    decompose_d2,
    decompose_d2_projected,
    decompose_euclidean,
    decompose_euclidean_projected,
    factorize,
    fiber_component_basis,
    free_particle_element,
    is_min_action,
    lift_kinematics,
    rotation_element,
    trajectory_action,
    transform,
)

coeff = st.floats(-10, 10, allow_nan=False, allow_infinity=False).map(
    lambda v: 0.0 if abs(v) < 1e-100 else v
)

WORKED = AlgebraElement(FIBER_SIGNATURE, [2.0, 1.0, 1.0, 0.5])


# Sector values of the -+ element [2, 1, 1, 0.5], from (a, b) = (3, 1.5)
# and (c, d) = (1, 0.5), in the order of euclidean_fiber_values.
EUCLIDEAN_HAND_EXPANSION = (11.25, 6.75, 9.0, 1.25, 0.75, 1.0, 3.75, 0.0, 2.25, 3.0)


def euclidean_fiber_values(dec):
    return (
        dec.tangent.invariant,
        dec.tangent.vec_1,
        dec.tangent.vec_e1,
        dec.momentum.invariant,
        dec.momentum.vec_1,
        dec.momentum.vec_e1,
        dec.cross_invariant_1,
        dec.cross_invariant_e12,
        dec.cross_vec_1,
        dec.cross_vec_e1,
    )


def d2(values):
    return AlgebraElement(FIBER_SIGNATURE, values)


def c2(values):
    return AlgebraElement(TANGENT_SIGNATURE, values)


class TestDecomposeC2:
    def test_rest_element(self):
        assert decompose_c2(c2([1.0, 0.0])) == TangentTriple(1.0, 0.0, 1.0)

    def test_worked_triple(self):
        triple = decompose_c2(c2([2.0, 1.0]))
        assert triple == TangentTriple(5.0, 4.0, 3.0)
        assert triple.dt**2 == triple.dq**2 + triple.ds**2

    def test_lightlike(self):
        assert decompose_c2(c2([1.0, 1.0])) == TangentTriple(2.0, 2.0, 0.0)

    def test_wrong_signature(self):
        with pytest.raises(ValueError, match="requires signature"):
            decompose_c2(d2([1.0, 0.0, 0.0, 0.0]))

    @given(st.lists(coeff, min_size=2, max_size=2))
    def test_matches_projected_path(self, values):
        closed = decompose_c2(c2(values))
        grid = decompose_c2_projected(c2(values))
        scale = max(1.0, closed.dt)
        assert abs(closed.dt - grid.dt) <= 1e-13 * scale
        assert abs(closed.dq - grid.dq) <= 1e-13 * scale
        assert abs(closed.ds - grid.ds) <= 1e-13 * scale


class TestDecomposeD2:
    def test_identity_element(self):
        dec = decompose_d2(d2([1.0, 0.0, 0.0, 0.0]))
        assert dec.tangent == TangentTriple(1.0, 0.0, 1.0)
        assert (dec.momentum.H, dec.momentum.p, dec.momentum.m) == (1.0, 0.0, 1.0)
        assert (
            dec.cross.c_plus_1,
            dec.cross.c_plus_e1,
            dec.cross.c_minus_1,
            dec.cross.c_minus_e12,
        ) == (1.0, 0.0, 1.0, 0.0)
        assert dec.action_rate == -1.0
        assert dec.min_action_residual == 0.0

    def test_worked_fixture(self):
        dec = decompose_d2(WORKED)
        assert dec.tangent == TangentTriple(11.25, 9.0, 6.75)
        assert (dec.momentum.H, dec.momentum.p, dec.momentum.m) == (1.25, 1.0, 0.75)
        assert (
            dec.cross.c_plus_1,
            dec.cross.c_plus_e1,
            dec.cross.c_minus_1,
            dec.cross.c_minus_e12,
        ) == (3.75, 3.0, 2.25, 0.0)
        assert dec.action_rate == -5.0625
        assert dec.min_action_residual == 0.0
        # minimality ties the action rate to the norms
        assert dec.action_rate == -(dec.momentum.m * dec.tangent.ds)

    def test_lightlike(self):
        dec = decompose_d2(d2([1.0, 1.0, 0.0, 0.0]))
        assert dec.tangent == TangentTriple(2.0, 2.0, 0.0)
        assert (dec.momentum.H, dec.momentum.p, dec.momentum.m) == (2.0, 2.0, 0.0)
        assert (
            dec.cross.c_plus_1,
            dec.cross.c_plus_e1,
            dec.cross.c_minus_1,
            dec.cross.c_minus_e12,
        ) == (2.0, 2.0, 0.0, 0.0)

    def test_wrong_signature(self):
        with pytest.raises(ValueError, match="requires signature"):
            decompose_d2(c2([1.0, 0.0]))

    @given(st.lists(coeff, min_size=4, max_size=4))
    def test_matches_projected_path(self, values):
        closed = decompose_d2(d2(values))
        grid = decompose_d2_projected(d2(values))
        scale = max(1.0, closed.tangent.dt + closed.momentum.H)
        pairs = [
            (closed.tangent.dt, grid.tangent.dt),
            (closed.tangent.dq, grid.tangent.dq),
            (closed.tangent.ds, grid.tangent.ds),
            (closed.momentum.H, grid.momentum.H),
            (closed.momentum.p, grid.momentum.p),
            (closed.momentum.m, grid.momentum.m),
            (closed.cross.c_plus_1, grid.cross.c_plus_1),
            (closed.cross.c_plus_e1, grid.cross.c_plus_e1),
            (closed.cross.c_minus_1, grid.cross.c_minus_1),
            (closed.cross.c_minus_e12, grid.cross.c_minus_e12),
        ]
        for a, b in pairs:
            assert abs(a - b) <= 1e-13 * scale

    @given(st.lists(coeff, min_size=4, max_size=4))
    def test_norm_and_cross_identities(self, values):
        dec = decompose_d2(d2(values))
        dt, dq, ds = dec.tangent.dt, dec.tangent.dq, dec.tangent.ds
        H, p, m = dec.momentum.H, dec.momentum.p, dec.momentum.m
        tangent_scale = max(dt * dt, 1e-300)
        momentum_scale = max(H * H, 1e-300)
        assert abs(ds * ds - (dt * dt - dq * dq)) <= 1e-12 * tangent_scale
        assert abs(m * m - (H * H - p * p)) <= 1e-12 * momentum_scale
        assert dt >= 0.0 and H >= 0.0
        assert abs(dq) <= dt * (1 + 1e-14) + 1e-300
        assert abs(p) <= H * (1 + 1e-14) + 1e-300
        hdt, pdq, mds = H * dt, p * dq, m * ds
        cross_scale = max(hdt, 1e-300)
        c = dec.cross
        assert abs(2 * c.c_plus_1**2 - (hdt + pdq + mds)) <= 1e-12 * cross_scale
        assert abs(2 * c.c_plus_e1**2 - (hdt + pdq - mds)) <= 1e-12 * cross_scale
        assert abs(2 * c.c_minus_1**2 - (hdt - pdq + mds)) <= 1e-12 * cross_scale
        assert abs(2 * c.c_minus_e12**2 - (hdt - pdq - mds)) <= 1e-12 * cross_scale
        # the residual is a quarter of the last combination
        assert abs(dec.min_action_residual - (hdt - pdq - mds) / 4) <= 1e-12 * cross_scale
        assert dec.action_rate == pdq - hdt


class TestMinAction:
    def test_worked_fixture_is_minimal(self):
        assert is_min_action(WORKED)

    def test_antidiagonal_is_not(self):
        assert not is_min_action(d2([1.0, 0.0, 0.0, 1.0]))

    def test_identity_is_minimal(self):
        assert is_min_action(d2([1.0, 0.0, 0.0, 0.0]))

    def test_wrong_signature(self):
        with pytest.raises(ValueError, match="requires signature"):
            is_min_action(c2([1.0, 0.0]))

    def test_exact_element_is_read_as_it_is(self):
        # 1/7 * 7/143 == 1/11 * 1/13; through floats the two products differ by 8.7e-19
        element = d2([Fraction(1, 7), Fraction(1, 11), Fraction(1, 13), Fraction(7, 143)])
        assert is_min_action(element, tol=0.0)
        assert factorize(element, tol=0.0).reconstruct() == element

    def test_underflowing_squares_do_not_make_an_element_minimal(self):
        # x0 x3 - x1 x2 and |x|**2 both underflow to 0; the factors would rebuild [1, 2, 3, 6] * 1e-170
        element = d2([1e-170, 2e-170, 3e-170, 4e-170])
        assert not is_min_action(element)
        with pytest.raises(ValueError, match="not minimum-action"):
            factorize(element)

    # Dyadic samples keep x3 = x1*x2/x0 exact in floats, so the identity
    # is tested at exact minimality rather than against construction
    # rounding (which dominates when the momentum sector is nearly null).
    @given(
        st.integers(-3, 3),
        st.sampled_from([-1.0, 1.0]),
        st.integers(-2560, 2560),
        st.integers(-2560, 2560),
    )
    def test_constructed_minimal_elements(self, exponent, sign, i1, i2):
        x0 = sign * 2.0**exponent
        x1, x2 = i1 / 256.0, i2 / 256.0
        x3 = x1 * x2 / x0
        element = d2([x0, x1, x2, x3])
        assert is_min_action(element)
        dec = decompose_d2(element)
        scale = max(dec.momentum.H * dec.tangent.dt, 1e-300)
        assert abs(dec.action_rate + dec.momentum.m * dec.tangent.ds) <= 1e-11 * scale


class TestFactorize:
    def test_worked_fixture(self):
        factorization = factorize(WORKED)
        assert factorization.scale == 0.5
        assert list(factorization.first.coeffs) == [2.0, 1.0, 0.0, 0.0]
        assert list(factorization.second.coeffs) == [2.0, 0.0, 1.0, 0.0]
        assert factorization.reconstruct() == WORKED

    def test_identity(self):
        factorization = factorize(d2([1.0, 0.0, 0.0, 0.0]))
        assert factorization.reconstruct() == d2([1.0, 0.0, 0.0, 0.0])

    def test_non_minimal_rejected(self):
        with pytest.raises(ValueError, match="not minimum-action"):
            factorize(d2([1.0, 0.0, 0.0, 1.0]))

    def test_non_minimal_rejected_where_the_residual_overflows(self):
        # the message prints the ratio that is_min_action compared, at most 1/2
        with pytest.raises(ValueError, match=r"not minimum-action \(\|x0 x3 - x1 x2\| / \|x\|\*\*2 = 5\.000e-01\)"):
            factorize(d2([1e160, 0.0, 0.0, 1e160]))

    def test_non_minimal_exact_element_rejected(self):
        # a Fraction formats as :.3e only from Python 3.12 on; the ratio is printed as a float
        element = d2([Fraction(1), Fraction(0), Fraction(0), Fraction(1)])
        with pytest.raises(ValueError, match=r"not minimum-action \(\|x0 x3 - x1 x2\| / \|x\|\*\*2 = 5\.000e-01\)"):
            factorize(element)

    def test_zero_scalar_part_rejected(self):
        with pytest.raises(ValueError, match="x0-free criterion"):
            factorize(d2([0.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("x0", [1e-310, -5e-324])
    def test_overflowing_scale_rejected(self, x0):
        element = d2([x0, 0.0, 0.0, 0.0])
        assert is_min_action(element)
        with pytest.raises(ValueError, match=f"finite 1/x0, got {x0!r}"):
            factorize(element)

    @given(
        st.floats(0.1, 10),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_round_trip_on_minimal(self, x0, x1, x2):
        element = d2([x0, x1, x2, x1 * x2 / x0])
        back = factorize(element).reconstruct()
        scale = float(np.max(np.abs(element.coeffs)))
        np.testing.assert_allclose(back.coeffs, element.coeffs, atol=1e-13 * max(scale, 1.0))


class TestTransform:
    def test_c2_boost_of_rest(self):
        u = AlgebraElement(TANGENT_SIGNATURE, [1.25, 0.75])
        moved = transform(c2([1.0, 0.0]), u)
        assert moved == u
        triple = decompose_c2(moved)
        assert triple == TangentTriple(17 / 8, 15 / 8, 1.0)

    def test_identity_transform(self):
        one = AlgebraElement.basis(FIBER_SIGNATURE, 0)
        assert transform(WORKED, one) == WORKED

    def test_worked_fixture_norms_preserved(self):
        u = d2([1.25, 0.75, 0.0, 0.0])
        dec = decompose_d2(transform(WORKED, u))
        assert abs(dec.tangent.ds - 6.75) <= 1e-12
        assert abs(dec.momentum.m - 0.75) <= 1e-12

    def test_boost_element_requires_unit_square(self):
        with pytest.raises(ValueError, match="e1\\*\\*2 == \\+1"):
            boost_element(EUCLIDEAN_TANGENT_SIGNATURE, 1.0)

    @given(st.lists(coeff, min_size=4, max_size=4), st.floats(-3, 3, allow_nan=False))
    def test_minus_half_invariant_plus_half_covariant(self, values, phi):
        x = d2(values)
        before = decompose_d2(x)
        after = decompose_d2(transform(x, boost_element(FIBER_SIGNATURE, phi)))
        ch, sh = math.cosh(2 * phi), math.sinh(2 * phi)
        # dt + H is twice the squared coefficient norm; a sector buried
        # four decades below it sits under coefficient rounding noise and
        # is measured against the element, not against itself
        floor = 1e-4 * max(
            before.tangent.dt + before.momentum.H,
            after.tangent.dt + after.momentum.H,
            1e-300,
        )
        tangent_scale = max(before.tangent.dt, after.tangent.dt, floor)
        momentum_scale = max(before.momentum.H, after.momentum.H, floor)
        cross_scale = max(
            math.sqrt(
                max(
                    before.momentum.H * before.tangent.dt,
                    after.momentum.H * after.tangent.dt,
                    0.0,
                )
            ),
            floor,
        )
        action_scale = max(
            before.momentum.H * before.tangent.dt,
            after.momentum.H * after.tangent.dt,
            floor * floor,
        )
        # invariants of the minus half
        assert abs(after.tangent.ds - before.tangent.ds) <= 1e-10 * tangent_scale
        assert abs(after.momentum.m - before.momentum.m) <= 1e-10 * momentum_scale
        assert abs(after.cross.c_minus_1 - before.cross.c_minus_1) <= 1e-10 * cross_scale
        assert abs(after.cross.c_minus_e12 - before.cross.c_minus_e12) <= 1e-10 * cross_scale
        assert abs(after.action_rate - before.action_rate) <= 1e-10 * action_scale
        # the plus-half pairs all rotate hyperbolically with doubled rapidity
        for got, pair, scale in (
            (after.tangent.dt, (before.tangent.dt, before.tangent.dq), tangent_scale),
            (after.tangent.dq, (before.tangent.dq, before.tangent.dt), tangent_scale),
            (after.momentum.H, (before.momentum.H, before.momentum.p), momentum_scale),
            (after.momentum.p, (before.momentum.p, before.momentum.H), momentum_scale),
            (after.cross.c_plus_1, (before.cross.c_plus_1, before.cross.c_plus_e1), cross_scale),
            (after.cross.c_plus_e1, (before.cross.c_plus_e1, before.cross.c_plus_1), cross_scale),
        ):
            assert abs(got - (ch * pair[0] + sh * pair[1])) <= 1e-10 * scale


def record_boost_residuals(x, rapidity):
    """The boost gaps read from two decomposition records, as the library once built them."""
    boosted = transform(x, boost_element(x.signature, rapidity))
    ch, sh = math.cosh(2 * rapidity), math.sinh(2 * rapidity)
    if x.signature == TANGENT_SIGNATURE:
        t0, t1 = decompose_c2(x), decompose_c2(boosted)
        return {
            "ds_dlambda": abs(t1.ds - t0.ds),
            "matrix_dt": abs(t1.dt - (ch * t0.dt + sh * t0.dq)),
            "matrix_dq": abs(t1.dq - (sh * t0.dt + ch * t0.dq)),
        }
    d0, d1 = decompose_d2(x), decompose_d2(boosted)
    t0, t1, m0, m1 = d0.tangent, d1.tangent, d0.momentum, d1.momentum
    return {
        "ds_dlambda": abs(t1.ds - t0.ds),
        "m": abs(m1.m - m0.m),
        "dS_dlambda": abs(d1.action_rate - d0.action_rate),
        "c_minus_1": abs(d1.cross.c_minus_1 - d0.cross.c_minus_1),
        "c_minus_e12": abs(d1.cross.c_minus_e12 - d0.cross.c_minus_e12),
        "matrix_dt": abs(t1.dt - (ch * t0.dt + sh * t0.dq)),
        "matrix_dq": abs(t1.dq - (sh * t0.dt + ch * t0.dq)),
        "matrix_H": abs(m1.H - (ch * m0.H + sh * m0.p)),
        "matrix_p": abs(m1.p - (sh * m0.H + ch * m0.p)),
        "matrix_c_plus_1": abs(d1.cross.c_plus_1 - (ch * d0.cross.c_plus_1 + sh * d0.cross.c_plus_e1)),
        "matrix_c_plus_e1": abs(d1.cross.c_plus_e1 - (sh * d0.cross.c_plus_1 + ch * d0.cross.c_plus_e1)),
    }


@pytest.mark.parametrize("signature", [TANGENT_SIGNATURE, FIBER_SIGNATURE])
def test_boost_residuals_have_the_keys_and_bits_of_the_record_gaps(signature):
    rng = np.random.default_rng(signature.dim)
    # the input of the replay net's `fiberalg boost ++ 2 1 1 0.5 1.0`, then random elements and rapidities
    cases = [([2.0, 1.0, 1.0, 0.5][: signature.dim], 1.0)]
    cases += [(list(rng.uniform(-10, 10, signature.dim)), float(rng.uniform(-3, 3))) for _ in range(300)]
    for coeffs, rapidity in cases:
        x = AlgebraElement(signature, coeffs)
        got, expected = boost_check(x, rapidity, 0.0)[1], record_boost_residuals(x, rapidity)
        assert [(key, value.hex()) for key, value in got.items()] == [
            (key, value.hex()) for key, value in expected.items()
        ], (coeffs, rapidity)


def payload_boost_scales(x, rapidity):
    """Each gap's scale as the CLI once read it: dt + H from its rendered before and after payloads."""
    boosted = transform(x, boost_element(x.signature, rapidity))
    before, after = (_decompose_payload(x.signature, list(y.values), 0.0) for y in (x, boosted))
    size = sum(d["tangent"]["dt_dlambda"] + d.get("momentum", {}).get("H", 0.0) for d in (before, after))
    return {key: size * size if key == "dS_dlambda" else size for key in record_boost_residuals(x, rapidity)}


@pytest.mark.parametrize("signature", [TANGENT_SIGNATURE, FIBER_SIGNATURE])
def test_boost_check_passes_where_the_payload_rule_did(signature):
    rng = np.random.default_rng(signature.dim + 7)
    # the input of the replay net's `fiberalg boost ++ 2 1 1 0.5 1.0`, then random elements and rapidities
    cases = [([2.0, 1.0, 1.0, 0.5][: signature.dim], 1.0)]
    cases += [(list(rng.uniform(-10, 10, signature.dim)), float(rng.uniform(-3, 3))) for _ in range(300)]
    verdicts = set()
    for coeffs, rapidity in cases:
        x = AlgebraElement(signature, coeffs)
        gaps, scales = record_boost_residuals(x, rapidity), payload_boost_scales(x, rapidity)
        threshold = max(gaps[key] / scales[key] for key in gaps)
        neighbours = (math.nextafter(threshold, -math.inf), math.nextafter(threshold, math.inf))
        for tol in (0.0, 1e-30, 1e-10, threshold, *neighbours):
            expected = all(gaps[key] <= tol * scales[key] for key in gaps)
            boosted, got_gaps, passed = boost_check(x, rapidity, tol)
            assert passed is expected, (coeffs, rapidity, tol)
            assert got_gaps == gaps and boosted == transform(x, boost_element(signature, rapidity))
            verdicts.add(passed)
    assert verdicts == {True, False}


def test_verdicts_are_the_same_at_every_power_of_two_scale():
    # A third of the elements are +; half the ++ ones are exactly minimal, dyadic as verify's
    # _exact_minimal_samples draws them.  j steps across the range where every nonzero
    # coefficient stays normal with 60 bits to spare: m * 2**e, m in [0.5, 1), is normal for
    # -1021 <= e <= 1024.
    rng = np.random.default_rng(23)
    elements = [c2(rng.uniform(-10, 10, 2).tolist()) for _ in range(100)]
    elements += [d2(rng.uniform(-10, 10, 4).tolist()) for _ in range(100)]
    for _ in range(100):
        x0 = float(rng.choice([-1.0, 1.0])) * 2.0 ** int(rng.integers(-3, 4))
        x1, x2 = (rng.integers(-2560, 2561, 2) / 256.0).tolist()
        elements.append(d2([x0, x1, x2, x1 * x2 / x0]))

    def verdicts(x, rapidity):
        boosted = boost_check(x, rapidity, 1e-10)[2]
        if x.signature == TANGENT_SIGNATURE:
            return boosted
        try:
            factorize(x)
        except ValueError:
            return boosted, is_min_action(x), False
        return boosted, is_min_action(x), True

    seen = set()
    for x, rapidity in zip(elements, rng.uniform(-3, 3, len(elements)).tolist()):
        base = verdicts(x, rapidity)
        exponents = [math.frexp(v)[1] for v in x.values if v]
        for j in range(-961 - min(exponents), 965 - max(exponents), 41):
            scaled = AlgebraElement(x.signature, [math.ldexp(v, j) for v in x.values])
            assert verdicts(scaled, rapidity) == base, (x.values, rapidity, j)
        seen.add(base)
    assert {(True, True, True), (True, False, False)} <= seen


class TestLiftKinematics:
    def test_worked_inversion(self):
        element = lift_kinematics(TangentTriple(11.25, 9.0), MomentumTriple(1.25, 1.0))
        np.testing.assert_allclose(element.coeffs, [2.0, 1.0, 1.0, 0.5], atol=1e-14)

    def test_rest(self):
        element = lift_kinematics(TangentTriple(1.0, 0.0), MomentumTriple(1.0, 0.0))
        np.testing.assert_allclose(element.coeffs, [1.0, 0.0, 0.0, 0.0], atol=0)

    def test_spacelike_rejected(self):
        with pytest.raises(ValueError, match="spacelike"):
            lift_kinematics(TangentTriple(2.0, 3.0), MomentumTriple(1.0, 0.0))

    def test_off_shell_rejected(self):
        with pytest.raises(ValueError, match="mass shell"):
            lift_kinematics(TangentTriple(2.0, 1.0), MomentumTriple(1.0, 2.0))

    # The element stores sector sums and differences in shared
    # coefficients, so sectors more than ~1e12 apart in scale cannot
    # round-trip at 1e-12 in float64; bounded ratios are the valid domain.
    @given(
        st.floats(0.1, 100),
        st.floats(-1, 1),
        st.floats(0.1, 100),
        st.floats(-1, 1),
    )
    def test_round_trip(self, dt, velocity, energy, momentum_fraction):
        dq = velocity * dt
        p = momentum_fraction * energy
        lifted = lift_kinematics(TangentTriple(dt, dq), MomentumTriple(energy, p))
        back = decompose_d2(lifted)
        assert abs(back.tangent.dt - dt) <= 1e-12 * dt
        assert abs(back.tangent.dq - dq) <= 1e-12 * dt
        assert abs(back.momentum.H - energy) <= 1e-12 * energy
        assert abs(back.momentum.p - p) <= 1e-12 * energy


class TestTrajectory:
    def test_rest_particle(self):
        record = trajectory_action(1.0, 0.0, 1.0, 1000)
        assert abs(record.numeric_S - (-1.0)) <= 1e-12
        assert record.analytic_S == -1.0

    def test_linear_in_span(self):
        record = trajectory_action(1.0, 0.0, 2.0, 1)
        assert record.numeric_S == -2.0
        assert record.analytic_S == -2.0

    def test_balanced_gauge(self):
        # cosh 2 phi = 5/3 and sinh 2 phi = 4/3: the tangent and momentum pairs are both
        # 0.75 * (5/3, 4/3), and ds/dlambda is the mass, like the mass norm
        phi = 0.5 * math.log(3.0)
        record = trajectory_action(0.75, phi, 6.75, 2000)
        assert abs(record.numeric_S - (-5.0625)) <= 1e-12
        element = free_particle_element(0.75, phi)
        dec = decompose_d2(element)
        for got, expected in [(dec.tangent, (1.25, 1.0, 0.75)), (dec.momentum, (1.25, 1.0, 0.75))]:
            assert all(abs(value - want) <= 1e-12 for value, want in zip(vars(got).values(), expected)), got
        assert is_min_action(element)

    @pytest.mark.parametrize("rapidity", [0.0, 0.3, 1.5])
    def test_passes_at_every_mass_from_1e_minus_150_to_1e150(self, rapidity):
        for e in range(-150, 151):
            assert trajectory_action(10.0**e, rapidity, 1.0, 1000).passed, e

    def test_verdict_is_the_same_at_every_power_of_two_mass(self):
        # j spans every normal mass, about 1e-307 to 1e308.  sqrt(mass * 4**k) is sqrt(mass) * 2**k
        # exactly, so at an even j the record is the one at mass times 2**j, bit for bit, while
        # the error is normal; far below, it rounds to a subnormal.
        rng = np.random.default_rng(31)
        for mass, rapidity in zip(rng.uniform(0.5, 2, 20).tolist(), rng.uniform(-2, 2, 20).tolist()):
            base = trajectory_action(mass, rapidity, 1.7, 1000)
            assert base.passed
            for j in range(-1020, 1022, 3):
                record = trajectory_action(math.ldexp(mass, j), rapidity, 1.7, 1000)
                assert record.passed, (mass, rapidity, j)
                if j % 2 == 0 and (record.error == 0 or record.error >= sys.float_info.min):
                    assert [math.ldexp(value, -j) for value in vars(record).values()] == list(vars(base).values())

    def test_large_step_agreement(self):
        record = trajectory_action(1.0, 0.3, 1.0, 10**6)
        assert record.error <= 1e-9

    def test_passed_holds_at_the_gate_and_fails_one_float_above(self):
        analytic = -0.75 * 6.75
        at_gate = TRAJECTORY_GATE * abs(analytic)
        above = math.nextafter(at_gate, math.inf)
        assert ActionIntegral(analytic + at_gate, analytic, at_gate).passed
        assert not ActionIntegral(analytic + above, analytic, above).passed
        # passed is a property, so the payload the CLI renders from vars() keeps three keys
        record = trajectory_action(1.3, 0.4, 1.7, 1000)
        assert record.passed
        assert list(vars(record)) == ["numeric_S", "analytic_S", "error"]
        assert not trajectory_action(1.0, 0.5, 1e-320, 5).passed

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="mass must be positive"):
            trajectory_action(0.0, 0.0, 1.0, 10)
        with pytest.raises(ValueError, match="span must be positive"):
            trajectory_action(1.0, 0.0, 0.0, 10)
        with pytest.raises(ValueError, match="steps must be"):
            trajectory_action(1.0, 0.0, 1.0, 0)
        with pytest.raises(ValueError, match="steps must be"):
            trajectory_action(1.0, 0.0, 1.0, MAX_STEPS + 1)

    def test_nan_mass_or_span_is_rejected(self):
        # NaN fails every comparison, so `mass <= 0` let it through to NaN fields.
        nan = float("nan")
        with pytest.raises(ValueError, match="^mass must be positive, got nan$"):
            trajectory_action(nan, 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="^lambda_span must be positive, got nan$"):
            trajectory_action(1.0, 0.0, nan, 5)
        with pytest.raises(ValueError, match="^mass must be positive, got nan$"):
            free_particle_element(nan, 0.0)


class TestEuclidean:
    def test_plane_rest(self):
        comps = decompose_euclidean(AlgebraElement(EUCLIDEAN_TANGENT_SIGNATURE, [1.0, 0.0]))
        assert type(comps) is EuclideanSector
        assert (comps.invariant, comps.vec_e1, comps.vec_1) == (1.0, 0.0, 1.0)

    def test_plane_worked(self):
        comps = decompose_euclidean(AlgebraElement(EUCLIDEAN_TANGENT_SIGNATURE, [2.0, 1.0]))
        assert (comps.invariant, comps.vec_e1, comps.vec_1) == (5.0, 4.0, 3.0)

    def test_plane_matches_projected(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = AlgebraElement(EUCLIDEAN_TANGENT_SIGNATURE, rng.uniform(-10, 10, 2))
            closed = decompose_euclidean(x)
            grid = decompose_euclidean_projected(x)
            assert type(grid) is EuclideanSector
            assert abs(closed.invariant - grid.invariant) <= 1e-12 * max(1.0, closed.invariant)
            assert abs(closed.vec_e1 - grid.vec_e1) <= 1e-12 * max(1.0, closed.invariant)
            assert abs(closed.vec_1 - grid.vec_1) <= 1e-12 * max(1.0, closed.invariant)

    def test_plane_rotation_invariance(self):
        x = AlgebraElement(EUCLIDEAN_TANGENT_SIGNATURE, [2.0, 1.0])
        u = AlgebraElement(EUCLIDEAN_TANGENT_SIGNATURE, [0.6, 0.8])
        rotated = decompose_euclidean(transform(x, u))
        assert abs(rotated.invariant - 5.0) <= 1e-12

    # Squares stay below the float range, where a NaN part would not equal itself.
    @given(st.one_of(st.tuples(*[st.floats(-1e150, 1e150)] * 2), st.tuples(*[st.fractions()] * 2)))
    def test_one_generator_result_is_the_two_generator_tangent(self, pair):
        a, b = pair
        zero = Fraction(0) if isinstance(a, Fraction) else 0.0
        plane = decompose_euclidean(AlgebraElement(EUCLIDEAN_TANGENT_SIGNATURE, [a, b]))
        assert plane == decompose_euclidean(AlgebraElement(EUCLIDEAN_FIBER_SIGNATURE, [a, b, zero, zero])).tangent
        triple = decompose_c2(AlgebraElement(TANGENT_SIGNATURE, [a, b]))
        assert triple == decompose_d2(AlgebraElement(FIBER_SIGNATURE, [a, b, zero, zero])).tangent

    def test_rotation_element_requires_negative_square(self):
        with pytest.raises(ValueError, match="e1\\*\\*2 == -1"):
            rotation_element(TANGENT_SIGNATURE, 1.0)

    def test_fiber_sectors_match_hand_expansion(self):
        dec = decompose_euclidean(AlgebraElement(EUCLIDEAN_FIBER_SIGNATURE, [2.0, 1.0, 1.0, 0.5]))
        for value, expected in zip(euclidean_fiber_values(dec), EUCLIDEAN_HAND_EXPANSION):
            assert abs(value - expected) <= 1e-13

    def test_fiber_exact_stays_exact(self):
        values = np.array([Fraction(2), Fraction(1), Fraction(1), Fraction(1, 2)], dtype=object)
        dec = decompose_euclidean(AlgebraElement(EUCLIDEAN_FIBER_SIGNATURE, values))
        for value, expected in zip(euclidean_fiber_values(dec), EUCLIDEAN_HAND_EXPANSION):
            assert isinstance(value, Fraction)
            assert value == Fraction(expected)

    def test_fiber_matches_projected(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            x = AlgebraElement(EUCLIDEAN_FIBER_SIGNATURE, rng.uniform(-10, 10, 4))
            closed = euclidean_fiber_values(decompose_euclidean(x))
            grid = euclidean_fiber_values(decompose_euclidean_projected(x))
            scale = max(1.0, closed[0] + closed[3])
            for a, b in zip(closed, grid):
                assert abs(a - b) <= 1e-12 * scale

    def test_fiber_large_coefficients_stay_finite(self):
        # x0 x3 = 1e160 squares past the float range; no reported component does
        x = AlgebraElement(EUCLIDEAN_FIBER_SIGNATURE, [1e80, 0.0, 0.0, 1e80])
        closed = euclidean_fiber_values(decompose_euclidean(x))
        grid = euclidean_fiber_values(decompose_euclidean_projected(x))
        assert all(math.isfinite(v) for v in closed)
        for a, b in zip(closed, grid):
            assert abs(a - b) <= 1e-12 * 4e160

    def test_component_names_are_the_parts_in_layout_order(self):
        # e1**2 == -1 moves the carriers shifted by e1 to the minus half, after the unshifted ones
        assert fiber_component_basis(TANGENT_SIGNATURE).names == ("dt", "dq", "ds")
        assert fiber_component_basis(EUCLIDEAN_TANGENT_SIGNATURE).names == ("dt", "ds", "dq")
        assert fiber_component_basis(FIBER_SIGNATURE).names == (
            "dt", "dq", "ds", "H", "p", "m", "c_plus_1", "c_plus_e1", "c_minus_1", "c_minus_e12"
        )
        assert fiber_component_basis(EUCLIDEAN_FIBER_SIGNATURE).names == (
            "dt", "ds", "dq", "H", "m", "p", "c_plus_1", "c_minus_e12", "c_minus_1", "c_plus_e1"
        )

    def test_fiber_closed_form_builds_no_component_basis(self):
        fiber_component_basis.cache_clear()
        decompose_euclidean(AlgebraElement(EUCLIDEAN_FIBER_SIGNATURE, [2.0, 1.0, 1.0, 0.5]))
        assert fiber_component_basis.cache_info().currsize == 0

    def test_fiber_rotation_invariants(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = AlgebraElement(EUCLIDEAN_FIBER_SIGNATURE, rng.uniform(-5, 5, 4))
            u = rotation_element(EUCLIDEAN_FIBER_SIGNATURE, rng.uniform(-np.pi, np.pi))
            before = decompose_euclidean(x)
            after = decompose_euclidean(transform(x, u))
            scale = max(before.tangent.invariant + before.momentum.invariant, 1e-300)
            assert abs(after.tangent.invariant - before.tangent.invariant) <= 1e-12 * scale
            assert abs(after.momentum.invariant - before.momentum.invariant) <= 1e-12 * scale
            assert abs(after.cross_invariant_1 - before.cross_invariant_1) <= 1e-12 * scale
            assert abs(after.cross_invariant_e12 - before.cross_invariant_e12) <= 1e-12 * scale

    def test_wrong_signature(self):
        with pytest.raises(ValueError, match="decompose_euclidean requires"):
            decompose_euclidean(WORKED)
        with pytest.raises(ValueError, match="decompose_euclidean_projected requires"):
            decompose_euclidean_projected(WORKED)


@pytest.mark.parametrize(
    "call, x, message",
    [
        (decompose_c2, WORKED, "decompose_c2 requires signature +, got ++"),
        (decompose_c2_projected, WORKED, "decompose_c2_projected requires signature +, got ++"),
        (decompose_d2, c2([1, 0]), "decompose_d2 requires signature ++, got +"),
        (decompose_d2_projected, c2([1, 0]), "decompose_d2_projected requires signature ++, got +"),
        (is_min_action, c2([1, 0]), "is_min_action requires signature ++, got +"),
        (factorize, c2([1, 0]), "factorize requires signature ++, got +"),
        (decompose_euclidean, WORKED, "decompose_euclidean requires signature - or -+, got ++"),
        (decompose_euclidean_projected, c2([1, 0]), "decompose_euclidean_projected requires signature - or -+, got +"),
        (
            partial(boost_check, rapidity=0.5, tol=0.0),
            AlgebraElement(Signature((1, -1)), [1, 0, 0, 0]),
            "boost_check requires signature + or ++, got +-",
        ),
        (
            partial(boost_check, rapidity=0.5, tol=0.0),
            AlgebraElement(EUCLIDEAN_TANGENT_SIGNATURE, [1, 0]),
            "boost_check requires signature + or ++, got -",
        ),
    ],
)
def test_signature_errors_name_the_call_and_every_accepted_signature(call, x, message):
    with pytest.raises(ValueError) as caught:
        call(x)
    assert str(caught.value) == message


@pytest.mark.parametrize("signature", ["+-", "--", "+++"])
def test_component_basis_without_a_table_names_the_signature(signature):
    with pytest.raises(ValueError) as caught:
        fiber_component_basis(Signature.from_string(signature))
    assert str(caught.value) == (
        f"component layout needs one generator, or two with e2**2 == +1, got signature {signature}"
    )


@pytest.mark.parametrize(
    "signature, closed_form, twin",
    [
        (TANGENT_SIGNATURE, decompose_c2, decompose_c2_projected),
        (FIBER_SIGNATURE, decompose_d2, decompose_d2_projected),
        (EUCLIDEAN_TANGENT_SIGNATURE, decompose_euclidean, decompose_euclidean_projected),
        (EUCLIDEAN_FIBER_SIGNATURE, decompose_euclidean, decompose_euclidean_projected),
    ],
    ids=["+", "++", "-", "-+"],
)
@given(values=st.lists(coeff, min_size=4, max_size=4))
def test_each_twin_returns_its_closed_form_record_type(signature, closed_form, twin, values):
    x = AlgebraElement(signature, values[: signature.dim])
    closed, projected = closed_form(x), twin(x)
    assert type(projected) is type(closed)
    assert vars(projected).keys() == vars(closed).keys()
    for field, value in vars(closed).items():
        nested = getattr(projected, field)
        assert type(nested) is type(value)
        if not isinstance(value, float):
            assert vars(nested).keys() == vars(value).keys()


def test_projected_twin_builds_no_signature_after_its_first_call(monkeypatch):
    decompose_d2_projected(WORKED)
    built = []
    post_init = Signature.__post_init__
    monkeypatch.setattr(Signature, "__post_init__", lambda self: built.append(post_init(self)))
    for _ in range(3):
        decompose_d2_projected(WORKED)
    assert built == []


class TestCausal:
    def test_timelike(self):
        assert classify_causal(TangentTriple(1.0, 0.0, 1.0)) is CausalClass.TIMELIKE

    def test_lightlike(self):
        assert classify_causal(TangentTriple(2.0, 2.0, 0.0)) is CausalClass.LIGHTLIKE

    def test_spacelike_user_triple(self):
        assert classify_causal(TangentTriple(1.0, 2.0)) is CausalClass.SPACELIKE

    def test_tolerance_band(self):
        assert classify_causal(TangentTriple(1.0, 1.0 - 1e-9), tol=1e-6) is CausalClass.LIGHTLIKE
        assert classify_causal(TangentTriple(1.0, 1.0 - 1e-2), tol=1e-6) is CausalClass.TIMELIKE

    @pytest.mark.parametrize(
        "width, element, tangent",
        [(2, c2, lambda x: decompose_c2(x)), (4, d2, lambda x: decompose_d2(x).tangent)],
        ids=["decompose_c2", "decompose_d2"],
    )
    def test_class_is_the_same_at_every_power_of_two_scale(self, width, element, tangent):
        # Half the rows put the tangent's halves at b = +-a (1 + eps), eps from 1e-9 to 1e-3, near
        # the light cone, so both sides of the tol * dt**2 band are drawn.  An element is classed
        # as its triple is at scale 1, and at 55 scales 2**j, j from -1000 to 998, where every
        # coefficient stays normal but the triple's squares leave the float range.
        rng = np.random.default_rng(17)
        rows = rng.uniform(-10, 10, (200, width))
        a = rows[:100, 0] + (rows[:100, 2] if width == 4 else 0.0)
        b = a * (1 + 10 ** rng.uniform(-9, -3, 100) * rng.choice([-1, 1], 100)) * rng.choice([-1, 1], 100)
        rows[:100, -1] = b - (rows[:100, 1] if width == 4 else 0.0)
        classes = []
        for row in rows.tolist():
            base = classify_causal(element(row))
            assert classify_causal(tangent(element(row))) is base, row
            for j in range(-1000, 1000, 37):
                scaled = [math.ldexp(v, j) for v in row]
                assert all(abs(v) >= sys.float_info.min for v in scaled), (row, j)
                assert classify_causal(element(scaled)) is base, (row, j)
            classes.append(base)
        assert {CausalClass.TIMELIKE, CausalClass.LIGHTLIKE} <= set(classes)

    def test_element_of_another_signature_is_rejected(self):
        with pytest.raises(ValueError, match="^classify_causal requires signature \\+ or \\+\\+, got -\\+$"):
            classify_causal(AlgebraElement(EUCLIDEAN_FIBER_SIGNATURE, [1.0, 0.0, 0.0, 0.0]))

    @given(st.lists(coeff, min_size=4, max_size=4))
    # dt**2 - dq**2 rounds below zero here, to -1.09e-11; the stored ds is squared.
    @example([0.0, 1.5625, 8.5625, 7.000000000001])
    def test_real_elements_never_spacelike(self, values):
        dec = decompose_d2(d2(values))
        assert classify_causal(dec.tangent) is not CausalClass.SPACELIKE
