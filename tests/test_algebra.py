"""Algebra kernel tests: product rule, idempotents, exact mode."""

import copy
import inspect
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fiberalg
from fiberalg.algebra import (
    AlgebraElement,
    Idempotent,
    Signature,
    basis_sign,
    idempotent_half,
    idempotent_pair,
    multiply,
    multiply_coeffs,
)
from fiberalg.fiber import is_min_action
from fiberalg.tensor import tensor_product

from oracles import all_signatures, reference_basis_product, reference_multiply

D2 = Signature((1, 1))
MIXED = Signature((-1, 1))

# Magnitudes below 1e-100 collapse to zero so squared terms stay out of
# the subnormal range where relative comparisons lose meaning.
coeff = st.floats(-10, 10, allow_nan=False, allow_infinity=False).map(
    lambda v: 0.0 if abs(v) < 1e-100 else v
)


def spread(rng, shape):
    """Signed values whose magnitudes spread evenly in exponent over 1e-5 to 1e5."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5, 5, shape)


def edge_values(rng, shape):
    """Finite values with signed zeros, subnormals and magnitudes whose products overflow."""
    pool = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300, 1e-160, -2.0, 3e150, -1e200, 1e300, -1.7e308]
    values = rng.uniform(-10, 10, shape)
    pick = rng.random(shape) < 0.5
    values[pick] = rng.choice(pool, int(pick.sum()))
    return values


def element(sig, values, exact=False):
    if exact:
        values = [Fraction(v) for v in values]
        return AlgebraElement(sig, np.array(values, dtype=object))
    return AlgebraElement(sig, values)


class TestSignature:
    def test_from_string(self):
        assert Signature.from_string("++") == D2
        assert Signature.from_string("-+") == MIXED
        assert Signature.from_string("m+") == MIXED
        assert Signature.from_string("p") == Signature((1,))

    def test_from_string_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown signature character"):
            Signature.from_string("+x")

    def test_rejects_bad_squares(self):
        with pytest.raises(ValueError):
            Signature((1, 2))
        with pytest.raises(ValueError):
            Signature(())

    def test_labels(self):
        assert D2.basis_labels() == ("1", "e1", "e2", "e12")
        assert Signature((1,)).basis_labels() == ("1", "e1")

    def test_dim(self):
        assert Signature((1, 1, -1)).dim == 8

    def test_doubled_is_built_once_per_squares(self):
        sig = Signature((1, -1))
        assert sig.doubled() is sig.doubled()
        assert Signature((1, -1)).doubled() is sig.doubled()
        assert sig.doubled() == Signature((1, -1, 1, -1))


    def test_doubled_sign_table_matches_reference(self):
        for squares in all_signatures():
            table = Signature(squares).doubled().sign_table
            for s in range(len(table)):
                for t in range(len(table)):
                    assert table[s, t] == reference_basis_product(s, t, squares + squares)[0]

    def test_sign_table_is_read_only_and_fresh_on_each_read(self):
        squares = (1, -1, 1)
        table = Signature(squares).sign_table
        assert table.dtype == np.int8
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = -1
        fresh = Signature(squares).sign_table
        assert fresh is not table
        assert fresh.tolist() == [[reference_basis_product(s, t, squares)[0] for t in range(8)] for s in range(8)]


class TestBasisSign:
    def test_unit_square(self):
        assert basis_sign(0b01, 0b01, D2) == 1

    def test_disjoint_supports(self):
        assert basis_sign(0b01, 0b10, D2) == 1
        assert basis_sign(0b01, 0b10, MIXED) == 1

    def test_negative_square(self):
        assert basis_sign(0b01, 0b01, MIXED) == -1

    def test_symmetry_exhaustive(self):
        for squares in all_signatures():
            sig = Signature(squares)
            for s in range(sig.dim):
                for t in range(sig.dim):
                    assert basis_sign(s, t, sig) == basis_sign(t, s, sig)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_sign(4, 0, D2)


class TestMultiply:
    def test_generators_compose(self):
        e1 = AlgebraElement.basis(D2, 0b01)
        e2 = AlgebraElement.basis(D2, 0b10)
        assert multiply(e1, e2) == AlgebraElement.basis(D2, 0b11)

    def test_identity(self):
        x = element(D2, [2, 1, 1, 0.5])
        one = AlgebraElement.basis(D2, 0)
        assert multiply(x, one) == x
        assert multiply(one, x) == x

    def test_worked_product(self):
        a = element(D2, [2, 1, 0, 0])
        b = element(D2, [2, 0, 1, 0])
        assert multiply(a, b) == element(D2, [4, 2, 2, 1])

    def test_signature_mismatch_names_both(self):
        x = element(D2, [1, 0, 0, 0])
        y = element(MIXED, [1, 0, 0, 0])
        with pytest.raises(ValueError, match=r"signature mismatch: \+\+ vs -\+"):
            multiply(x, y)

    def test_table_agreement_exhaustive(self):
        for squares in all_signatures():
            sig = Signature(squares)
            for s in range(sig.dim):
                for t in range(sig.dim):
                    product = multiply(
                        AlgebraElement.basis(sig, s) * Fraction(1),
                        AlgebraElement.basis(sig, t) * Fraction(1),
                    )
                    sign, target = reference_basis_product(s, t, squares)
                    expected = [Fraction(0)] * sig.dim
                    expected[target] = Fraction(sign)
                    assert product.exact
                    assert list(product.coeffs) == expected

    @given(st.lists(coeff, min_size=4, max_size=4), st.lists(coeff, min_size=4, max_size=4))
    def test_matches_reference_bilinear(self, a, b):
        got = multiply(element(D2, a), element(D2, b)).coeffs
        want = reference_multiply(a, b, D2.squares)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @given(
        st.lists(coeff, min_size=4, max_size=4),
        st.lists(coeff, min_size=4, max_size=4),
        st.lists(coeff, min_size=4, max_size=4),
    )
    def test_associative_and_commutative(self, a, b, c):
        for sig in (D2, MIXED):
            xa, xb, xc = element(sig, a), element(sig, b), element(sig, c)
            left = multiply(multiply(xa, xb), xc)
            right = multiply(xa, multiply(xb, xc))
            scale = max(1.0, float(np.max(np.abs(left.coeffs))))
            np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-13 * scale)
            np.testing.assert_allclose(
                multiply(xa, xb).coeffs, multiply(xb, xa).coeffs, atol=1e-13 * scale
            )

    def test_coeffs_batches_match_reference(self):
        rng = np.random.default_rng(3)
        for squares in all_signatures():
            sig = Signature(squares)
            # Integer values keep every product exact, so rows compare equal.
            a = rng.integers(-4, 5, (5, sig.dim)).astype(float)
            b = rng.integers(-4, 5, (5, sig.dim)).astype(float)
            cases = (
                (multiply_coeffs(sig, a, b), list(zip(a, b))),
                (multiply_coeffs(sig, a, b[0]), [(row, b[0]) for row in a]),
                (multiply_coeffs(sig, a[0], b), [(a[0], row) for row in b]),
                (multiply_coeffs(sig, a.astype(int), b[0].astype(int)), [(row, b[0]) for row in a]),
            )
            for got, pairs in cases:
                assert got.shape == (5, sig.dim)
                assert got.dtype == np.float64
                for row, (x, y) in zip(got, pairs):
                    assert list(row) == reference_multiply(list(x), list(y), squares)

    def test_coeffs_exact_batch_stays_exact(self):
        sig = Signature((1, -1, 1))
        a = np.array([[Fraction(i + s + 1, 3) for s in range(8)] for i in range(3)], dtype=object)
        b = np.array([[Fraction(i - s, 5) for s in range(8)] for i in range(3)], dtype=object)
        stacked = multiply_coeffs(sig, a[:, None, :], b[0])
        assert stacked.shape == (3, 1, 8)
        cases = (
            (multiply_coeffs(sig, a, b), list(zip(a, b))),
            (multiply_coeffs(sig, a, b[0]), [(row, b[0]) for row in a]),
            (multiply_coeffs(sig, b[0], a), [(b[0], row) for row in a]),
            (stacked.reshape(3, 8), [(row, b[0]) for row in a]),
        )
        for got, pairs in cases:
            assert got.dtype == object
            for row, (x, y) in zip(got, pairs):
                assert all(isinstance(c, Fraction) for c in row)
                assert list(row) == reference_multiply(list(x), list(y), sig.squares)

    def test_coeffs_one_side_fixed_rows_have_the_single_product_bits(self):
        rng = np.random.default_rng(5)
        for squares in all_signatures():
            sig = Signature(squares)
            a = spread(rng, (20, sig.dim))
            f = spread(rng, sig.dim)
            cases = (
                (multiply_coeffs(sig, a, f), [(x, f) for x in a]),
                (multiply_coeffs(sig, f, a), [(f, x) for x in a]),
                (multiply_coeffs(sig, a[:, None], f).reshape(a.shape), [(x, f) for x in a]),
                (multiply_coeffs(sig, f, a[:, None]).reshape(a.shape), [(f, x) for x in a]),
            )
            for got, pairs in cases:
                for row, (x, y) in zip(got, pairs):
                    single = multiply(AlgebraElement(sig, x.tolist()), AlgebraElement(sig, y.tolist()))
                    assert row.tobytes() == single.coeffs.tobytes()

    def test_single_product_holds_no_table(self):
        # dim 256: a dim x dim table of int64 partner indices would be 512 KiB.
        sig = Signature.from_string("+-+-").doubled()
        rng = np.random.default_rng(13)
        a, b = (AlgebraElement(sig, rng.uniform(-10, 10, sig.dim).tolist()) for _ in range(2))
        tracemalloc.start()
        try:
            multiply(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_batch_product_holds_no_table(self):
        # Doubled signature of six generators: dim 4096, where a dim x dim
        # table is 32 MiB of int16 partner indices or 16 MiB of int8 signs.
        sig = Signature.from_string("+-+-+-").doubled()
        a, b = np.random.default_rng(23).uniform(-10, 10, (2, 2, sig.dim))
        tracemalloc.start()
        try:
            multiply_coeffs(sig, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("base", ["+", "++", "-", "-+"])
    def test_coeffs_doubled_paper_rows_have_the_single_product_bits(self, base):
        sig = Signature.from_string(base).doubled()
        rng = np.random.default_rng(29)
        a, b = spread(rng, (6, sig.dim)), spread(rng, (6, sig.dim))
        a[:, 1] = 0.0
        stacked = multiply_coeffs(sig, a[:3, None], b[0])
        assert stacked.shape == (3, 1, sig.dim)
        cases = (
            (multiply_coeffs(sig, a, b), list(zip(a, b))),
            (stacked.reshape(3, sig.dim), [(x, b[0]) for x in a[:3]]),
        )
        for got, pairs in cases:
            for row, (x, y) in zip(got, pairs):
                single = multiply(AlgebraElement(sig, x.tolist()), AlgebraElement(sig, y.tolist()))
                assert row.tobytes() == single.coeffs.tobytes()

    def test_coeffs_nan_met_by_a_negative_sign_differs_at_most_in_its_sign_bit(self):
        # e1 squares to -1: b[1] meets a[1] with a negative sign in out[0],
        # and a[0] with a positive one in out[1].
        sig = Signature.from_string("-+").doubled()
        a, b = np.random.default_rng(31).uniform(-10, 10, (2, sig.dim))
        a[2:] = 0.0
        b[1] = np.nan
        single = multiply(AlgebraElement(sig, a.tolist()), AlgebraElement(sig, b.tolist())).coeffs
        row = multiply_coeffs(sig, a, b)
        nan = np.isnan(single)
        assert np.flatnonzero(nan).tolist() == [0, 1]
        assert np.array_equal(np.isnan(row), nan)
        flipped = row.view(np.uint64) ^ single.view(np.uint64)
        assert not flipped[~nan].any()
        assert set(flipped[nan].tolist()) <= {0, 1 << 63}

    def test_coeffs_batch_row_matches_single_product_bits(self):
        rng = np.random.default_rng(7)
        for squares in all_signatures():
            sig = Signature(squares)
            a = rng.uniform(-10, 10, (6, sig.dim))
            b = rng.uniform(-10, 10, (6, sig.dim))
            got = multiply_coeffs(sig, a, b)
            for row, x, y in zip(got, a, b):
                assert row.tobytes() == multiply_coeffs(sig, x, y).tobytes()

    def test_single_product_has_the_bits_of_its_batch_row(self):
        rng = np.random.default_rng(17)
        overflowed = 0
        for n in range(1, 9):
            sig = Signature(tuple(int(v) for v in rng.choice([-1, 1], n)))
            a, b = edge_values(rng, (3, sig.dim)), edge_values(rng, (3, sig.dim))
            a[0] = 0.0
            # The batch skips only zero columns of a; a zero coefficient
            # elsewhere would meet the inf there as 0 * inf = NaN.
            a[:, -1] = [0.0, -0.0, 0.0]
            a[1, :-1][a[1, :-1] == 0] = 1.0
            b[1, 0] = np.inf
            with np.errstate(all="ignore"):
                batch = multiply_coeffs(sig, a, b)
                for row, x, y in zip(batch, a, b):
                    single = multiply(AlgebraElement(sig, x.tolist()), AlgebraElement(sig, y.tolist()))
                    assert single.coeffs.tobytes() == row.tobytes()
                    assert multiply_coeffs(sig, x, y).tobytes() == row.tobytes()
            overflowed += int(np.isinf(batch).sum())
        assert overflowed

    def test_exact_single_product_equals_its_batch_row(self):
        rng = np.random.default_rng(19)
        for n in range(1, 5):
            sig = Signature(tuple(int(v) for v in rng.choice([-1, 1], n)))
            a, b = (
                np.array([[Fraction(int(v), 7) for v in row] for row in rng.integers(-3, 4, (3, sig.dim))], dtype=object)
                for _ in range(2)
            )
            a[:, 0] = Fraction(1, 3)
            batch = multiply_coeffs(sig, a, b)
            for row, x, y in zip(batch, a, b):
                single = multiply(AlgebraElement(sig, list(x)), AlgebraElement(sig, list(y)))
                assert single.exact and all(isinstance(v, Fraction) for v in single.values)
                assert list(single.values) == list(row) == reference_multiply(list(x), list(y), sig.squares)

    def test_coeffs_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="expected 4 coefficients"):
            multiply_coeffs(D2, np.zeros((2, 4)), np.zeros(3))

    def test_exact_stays_exact(self):
        x = element(D2, [2, 1, 1, Fraction(1, 2)], exact=True)
        product = multiply(x, x)
        assert product.exact
        assert all(isinstance(c, Fraction) for c in product.coeffs)


class TestElementArithmetic:
    def test_scalar_is_all_exact_or_all_float(self):
        # A Fraction value makes a scalar exact; times Fraction(1), a float one is promoted.
        for x, want in (
            (AlgebraElement.scalar(D2, 0.5) * Fraction(1), Fraction(1, 2)),
            (AlgebraElement.scalar(D2, Fraction(1, 2)), Fraction(1, 2)),
            (AlgebraElement.scalar(D2, 2) * Fraction(1), Fraction(2)),
            (AlgebraElement.scalar(D2, Fraction(1, 2)) * Fraction(1), Fraction(1, 2)),
        ):
            assert x.exact
            assert x.values == (want, 0, 0, 0)
            assert all(type(v) is Fraction for v in x.values)
        for value in (0.5, 2, np.float64(0.5)):
            x = AlgebraElement.scalar(D2, value)
            assert not x.exact
            assert x.values == (float(value), 0.0, 0.0, 0.0)
            assert all(type(v) is float for v in x.values)

    def test_componentwise_ops(self):
        x = element(D2, [1, 2, 3, 4])
        y = element(D2, [4, 3, 2, 1])
        assert x + y == element(D2, [5, 5, 5, 5])
        assert x - y == element(D2, [-3, -1, 1, 3])
        assert 2 * x == element(D2, [2, 4, 6, 8])
        assert x / 2 == element(D2, [0.5, 1, 1.5, 2])
        assert -x == element(D2, [-1, -2, -3, -4])

    def test_mul_operator_is_algebra_product(self):
        e1 = AlgebraElement.basis(D2, 0b01)
        e2 = AlgebraElement.basis(D2, 0b10)
        assert e1 * e2 == AlgebraElement.basis(D2, 0b11)

    def test_coeffs_are_read_only(self):
        x = element(D2, [1, 2, 3, 4])
        with pytest.raises(ValueError):
            x.coeffs[0] = 7.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="expected 4 coefficients"):
            element(D2, [1, 2, 3])

    def test_str(self):
        assert str(element(D2, [2, 0, 0, 0.5])) == "2.0 + 0.5*e12"
        assert str(AlgebraElement.zero(D2)) == "0"


EXACT = AlgebraElement(D2, [Fraction(1, 3), 1, 2, Fraction(-5, 7)])
FLOAT = AlgebraElement(D2, [0.1, 0.2, -0.3, 1e-300])

# Every route into an element with an exact side in it.
EXACT_ROUTES = {
    "mixed list": lambda: AlgebraElement(D2, [Fraction(1, 2), 0.0, 0.25, 0]),
    "mixed object array": lambda: AlgebraElement(D2, np.array([Fraction(1, 2), 0.1, 2, -0.0], dtype=object)),
    "float + exact": lambda: FLOAT + EXACT,
    "exact - float": lambda: EXACT - FLOAT,
    "float * Fraction": lambda: FLOAT * Fraction(1, 3),
    "Fraction * float": lambda: Fraction(1, 3) * FLOAT,
    "float / Fraction": lambda: FLOAT / Fraction(1, 3),
    "exact * float scale": lambda: EXACT * 0.1,
    "multiply exact, float": lambda: multiply(EXACT, FLOAT),
    "multiply float, exact": lambda: multiply(FLOAT, EXACT),
    "tensor_product": lambda: tensor_product(EXACT, FLOAT),
    "exact zero times exact": lambda: multiply(AlgebraElement.zero(D2) * Fraction(1), EXACT),
    "exact idempotent_half": lambda: Idempotent(idempotent_half(0b10, -1, D2).element * Fraction(1)).element,
}


class TestExactness:
    @pytest.mark.parametrize("route", EXACT_ROUTES)
    def test_exact_means_every_value_is_a_fraction(self, route):
        x = EXACT_ROUTES[route]()
        assert x.exact
        assert x.exact == all(type(v) is Fraction for v in x.values)

    def test_float_side_is_promoted_without_rounding(self):
        promoted = AlgebraElement(D2, [Fraction(v) for v in FLOAT.values])
        assert FLOAT + EXACT == promoted + EXACT
        assert multiply(FLOAT, EXACT) == multiply(promoted, EXACT)
        assert FLOAT * Fraction(1, 3) == promoted * Fraction(1, 3)

    def test_no_public_callable_takes_an_exact_parameter(self):
        # Exactness comes from the values alone, never from a flag.
        # The public names and the methods of each public class, AlgebraElement's classmethods among them.
        callables = [getattr(fiberalg, name) for name in fiberalg.__all__]
        for cls in [c for c in callables if isinstance(c, type)]:
            callables += [getattr(cls, name) for name in vars(cls) if not name.startswith("_")]
        checked = 0
        for target in callables:
            if callable(target) and not isinstance(target, type):
                assert "exact" not in inspect.signature(target).parameters, target
                checked += 1
        # The count of the public surface: a callable added or removed shows up here.
        assert checked == 39

    @pytest.mark.parametrize("x", [FLOAT, EXACT], ids=["float", "exact"])
    def test_pickle_and_deepcopy_round_trip(self, x):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert y == x
            assert y.exact == x.exact
            assert [type(v) for v in y.values] == [type(v) for v in x.values]


def test_element_assignment_and_deletion_raise_attribute_error():
    x = AlgebraElement(D2, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(AttributeError, match="immutable"):
        x.values = (0.0,) * 4
    with pytest.raises(AttributeError, match="immutable"):
        del x.values
    assert x.values == (1.0, 2.0, 3.0, 4.0)


class TestNormSquared:
    def test_bits_of_numpy_sum(self):
        rng = np.random.default_rng(23)
        x = spread(rng, (100_000, 4))
        want = np.sum(x * x, axis=1)
        got = np.array([AlgebraElement(D2, row).norm_squared() for row in x.tolist()])
        assert got.tobytes() == want.tobytes()
        for row, value in zip(x[:100], got):
            assert value.tobytes() == (row * row).sum().tobytes()

    def test_bits_of_numpy_sum_at_every_dim(self):
        # One left-to-right sum at every dim (cumsum's order); numpy's own sum
        # takes that order below eight values and goes pairwise above.
        rng = np.random.default_rng(29)
        for n in range(1, 11):
            sig = Signature((1,) * n)
            for row in spread(rng, (20, sig.dim)):
                got = AlgebraElement(sig, row.tolist()).norm_squared()
                assert type(got) is float
                assert np.float64(got).tobytes() == np.cumsum(row * row)[-1].tobytes()
                if sig.dim < 8:
                    assert np.float64(got).tobytes() == (row * row).sum().tobytes()
                exact = AlgebraElement(sig, row.tolist()) * Fraction(1)
                assert exact.norm_squared() == sum(Fraction(v) ** 2 for v in row.tolist())
                assert type(exact.norm_squared()) is Fraction

    def test_min_action_at_its_tolerance_boundary(self):
        rng = np.random.default_rng(31)
        x = spread(rng, (20_000, 4))
        gap = np.abs(x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2])
        norm = np.sum(x * x, axis=1)
        boundary = gap / norm
        for tol in (np.nextafter(boundary, 0), boundary, np.nextafter(boundary, np.inf)):
            want = gap <= tol * norm
            got = [is_min_action(AlgebraElement(D2, row), t) for row, t in zip(x.tolist(), tol.tolist())]
            assert got == want.tolist()


class TestIdempotents:
    def test_half_projector(self):
        p = idempotent_half(0b10, +1, D2)
        assert p.element == element(D2, [0.5, 0, 0.5, 0])

    def test_pair_completeness_and_annihilation_exact(self):
        for squares in all_signatures():
            sig = Signature(squares)
            one = AlgebraElement.basis(sig, 0) * Fraction(1)
            zero = AlgebraElement.zero(sig) * Fraction(1)
            assert one.exact and zero.exact
            for mask in range(sig.dim):
                if basis_sign(mask, mask, sig) != 1:
                    continue
                plus, minus = (Idempotent(p.element * Fraction(1)) for p in idempotent_pair(mask, sig))
                assert plus.element.exact and minus.element.exact
                assert plus.element + minus.element == one
                assert multiply(plus.element, minus.element) == zero
                assert multiply(plus.element, plus.element) == plus.element

    def test_negative_square_rejected(self):
        with pytest.raises(ValueError, match="squares to -1"):
            idempotent_half(0b01, +1, MIXED)

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError, match="not idempotent"):
            Idempotent(element(D2, [0.5, 0.5, 0.5, 0.5]))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign must be"):
            idempotent_half(0b10, 2, D2)


class TestRightProject:
    def test_plus_projection_collapses_to_ideal(self):
        x = element(D2, [2, 1, 1, 0.5])
        plus, minus = idempotent_pair(0b10, D2)
        # x P+2 = [(x0+x2) + (x1+x3) e1] P+2, frozen by hand expansion
        assert multiply(x, plus.element) == element(D2, [1.5, 0.75, 1.5, 0.75])
        assert multiply(x, minus.element) == element(D2, [0.5, 0.25, -0.5, -0.25])

    def test_identity_projects_to_projector(self):
        one = AlgebraElement.basis(D2, 0)
        plus, _ = idempotent_pair(0b10, D2)
        assert multiply(one, plus.element) == plus.element

    @given(st.lists(coeff, min_size=4, max_size=4))
    def test_projection_completeness(self, values):
        x = element(D2, values)
        plus, minus = idempotent_pair(0b10, D2)
        total = multiply(x, plus.element) + multiply(x, minus.element)
        np.testing.assert_allclose(total.coeffs, x.coeffs, atol=1e-13)
