"""Product algebra tests: tensors over the doubled signature, projectors, trace extraction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiberalg.algebra import AlgebraElement, Idempotent, Signature, idempotent_pair, multiply
from fiberalg.fiber import _fiber_sectors, fiber_component_basis
from fiberalg.tensor import (
    ComponentBasis,
    diagonal_projector,
    square_embed,
    tensor_multiply,
    tensor_product,
)
from test_verify import span_gap

C2 = Signature((1,))
D2 = Signature((1, 1))
E2 = Signature((-1,))

coeff = st.floats(-10, 10, allow_nan=False, allow_infinity=False).map(
    lambda v: 0.0 if abs(v) < 1e-100 else v
)


class TestEmbed:
    def test_outer_grid(self):
        x = AlgebraElement(C2, [2.0, 1.0])
        np.testing.assert_array_equal(square_embed(x).grid, [[4.0, 2.0], [2.0, 1.0]])

    def test_two_slot_product_grid(self):
        a = AlgebraElement(C2, [1.0, 2.0])
        b = AlgebraElement(C2, [3.0, 4.0])
        np.testing.assert_array_equal(tensor_product(a, b).grid, [[3.0, 4.0], [6.0, 8.0]])

    def test_ravel_is_row_major(self):
        t = tensor_product(AlgebraElement(C2, [1.0, 2.0]), AlgebraElement(C2, [3.0, 4.0]))
        np.testing.assert_array_equal(t.coeffs, [3.0, 4.0, 6.0, 8.0])

    def test_identity_embeds_to_identity(self):
        one = AlgebraElement.basis(C2, 0)
        assert square_embed(one) == AlgebraElement.basis(C2.doubled(), 0)

    @given(st.lists(coeff, min_size=2, max_size=2))
    def test_swap_symmetry(self, values):
        t = square_embed(AlgebraElement(C2, values))
        np.testing.assert_array_equal(t.grid, t.grid.T)

    @given(st.lists(coeff, min_size=2, max_size=2), coeff)
    def test_scaling_is_quadratic(self, values, alpha):
        x = AlgebraElement(C2, values)
        left = square_embed(alpha * x)
        right = alpha * (alpha * square_embed(x))
        np.testing.assert_allclose(left.grid, right.grid, atol=1e-10)


class TestTensorMultiply:
    def test_diagonal_times_slot(self):
        # (e (x) e)(1 (x) e) = e (x) 1 when e squares to +1; e_S (x) e_T sits at S * 2 + T
        e_e, one_e, e_one = (AlgebraElement.basis(C2.doubled(), i) for i in (3, 1, 2))
        assert tensor_multiply(e_e, one_e) == e_one

    def test_identity(self):
        t = square_embed(AlgebraElement(C2, [2.0, 1.0]))
        assert tensor_multiply(AlgebraElement.basis(C2.doubled(), 0), t) == t

    def test_homomorphism_worked_pair(self):
        x = AlgebraElement(C2, [2.0, 1.0])
        u = AlgebraElement(C2, [1.25, 0.75])
        left = tensor_multiply(square_embed(x), square_embed(u))
        right = square_embed(multiply(x, u))
        np.testing.assert_allclose(left.grid, right.grid, atol=1e-12)

    def test_homomorphism_sweep(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(10000):
            x = AlgebraElement(D2, rng.uniform(-10, 10, 4))
            u = AlgebraElement(D2, rng.uniform(-10, 10, 4))
            left = tensor_multiply(square_embed(x), square_embed(u))
            right = square_embed(multiply(x, u))
            scale = max(1.0, float(np.max(np.abs(right.grid))))
            worst = max(worst, float(np.max(np.abs(left.grid - right.grid))) / scale)
        assert worst <= 1e-12

    def test_slotwise_signs(self):
        # (e1 (x) e1)(e1 (x) 1) = e1^2 (x) e1 = -(1 (x) e1) when e1^2 = -1
        e_e, e_one, one_e = (AlgebraElement.basis(E2.doubled(), i) for i in (3, 2, 1))
        assert tensor_multiply(e_e, e_one) == -1 * one_e

    def test_signature_mismatch(self):
        with pytest.raises(ValueError, match="signature mismatch"):
            tensor_multiply(AlgebraElement.basis(C2.doubled(), 0), AlgebraElement.basis(E2.doubled(), 0))

    def test_exact_grid_multiply(self):
        half = Fraction(1, 2)
        coeffs = np.array([half, Fraction(0), Fraction(0), half], dtype=object)
        t = AlgebraElement(C2.doubled(), coeffs)
        square = tensor_multiply(t, t)
        assert square.exact
        assert square.grid[0][0] == Fraction(1, 2)


class TestExtract:
    def test_embedded_coefficient(self):
        t = square_embed(AlgebraElement(C2, [2.0, 1.0]))
        assert t.grid[0, 1] == 2.0
        assert t.grid[1, 1] == 1.0

    def test_identity_coefficient(self):
        assert AlgebraElement.basis(C2.doubled(), 0).grid[0, 0] == 1.0

    def test_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            AlgebraElement.basis(C2.doubled(), 4)


class TestGrid:
    @pytest.mark.parametrize("squares", [(1,), (1, 1), (-1,), (-1, 1)], ids=str)
    def test_basis_pair_is_one_hot(self, squares):
        sig = Signature(squares)
        for s in range(sig.dim):
            for t in range(sig.dim):
                expected = np.zeros((sig.dim, sig.dim))
                expected[s, t] = 1.0
                np.testing.assert_array_equal(AlgebraElement.basis(sig.doubled(), s * sig.dim + t).grid, expected)

    def test_read_only(self):
        grid = square_embed(AlgebraElement(C2, [2.0, 1.0])).grid
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 5.0

    @pytest.mark.parametrize("squares", [(1,), (1, -1), (1, 1, -1)], ids=str)
    def test_needs_doubled_signature(self, squares):
        sig = Signature(squares)
        with pytest.raises(ValueError, match="doubled signature"):
            AlgebraElement.basis(sig, 0).grid

    def test_exact_embed_stays_exact(self):
        x = AlgebraElement(C2, np.array([Fraction(2), Fraction(1, 3)], dtype=object))
        square = tensor_multiply(square_embed(x), square_embed(x))
        assert square.grid.dtype == object
        # x**2 = 37/9 + (4/3) e, and (x (x) x)**2 = x**2 (x) x**2
        assert square.grid.tolist() == [
            [Fraction(1369, 81), Fraction(148, 27)],
            [Fraction(148, 27), Fraction(16, 9)],
        ]


class TestProjectors:
    def test_diagonal_projector_idempotent(self):
        for sig in (C2, D2, E2):
            for sign in (+1, -1):
                p = diagonal_projector(sig, 1, sign)
                assert tensor_multiply(p.element, p.element) == p.element

    def test_diagonal_pair_completeness(self):
        # Times Fraction(1), the float projectors are promoted with no rounding.
        plus = diagonal_projector(D2, 1, +1).element * Fraction(1)
        minus = diagonal_projector(D2, 1, -1).element * Fraction(1)
        assert plus + minus == AlgebraElement.basis(D2.doubled(), 0) * Fraction(1)
        product = tensor_multiply(plus, minus)
        assert product.exact
        assert not np.any(product.grid != 0)

    def test_lifted_pair_idempotent(self):
        plus2, minus2 = (p.element for p in idempotent_pair(0b10, D2))
        for p, q in ((plus2, plus2), (plus2, minus2), (minus2, minus2)):
            lifted = Idempotent(tensor_product(p, q))
            assert isinstance(lifted, Idempotent)

    def test_embed_splits_through_lifted_projectors(self):
        # (x (x) x)(p (x) p) = (xp) (x) (xp)
        x = AlgebraElement(D2, [2.0, 1.0, 1.0, 0.5])
        plus2, _ = (p.element for p in idempotent_pair(0b10, D2))
        left = tensor_multiply(square_embed(x), tensor_product(plus2, plus2))
        right = square_embed(multiply(x, plus2))
        np.testing.assert_allclose(left.grid, right.grid, atol=1e-13)

    def test_sector_family_resolves_identity(self):
        # The sector projectors of fiber._fiber_sectors, in Fractions: they sum
        # to 1 (x) 1, annihilate pairwise and so are each idempotent.
        plus2, minus2 = (p.element * Fraction(1) for p in idempotent_pair(0b10, D2))
        sectors = [
            tensor_product(plus2, plus2),
            tensor_product(plus2, minus2) + tensor_product(minus2, plus2),
            tensor_product(minus2, minus2),
        ]
        total = sectors[0] + sectors[1] + sectors[2]
        assert total.exact
        assert total == AlgebraElement.basis(D2.doubled(), 0) * Fraction(1)
        for i in range(3):
            for j in range(i + 1, 3):
                product = tensor_multiply(sectors[i], sectors[j])
                assert not np.any(product.grid != 0)
        for sector in sectors:
            assert Idempotent(sector).element == sector
        assert [s * Fraction(1) for s in _fiber_sectors(D2)] == sectors

    def test_mixed_projector_is_single_idempotent(self):
        plus2, minus2 = (p.element for p in idempotent_pair(0b10, D2))
        q = tensor_product(plus2, minus2) + tensor_product(minus2, plus2)
        assert tensor_multiply(q, q) == q

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError, match="not idempotent"):
            Idempotent(AlgebraElement.basis(D2.doubled(), 1))


class TestTracePairing:
    def test_identity_pairing_reads_scalar_slot(self):
        t = square_embed(AlgebraElement(C2, [2.0, 1.0]))
        assert multiply(AlgebraElement.basis(C2.doubled(), 0), t).values[0] == t.grid[0, 0]

    def test_basis_orthogonality(self):
        for sig in (C2, E2):
            for s in range(sig.dim):
                for t in range(sig.dim):
                    left = AlgebraElement.basis(sig.doubled(), s * sig.dim + s)
                    right = AlgebraElement.basis(sig.doubled(), t * sig.dim + t)
                    value = multiply(left, right).values[0]
                    if s == t:
                        assert value in (1.0, -1.0)
                    else:
                        assert value == 0.0


class TestComponentBasis:
    def test_rejects_non_orthogonal_family(self):
        family = (AlgebraElement.basis(D2.doubled(), 0), diagonal_projector(D2, 1, +1).element)
        with pytest.raises(ValueError, match="not trace-orthogonal"):
            ComponentBasis(D2, ("a", "b"), family)

    def test_rejects_null_tensor(self):
        zero = AlgebraElement(D2.doubled(), np.zeros(16))
        with pytest.raises(ValueError, match="null tensor"):
            ComponentBasis(D2, ("zero",), (zero,))

    def test_rejects_other_signature(self):
        # + and - (++ and -+) share their dims; only the signature tells them apart
        for base, other in ((C2, E2), (D2, Signature((-1, 1)))):
            basis = fiber_component_basis(base)
            values = np.arange(1.0, other.dim + 1)
            t = square_embed(AlgebraElement(other, values))
            with pytest.raises(ValueError, match="needs tensors over"):
                basis.components(t)
            # A batch row carries no signature: it is read as a tensor over the
            # basis's own doubling, whose x (x) x has the same coefficients.
            own = square_embed(AlgebraElement(base, values))
            flat = t.coeffs[None, :]
            components = basis.components_batch(flat)
            np.testing.assert_array_equal(components, basis.components_batch(own.coeffs[None, :]))
            assert span_gap(basis, flat).tolist() == [0.0]
        with pytest.raises(ValueError, match="needs tensors over"):
            ComponentBasis(C2, ("plus",), (diagonal_projector(E2, 1, +1).element,))

    def test_recovers_known_combination(self):
        plus = diagonal_projector(C2, 1, +1).element
        minus = diagonal_projector(C2, 1, -1).element
        family = ComponentBasis(C2, ("plus", "minus"), (plus, minus))
        target = 3.0 * plus + (-2.0) * minus
        comps = family.components(target)
        assert comps == {"plus": 3.0, "minus": -2.0}
        assert span_gap(family, target.coeffs[None, :]).tolist() == [0.0]

    def test_residual_measures_what_the_span_misses(self):
        plus = diagonal_projector(C2, 1, +1).element
        family = ComponentBasis(C2, ("plus",), (plus,))
        # 1 (x) e is orthogonal to the plus projector, so none of it is reconstructed
        flat = (3.0 * plus + 2.0 * AlgebraElement.basis(C2.doubled(), 1)).coeffs[None, :]
        assert span_gap(family, flat).tolist() == [2.0]

    def test_batch_matches_scalar_path(self):
        plus = diagonal_projector(C2, 1, +1).element
        minus = diagonal_projector(C2, 1, -1).element
        family = ComponentBasis(C2, ("plus", "minus"), (plus, minus))
        rng = np.random.default_rng(5)
        x = rng.uniform(-10, 10, (50, 2))
        flats = np.einsum("ni,nj->nij", x, x).reshape(50, 4)
        batch = family.components_batch(flats)
        for row, values in zip(x, batch):
            single = family.components(square_embed(AlgebraElement(C2, row)))
            np.testing.assert_allclose(values, [single["plus"], single["minus"]], atol=1e-13)
