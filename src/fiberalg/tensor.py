"""Direct product of two copies of a signed abelian group algebra.

Elements are dense coefficient grids indexed by pairs of basis subsets;
``grid[S, T]`` is the coefficient of ``e_S (x) e_T``.  The product obeys

    ``(a (x) b)(c (x) d) = ac (x) bd``

and is implemented by flattening the grid into the algebra whose
signature repeats every generator once per slot, so the same kernel that
multiplies base elements multiplies tensors.

The grid doubles as the verification oracle for the closed-form fiber
decompositions: sector components are extracted here through projector
products and a trace pairing, never through the closed forms themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Number

import numpy as np

from .algebra import (
    AlgebraElement,
    Idempotent,
    Signature,
    _check_mask,
    _coerce_coeffs,
    _zero_values,
    multiply_coeffs,
)

__all__ = [
    "TensorElement",
    "TensorProjector",
    "tensor_product",
    "square_embed",
    "tensor_multiply",
    "tensor_identity",
    "basis_pair",
    "diagonal",
    "extract",
    "diagonal_projector",
    "lift_projectors",
    "mixed_projector",
    "trace_pairing",
    "ComponentBasis",
]


@dataclass(frozen=True, eq=False)
class TensorElement:
    """Dense element of the two-slot product algebra over a base signature."""

    signature: Signature
    grid: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _coerce_coeffs(self.grid, (self.signature.dim,) * 2))

    @property
    def exact(self) -> bool:
        return self.grid.dtype == object

    def transpose(self) -> TensorElement:
        """Swap the two slots."""
        return TensorElement(self.signature, self.grid.T)

    def ravel(self) -> np.ndarray:
        """Row-major copy of the coefficients (length dim**2)."""
        return np.array(self.grid).ravel()

    def _require_same_signature(self, other: TensorElement) -> None:
        if self.signature != other.signature:
            raise ValueError(f"signature mismatch: {self.signature} vs {other.signature}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.signature == other.signature and bool(np.array_equal(self.grid, other.grid))

    def __add__(self, other: TensorElement) -> TensorElement:
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_same_signature(other)
        return TensorElement(self.signature, self.grid + other.grid)

    def __sub__(self, other: TensorElement) -> TensorElement:
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_same_signature(other)
        return TensorElement(self.signature, self.grid - other.grid)

    def __neg__(self) -> TensorElement:
        return TensorElement(self.signature, -self.grid)

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            return tensor_multiply(self, other)
        if isinstance(other, Number):
            return TensorElement(self.signature, self.grid * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Number):
            return TensorElement(self.signature, self.grid * other)
        return NotImplemented


def tensor_product(a: AlgebraElement, b: AlgebraElement) -> TensorElement:
    """The two-slot product a (x) b, a rank-one coefficient grid."""
    a._require_same_signature(b)
    return TensorElement(a.signature, np.outer(a.coeffs, b.coeffs))


def square_embed(x: AlgebraElement) -> TensorElement:
    """Embed x as x (x) x; the grid entry (S, T) is x_S * x_T."""
    return tensor_product(x, x)


def tensor_identity(signature: Signature, exact: bool = False) -> TensorElement:
    return basis_pair(signature, 0, 0, exact=exact)


def basis_pair(signature: Signature, left_mask: int, right_mask: int, exact: bool = False) -> TensorElement:
    """The basis tensor e_S (x) e_T."""
    left_mask = _check_mask(signature, left_mask)
    right_mask = _check_mask(signature, right_mask)
    values = _zero_values(signature.dim * signature.dim, exact)
    values[left_mask * signature.dim + right_mask] = Fraction(1) if exact else 1.0
    grid = np.array(values, dtype=object if exact else None).reshape(signature.dim, signature.dim)
    return TensorElement(signature, grid)


def diagonal(signature: Signature, mask: int, exact: bool = False) -> TensorElement:
    """The diagonal operator e_S (x) e_S; always squares to the identity."""
    return basis_pair(signature, mask, mask, exact=exact)


def tensor_multiply(a: TensorElement, b: TensorElement) -> TensorElement:
    """Product in the two-slot algebra, slotwise through the base rule."""
    a._require_same_signature(b)
    flat = multiply_coeffs(a.signature.doubled(), a.grid.ravel(), b.grid.ravel())
    return TensorElement(a.signature, flat.reshape(a.grid.shape))


def extract(t: TensorElement, left_mask: int, right_mask: int):
    """Raw coefficient of e_S (x) e_T."""
    left_mask = _check_mask(t.signature, left_mask)
    right_mask = _check_mask(t.signature, right_mask)
    return t.grid.item(left_mask, right_mask)


@dataclass(frozen=True, eq=False)
class TensorProjector:
    """A tensor element validated to satisfy p*p == p at construction."""

    element: TensorElement

    def __post_init__(self) -> None:
        # The two-slot algebra is the algebra of the doubled signature.
        Idempotent(AlgebraElement(self.signature.doubled(), self.element.grid.ravel()))

    @property
    def signature(self) -> Signature:
        return self.element.signature


def diagonal_projector(signature: Signature, mask: int, sign: int, exact: bool = False) -> TensorProjector:
    """The projector (1 (x) 1 + sign * e_S (x) e_S) / 2.

    Valid for every subset: the diagonal operator squares to the identity
    because the two slots contribute the same square twice.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    half = Fraction(1, 2) if exact else 0.5
    element = tensor_identity(signature, exact) * half + diagonal(signature, mask, exact) * (sign * half)
    return TensorProjector(element)


def lift_projectors(p: Idempotent, q: Idempotent) -> TensorProjector:
    """The slotwise lift p (x) q of two base idempotents."""
    if p.signature != q.signature:
        raise ValueError(f"signature mismatch: {p.signature} vs {q.signature}")
    return TensorProjector(tensor_product(p.element, q.element))


def mixed_projector(p: Idempotent, q: Idempotent) -> TensorProjector:
    """The swap-symmetric sector projector p (x) q + q (x) p.

    For a complementary pair this is idempotent because the two lifts
    annihilate each other; it is exposed as one named projector since the
    two halves are never used separately.
    """
    if p.signature != q.signature:
        raise ValueError(f"signature mismatch: {p.signature} vs {q.signature}")
    element = tensor_product(p.element, q.element) + tensor_product(q.element, p.element)
    return TensorProjector(element)


def trace_pairing(a: TensorElement, b: TensorElement):
    """Coefficient of 1 (x) 1 in a*b, the symmetric pairing of the algebra.

    On basis tensors the pairing is diagonal:
    <e_S (x) e_T, e_U (x) e_V> equals sign(S,S)*sign(T,T) when (S,T) == (U,V)
    and vanishes otherwise, which makes it the natural dual for component
    extraction.
    """
    return extract(tensor_multiply(a, b), 0, 0)


@dataclass(frozen=True, eq=False)
class ComponentBasis:
    """A trace-orthogonal family of tensors with named components.

    Component extraction solves <b_i, t> = c_i <b_i, b_i> for each basis
    tensor, which only needs a dot product against a fixed dual grid.
    Construction fails if the family is not pairwise orthogonal under the
    trace pairing, so a bad sector layout cannot silently mis-extract.
    """

    signature: Signature
    names: tuple[str, ...]
    tensors: tuple[TensorElement, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.tensors):
            raise ValueError("one name per basis tensor is required")
        # Every trace pairing <b_i, b_j> at once: the 1 (x) 1 coefficient of b_i b_j.
        grids = np.stack([t.grid.ravel() for t in self.tensors])
        gram = multiply_coeffs(self.signature.doubled(), grids[:, None], grids)[..., 0].astype(np.float64)
        scale = float(np.max(np.abs(np.diag(gram))))
        if scale == 0.0:
            raise ValueError("component basis contains a null tensor")
        off = gram - np.diag(np.diag(gram))
        if np.max(np.abs(off)) > 1e-12 * scale:
            raise ValueError("component basis is not trace-orthogonal")
        if np.min(np.abs(np.diag(gram))) <= 1e-12 * scale:
            raise ValueError("component basis contains a tensor with vanishing self-pairing")

        flat = np.stack([np.asarray(t.grid, dtype=np.float64).ravel() for t in self.tensors])
        dual = flat * self.signature.doubled().sign_table.diagonal() / np.diag(gram)[:, None]
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "_dual", dual)

    def components(self, t: TensorElement) -> dict[str, float]:
        vec = self._dual @ np.asarray(t.grid, dtype=np.float64).ravel()
        return {name: float(value) for name, value in zip(self.names, vec)}

    def components_batch(self, flat_grids: np.ndarray) -> np.ndarray:
        """Components for a batch of row-major flattened grids (N, dim**2)."""
        return flat_grids @ self._dual.T

    def reconstruction_residual(self, t: TensorElement) -> float:
        """Max coefficient gap between t and its span reconstruction."""
        flat = np.asarray(t.grid, dtype=np.float64).ravel()
        comps = self._dual @ flat
        return float(np.max(np.abs(flat - comps @ self._flat)))

    def reconstruction_residual_batch(self, flat_grids: np.ndarray) -> np.ndarray:
        comps = flat_grids @ self._dual.T
        return np.max(np.abs(flat_grids - comps @ self._flat), axis=1)
