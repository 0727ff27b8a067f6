"""Direct product of two copies of a signed abelian group algebra.

A two-slot tensor is an ordinary :class:`AlgebraElement` over the
doubled signature, which repeats every generator once per slot: the
coefficient of ``e_S (x) e_T`` sits at index ``S * dim + T``, and
:attr:`AlgebraElement.grid` shows the coefficients as a read-only
``(dim, dim)`` array with ``grid[S, T]`` that coefficient.  The product

    ``(a (x) b)(c (x) d) = ac (x) bd``

is then the algebra product of the doubled signature, so the same
kernel that multiplies base elements multiplies tensors.

The tensors double as the verification oracle for the closed-form fiber
decompositions: a :class:`ComponentBasis` reads sector components off a
tensor through the 1 (x) 1 coefficient of a product, never through the
closed forms themselves; :mod:`fiberalg.verify` measures what their span misses.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    AlgebraElement,
    Idempotent,
    Signature,
    _Record,
    _alike,
    _check_mask,
    basis_sign,
    idempotent_half,
    multiply,
    multiply_coeffs,
)

__all__ = [
    "tensor_product",
    "square_embed",
    "tensor_multiply",
    "diagonal_projector",
    "ComponentBasis",
]


# The two-slot product is the algebra product of the doubled signature.
tensor_multiply = multiply


def tensor_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The two-slot product a (x) b, a rank-one coefficient grid."""
    left, right = _alike(a, b)
    return AlgebraElement._of(a.signature.doubled(), tuple(x * y for x in left for y in right))


def square_embed(x: AlgebraElement) -> AlgebraElement:
    """Embed x as x (x) x; the grid entry (S, T) is x_S * x_T."""
    return tensor_product(x, x)


def diagonal_projector(signature: Signature, mask: int, sign: int) -> Idempotent:
    """The projector (1 (x) 1 + sign * e_S (x) e_S) / 2.

    Valid for every subset: the diagonal operator squares to the identity
    because the two slots contribute the same square twice.
    """
    mask = _check_mask(signature, mask)
    return idempotent_half(mask * (signature.dim + 1), sign, signature.doubled())


class ComponentBasis(_Record, eq=False):
    """A trace-orthogonal family of tensors with named components.

    ``signature`` is the base signature; the tensors, and every tensor
    decomposed, are elements over its doubling.  Component extraction
    solves <b_i, t> = c_i <b_i, b_i> for each basis tensor, which only
    needs a dot product against a fixed dual grid.  Construction fails if
    the family is not pairwise orthogonal under the trace pairing, so a
    bad sector layout cannot silently mis-extract.
    """

    signature: Signature
    names: tuple[str, ...]
    tensors: tuple[AlgebraElement, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.tensors):
            raise ValueError("one name per basis tensor is required")
        for t in self.tensors:
            self._require_doubled(t)
        # Every trace pairing <b_i, b_j> at once: the 1 (x) 1 coefficient of b_i b_j.
        doubled = self.signature.doubled()
        coeffs = np.stack([t.coeffs for t in self.tensors])
        gram = multiply_coeffs(doubled, coeffs[:, None], coeffs)[..., 0].astype(np.float64)
        scale = float(np.max(np.abs(np.diag(gram))))
        if scale == 0.0:
            raise ValueError("component basis contains a null tensor")
        off = gram - np.diag(np.diag(gram))
        if np.max(np.abs(off)) > 1e-12 * scale:
            raise ValueError("component basis is not trace-orthogonal")
        if np.min(np.abs(np.diag(gram))) <= 1e-12 * scale:
            raise ValueError("component basis contains a tensor with vanishing self-pairing")

        signs = [basis_sign(s, s, doubled) for s in range(doubled.dim)]
        object.__setattr__(self, "_dual", coeffs.astype(np.float64) * signs / np.diag(gram)[:, None])

    def _require_doubled(self, t: AlgebraElement) -> None:
        # + and ++ share their dims with - and -+, so no shape check catches a mix-up.
        if t.signature != self.signature.doubled():
            raise ValueError(
                f"component basis over {self.signature} needs tensors over "
                f"{self.signature.doubled()}, got {t.signature}"
            )

    def components(self, t: AlgebraElement) -> dict[str, float]:
        self._require_doubled(t)
        coeffs = t.coeffs.astype(np.float64).tolist()
        # Left to right over each dual row's nonzeros: the same bits on every host, where a gemv adds in its kernel's order.
        rows = self._dual.tolist()
        return {name: float(sum(w * coeffs[i] for i, w in enumerate(row) if w)) for name, row in zip(self.names, rows)}

    def components_batch(self, flat_grids: np.ndarray) -> np.ndarray:
        """Components for a batch of tensor coefficient rows (N, dim**2)."""
        return flat_grids @ self._dual.T
