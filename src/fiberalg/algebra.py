"""Signed abelian group algebras over the reals.

A :class:`Signature` lists the square (+1 or -1) of each commuting
generator ``e_i``.  Basis elements are indexed by subset bitmask: bit
``i`` of the index selects generator ``e_i``, the empty subset is the
multiplicative identity, and the algebra dimension is ``2**n`` for ``n``
generators.  Because the generators commute, the product rule collapses
to

    ``e_S * e_T = basis_sign(S, T) * e_(S xor T)``

where the sign multiplies the squares of the generators shared by the
two subsets: -1 when an odd number of them square to -1.  ``_odd``
states that parity once; the sign table, the signs of the batch product
and the single product derive from it.

An element is its signature and its values: all Python floats, or all
:class:`fractions.Fraction` values, which the test suite uses to check
projector identities without any rounding.  The values alone decide
exactness, and :func:`_held` is the one rule on every route in: a
``Fraction`` or an ``object`` array in the input makes the values exact,
and an exact operand promotes a float one with no rounding.  The
constructors build floats (a ``Fraction`` value makes ``scalar`` exact);
an exact basis element or projector is the float one times
``Fraction(1)``.  Single elements never touch numpy.  The ``coeffs`` array
and the sign table are built with numpy on each read and cached nowhere;
the batch product, :func:`multiply_coeffs`, holds no table.

:class:`Signature`, :class:`Idempotent` and the other modules' results are frozen
records on :class:`_Record`, which generates no code and needs neither ``dataclasses``
nor ``inspect``; ``dataclasses.fields``, ``asdict`` and ``replace`` do not apply.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache
from numbers import Number
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Signature",
    "AlgebraElement",
    "Idempotent",
    "basis_sign",
    "multiply",
    "multiply_coeffs",
    "idempotent_half",
    "idempotent_pair",
]

# Absolute slack allowed when checking p*p == p on float coefficients.
IDEMPOTENT_ATOL = 1e-14
# The most generators of a verify sweep or a ``decompose --labels`` list.  verify's embed sweeps
# multiply over the doubled signature, dim 4**n, two rows a block at least and with no table, so
# the limit bounds time: on a two-core Xeon one product of 8 rows took 0.5 s at six generators,
# and one of four rows 8.6 s at seven.
MAX_GENERATORS = 6


class _Record:
    """A frozen record: the fields are the class annotations, in order; a default is a class attribute.

    ``vars(record)`` is its own dict of the fields: read it, never write it.  A ``__post_init__`` may
    cache private values there too (``ComponentBasis`` holds ``_dual``), after the fields.
    Records compare and hash by exact type and fields, or by identity if declared ``eq=False``;
    nothing is generated.
    """

    def __init_subclass__(cls, eq: bool = True) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords or defaults; ``TypeError`` as a signature gives."""
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} positional arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields or name in given:
                problem = "multiple values for argument" if name in given else "an unexpected keyword argument"
                raise TypeError(f"{cls.__qualname__}() got {problem} {name!r}")
        given.update(kwargs)
        missing = [repr(name) for name in fields if name not in given and name not in cls.__dict__]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required arguments: {', '.join(missing)}")
        return [given[name] if name in given else cls.__dict__[name] for name in fields]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is frozen; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    # A record compared by value holds only its fields, in order, in its dict.
    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Signature(_Record):
    """Squares of the commuting generators, one entry per generator."""

    squares: tuple[int, ...]

    def __post_init__(self) -> None:
        squares = tuple(int(s) for s in self.squares)
        if not squares:
            raise ValueError("a signature needs at least one generator")
        bad = [s for s in squares if s not in (-1, 1)]
        if bad:
            raise ValueError(f"generator squares must be +1 or -1, got {bad}")
        object.__setattr__(self, "squares", squares)

    @classmethod
    def from_string(cls, text: str) -> Signature:
        """Parse a string of '+'/'-' characters, one per generator.

        'p' and 'm' are accepted as aliases so that signatures starting
        with a minus can be written where a leading '-' would read as a
        command line flag.  The unicode minus is accepted as well.
        """
        table = {"+": 1, "p": 1, "-": -1, "m": -1, "−": -1}
        squares = []
        for ch in text:
            if ch not in table:
                raise ValueError(f"unknown signature character {ch!r} in {text!r}")
            squares.append(table[ch])
        return cls(tuple(squares))

    @property
    def n(self) -> int:
        return len(self.squares)

    @property
    def dim(self) -> int:
        return 1 << len(self.squares)

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.squares)

    def basis_labels(self) -> tuple[str, ...]:
        """Labels in subset-bitmask order: 1, e1, e2, e12, e3, ..."""
        labels = []
        for mask in range(self.dim):
            picked = [str(i + 1) for i in range(self.n) if mask >> i & 1]
            labels.append("e" + "".join(picked) if picked else "1")
        return tuple(labels)

    @lru_cache(maxsize=None)
    def doubled(self) -> Signature:
        """Signature of the two-slot product algebra (generators repeated), built once per ``squares``."""
        return Signature(self.squares + self.squares)

    @property
    def sign_table(self) -> np.ndarray:
        """``sign_table[S, T]`` is the product of squares over ``S & T``: a fresh read-only int8 array."""
        import numpy as np

        index = np.arange(self.dim, dtype=np.int32)
        table = 1 - 2 * _odd(index[:, None] & index, _negative_mask(self.squares)).astype(np.int8)
        table.setflags(write=False)
        return table


def _negative_mask(squares: tuple[int, ...]) -> int:
    """The subset of the generators that square to -1."""
    return sum(1 << i for i, square in enumerate(squares) if square < 0)


def _odd(mask, negative: int):
    """1 when ``mask`` holds an odd number of the generators in ``negative``, else 0.

    ``e_S * e_T`` is ``-e_(S xor T)`` exactly when ``_odd(S & T, negative)``.
    ``mask`` is an int, or an integer array read entry by entry.
    """
    if isinstance(mask, int):
        return (mask & negative).bit_count() & 1
    import numpy as np

    return np.bitwise_count(mask & negative) & 1


def _product(squares: tuple[int, ...], a, b) -> tuple:
    """The algebra product of one element's values by another's, held alike.

    Each ``out[k]`` adds the terms ``a[s] * sign(s, s ^ k) * b[s ^ k]``
    in ascending ``s`` to a zero (+0.0, or ``Fraction(0)`` when exact),
    skipping each ``s`` with ``a[s] == 0``, one multiply and one add per
    term: the bits of a row of the loop in :func:`multiply_coeffs`.
    """
    negative = _negative_mask(squares)
    odd = [_odd(mask, negative) for mask in range(len(a))]
    signed = (b, [-v for v in b])
    terms = [(a_s, s) for s, a_s in enumerate(a) if a_s != 0]
    zero = Fraction(0) if type(a[0]) is Fraction else 0.0
    out = []
    for k in range(len(a)):
        total = zero
        rest = ~k
        for a_s, s in terms:
            total += a_s * signed[odd[s & rest]][s ^ k]
        out.append(total)
    return tuple(out)


def _check_mask(signature: Signature, mask: int) -> int:
    mask = int(mask)
    if not 0 <= mask < signature.dim:
        raise ValueError(
            f"basis index {mask} out of range for signature {signature} (dim {signature.dim})"
        )
    return mask


def basis_sign(left_mask: int, right_mask: int, signature: Signature) -> int:
    """Sign picked up by the product of two basis elements.

    Symmetric in its arguments: the generators commute, so only the
    squares of the shared generators contribute.
    """
    shared = _check_mask(signature, left_mask) & _check_mask(signature, right_mask)
    return -1 if _odd(shared, _negative_mask(signature.squares)) else 1


def _held(values, exact: bool) -> tuple:
    """``values`` as an element holds them: all ``Fraction``s (a float converts with no rounding) or all floats."""
    return tuple(map(Fraction if exact else float, values))


def _coerce_coeffs(values, dim: int) -> tuple:
    """The values of a list, tuple or array: exact for an ``object`` array or one holding a ``Fraction``.

    Anything else becomes Python floats, ints past int64 and ``Decimal``s included.
    """
    array = hasattr(values, "tolist")
    shape = values.shape if array else (len(values),)
    if shape != (dim,):
        raise ValueError(f"expected {dim} coefficients, got shape {shape}")
    if array:
        return _held(values.tolist(), values.dtype == object)
    return _held(values, any(isinstance(v, Fraction) for v in values))


def _alike(a: AlgebraElement, b: AlgebraElement) -> tuple[tuple, tuple]:
    """The values of ``a`` and ``b`` held alike: exact when either is."""
    a._require_same_signature(b)
    if a.exact == b.exact:
        return a.values, b.values
    return _held(a.values, True), _held(b.values, True)


class AlgebraElement:
    """Dense real element of a signed abelian group algebra.

    ``values[S]`` is the coefficient of the basis element with subset
    bitmask ``S``: all Python floats, or all ``Fraction``s when ``exact``.
    ``AlgebraElement(signature, coeffs)`` takes a list, a tuple or an
    array.  ``coeffs`` is a fresh read-only float64 (or ``object``) array
    of the values, built on each access.  Instances are immutable; all
    arithmetic returns new elements.
    """

    __slots__ = ("signature", "values")

    def __new__(cls, signature: Signature, coeffs) -> AlgebraElement:
        return cls._of(signature, _coerce_coeffs(coeffs, signature.dim))

    @classmethod
    def _of(cls, signature: Signature, values: tuple) -> AlgebraElement:
        """An element over ``values``, already held as :func:`_held` holds them."""
        element = object.__new__(cls)
        object.__setattr__(element, "signature", signature)
        object.__setattr__(element, "values", values)
        return element

    def __setattr__(self, name, value=None):
        raise AttributeError(f"AlgebraElement is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return AlgebraElement._of, (self.signature, self.values)

    @classmethod
    def zero(cls, signature: Signature) -> AlgebraElement:
        return cls._of(signature, (0.0,) * signature.dim)

    @classmethod
    def basis(cls, signature: Signature, mask: int) -> AlgebraElement:
        """The basis element e_S for subset bitmask ``mask`` (e_0 is 1)."""
        values = [0.0] * signature.dim
        values[_check_mask(signature, mask)] = 1.0
        return cls._of(signature, tuple(values))

    @classmethod
    def scalar(cls, signature: Signature, value) -> AlgebraElement:
        """``value`` times the identity; a ``Fraction`` value makes it exact, as a ``Fraction`` scale does."""
        values = [0] * signature.dim
        values[0] = value
        return cls._of(signature, _held(values, isinstance(value, Fraction)))

    @property
    def exact(self) -> bool:
        """Whether the values are ``Fraction``s rather than Python floats."""
        return type(self.values[0]) is Fraction

    @property
    def coeffs(self) -> np.ndarray:
        """A fresh read-only float64 array of the values, ``object`` when exact."""
        import numpy as np

        array = np.array(self.values, dtype=object if self.exact else np.float64)
        array.setflags(write=False)
        return array

    @property
    def grid(self) -> np.ndarray:
        """Read-only ``(dim, dim)`` view of a two-slot tensor over a doubled signature.

        ``grid[S, T]`` is the coefficient of ``e_S (x) e_T``, at flat
        index ``S * dim + T``; see :mod:`fiberalg.tensor`.
        """
        squares = self.signature.squares
        half = len(squares) // 2
        if len(squares) % 2 or squares[:half] != squares[half:]:
            raise ValueError(f"grid needs a doubled signature, got {self.signature}")
        side = 1 << half
        return self.coeffs.reshape(side, side)

    def norm_squared(self):
        """Sum of squared coefficients (used to scale tolerances), added left to right from the held zero.

        Below eight values that is numpy's order, so a float sum has the bits of ``np.sum``.
        """
        total = Fraction(0) if self.exact else 0.0
        for v in self.values:
            total += v * v
        return total

    def _require_same_signature(self, other: AlgebraElement) -> None:
        if self.signature != other.signature:
            raise ValueError(f"signature mismatch: {self.signature} vs {other.signature}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.signature == other.signature and all(x == y for x, y in zip(self.values, other.values))

    def _termwise(self, other, op) -> AlgebraElement:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement._of(self.signature, tuple(map(op, *_alike(self, other))))

    def _scaled(self, op, scale) -> AlgebraElement:
        """Each coefficient ``op(value, scale)``; a ``Fraction`` scale makes the result exact."""
        exact = self.exact or isinstance(scale, Fraction)
        scale = (Fraction if exact else float)(scale)
        return AlgebraElement._of(self.signature, tuple(op(v, scale) for v in _held(self.values, exact)))

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        return self._termwise(other, operator.add)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self._termwise(other, operator.sub)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement._of(self.signature, tuple(-v for v in self.values))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        if isinstance(other, Number):
            return self._scaled(operator.mul, other)
        return NotImplemented

    # A left operand that is an element never reaches __rmul__.
    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Number):
            return self._scaled(operator.truediv, other)
        return NotImplemented

    def __str__(self) -> str:
        labels = self.signature.basis_labels()
        parts = []
        for mask, value in enumerate(self.values):
            if value == 0:
                continue
            term = str(value) if mask == 0 else f"{value}*{labels[mask]}"
            parts.append(term)
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"AlgebraElement({self.signature}, [{', '.join(str(c) for c in self.values)}])"


def multiply_coeffs(signature: Signature, a, b) -> np.ndarray:
    """Row-wise algebra product of coefficient arrays over the last axis.

    Either side is one element ``(dim,)`` or a batch ``(..., dim)``; the
    batch shapes broadcast.  The result is ``object`` if either side is,
    and float64 otherwise.  An ``object`` batch follows per-entry Python
    arithmetic: ``Fraction``s stay exact, a float meets a ``Fraction`` as a float.

    Each ``out[k]`` adds the terms ``a[s] * sign(s, s ^ k) * b[s ^ k]``
    in ascending ``s`` from zero, skipping each ``s`` whose column of
    ``a`` is all zero.  A term reads its partner rows ``b[s ^ k]`` as a
    view of ``b`` and its signs as a view of one row of ``dim`` signs, so
    the loop holds no table: besides the result it allocates one term of
    the same size and ``2 * dim`` index tuples, 1.3 MiB in all for two
    rows at dim 4096 passed basis axis first.  Every row without a NaN
    has the bits of :func:`multiply` on its two rows, and an exact row
    equals it.  A negative sign multiplies the term here, in place, where
    :func:`multiply` negates ``b[s ^ k]``, so a NaN of ``b`` met by one
    may keep its sign bit here.

    The loop runs basis axis first: a batch passed as the transpose of a
    C-contiguous ``(dim, rows)`` array is read without a copy, and the
    transpose of the result is C-contiguous.
    """
    import numpy as np

    dim = signature.dim
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-1:] != (dim,) or b.shape[-1:] != (dim,):
        raise ValueError(
            f"expected {dim} coefficients on the last axis, got shapes {a.shape} and {b.shape}"
        )
    dtype = object if object in (a.dtype, b.dtype) else np.float64
    n, negative = signature.n, _negative_mask(signature.squares)
    # Basis axis first, split into one axis of two per generator, the
    # highest bit first: a[s] is one batch row, and reversing the axes of
    # the bits of s maps each b[k] to b[s ^ k], a view.
    axes = (2,) * n
    batch = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    # transpose, not np.moveaxis: the same view at a sixth of the call cost
    a = np.ascontiguousarray(a.transpose(-1, *range(a.ndim - 1)), dtype=dtype)
    b = np.ascontiguousarray(b.transpose(-1, *range(b.ndim - 1)), dtype=dtype)
    b = b.reshape(axes + (1,) * (len(batch) - b.ndim + 1) + b.shape[1:])
    # product() counts in binary, first axis highest: flips[s] reverses the
    # axes of the bits of s, and picks[m] keeps the axes of the bits of m
    # and fixes the others at bit 1.
    flips = list(itertools.product((slice(None), slice(None, None, -1)), repeat=n))
    picks = list(itertools.product((slice(1, 2), slice(None)), repeat=n))
    live = np.flatnonzero(a.reshape(dim, -1).any(axis=1)).tolist()
    if any(s & negative for s in live):
        # signs[k] is (-1) ** |negative & ~k|, so signs[picks[s & negative]]
        # is (-1) ** |s & negative & ~k|: sign(s, s ^ k), as s & (s ^ k) = s & ~k.
        signs = (1 - 2 * _odd(~np.arange(dim), negative).astype(dtype)).reshape(axes + (1,) * len(batch))
    out = np.zeros(axes + batch, dtype=dtype)
    term = np.empty_like(out)
    for s in live:
        np.multiply(a[s], b[flips[s]], out=term)
        if s & negative:
            term *= signs[picks[s & negative]]
        out += term
    return out.reshape((dim,) + batch).transpose(*range(1, len(batch) + 1), 0)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Algebra product, the bilinear extension of the basis product rule."""
    return AlgebraElement._of(a.signature, _product(a.signature.squares, *_alike(a, b)))


class Idempotent(_Record, eq=False):
    """An algebra element validated to satisfy p*p == p at construction."""

    element: AlgebraElement

    def __post_init__(self) -> None:
        p = self.element
        square = multiply(p, p)
        if p.exact:
            if square != p:
                raise ValueError(f"element is not idempotent: ({p})^2 = {square}")
        else:
            deviation = max(abs(s - v) for s, v in zip(square.values, p.values))
            if deviation > IDEMPOTENT_ATOL:
                raise ValueError(
                    f"element is not idempotent: max |p*p - p| = {deviation:.3e}"
                )


def idempotent_half(mask: int, sign: int, signature: Signature) -> Idempotent:
    """The idempotent (1 + sign * e_S) / 2 for a generator subset ``mask``.

    Requires e_S to square to +1; otherwise the element squares to
    (1 + sign * e_S) / 2 - (1 - e_S^2) / 4 and is rejected.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    mask = _check_mask(signature, mask)
    if basis_sign(mask, mask, signature) != 1:
        labels = signature.basis_labels()
        raise ValueError(
            f"{labels[mask]} squares to -1 under signature {signature}; "
            f"(1 ± {labels[mask]})/2 is not idempotent"
        )
    values = [0.0] * signature.dim
    values[0] += 0.5
    values[mask] += sign * 0.5
    return Idempotent(AlgebraElement._of(signature, tuple(values)))


def idempotent_pair(mask: int, signature: Signature) -> tuple[Idempotent, Idempotent]:
    """The complementary pair (1 + e_S)/2, (1 - e_S)/2."""
    return idempotent_half(mask, +1, signature), idempotent_half(mask, -1, signature)
