"""Physical reading of squared elements over small signed group algebras.

Over the four-dimensional algebra with two unit-square generators, the
square x (x) x of an element x splits under two commuting projector
families into three sectors:

* a tangent sector carrying the rates (dt, dq) and their norm ds,
* a momentum sector carrying (H, p) and the mass norm m,
* a mixed sector carrying four cross components that tie the action
  rate dS = p dq - H dt to the norms.

This module provides the closed polynomial forms of that decomposition,
the minimum-action predicate and factorization, hyperbolic and circular
transformation elements, a kinematics inverse, a free-particle action
integral, and the Euclidean counterparts obtained when the first
generator squares to -1.

Every closed form has a projector twin computed purely through the
two-slot tensors of :mod:`fiberalg.tensor`, elements over the doubled
signature whose ``grid`` view is the coefficient grid, four pairs in all:
``decompose_c2`` / ``decompose_c2_projected`` for ``+``, ``decompose_d2``
/ ``decompose_d2_projected`` for ``++``, and ``decompose_euclidean`` /
``decompose_euclidean_projected`` for ``-`` and ``-+``.  The twins act as
the independent oracle in the verification sweeps.  They import
:mod:`fiberalg.tensor`, and with it numpy, when first called; the closed
forms run on the elements' Python floats.  The Euclidean pairs
are relabelings: ``-`` and ``-+`` have the closed-form parts of ``+`` and
``++``, and only the carriers shifted by e1 or e12 change projector
half.  One component table per generator count holds the name, half,
shift and sector of every component for all four; a component's name is
the part it equals, the tables alone name the parts, and ``_record``
alone turns parts into result records, for closed forms and twins.
The results are frozen records (:class:`fiberalg.algebra._Record`), read with ``vars``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING

from .algebra import AlgebraElement, Signature, _Record, idempotent_pair, multiply

if TYPE_CHECKING:
    from .tensor import ComponentBasis

__all__ = [
    "TANGENT_SIGNATURE",
    "FIBER_SIGNATURE",
    "EUCLIDEAN_TANGENT_SIGNATURE",
    "EUCLIDEAN_FIBER_SIGNATURE",
    "TangentTriple",
    "MomentumTriple",
    "CrossQuad",
    "FiberDecomposition",
    "EuclideanSector",
    "EuclideanFiberDecomposition",
    "CausalClass",
    "Factorization",
    "ActionIntegral",
    "decompose_c2",
    "decompose_d2",
    "decompose_euclidean",
    "decompose_c2_projected",
    "decompose_d2_projected",
    "decompose_euclidean_projected",
    "is_min_action",
    "factorize",
    "transform",
    "boost_element",
    "boost_check",
    "rotation_element",
    "lift_kinematics",
    "free_particle_element",
    "trajectory_action",
    "classify_causal",
    "fiber_component_basis",
]

TANGENT_SIGNATURE = Signature((1,))
FIBER_SIGNATURE = Signature((1, 1))
EUCLIDEAN_TANGENT_SIGNATURE = Signature((-1,))
EUCLIDEAN_FIBER_SIGNATURE = Signature((-1, 1))

MIN_ACTION_TOL = 1e-10
CAUSAL_TOL = 1e-12
# trajectory_action sums one float64 per step: 80 MB at this bound.
MAX_STEPS = 10**7
TRAJECTORY_GATE = 1e-9


class TangentTriple(_Record):
    """Rates of time, space, and proper time along a curve parameter.

    ``ds`` is stored signed; for triples produced from a real element it
    satisfies ds**2 == dt**2 - dq**2 with dt >= |dq|.  ``ds`` may be left
    unset on user-supplied triples fed to :func:`lift_kinematics`.
    """

    dt: float
    dq: float
    ds: float | None = None


class MomentumTriple(_Record):
    """Energy, momentum, and signed mass norm; m**2 == H**2 - p**2."""

    H: float
    p: float
    m: float | None = None


class CrossQuad(_Record):
    """Signed components of the mixed sector.

    ``c_plus_1`` and ``c_plus_e1`` sit in the plus half of the sector and
    transform with the tangent and momentum vectors; ``c_minus_1`` and
    ``c_minus_e12`` sit in the minus half and are invariant under
    norm-preserving transformations.  Their squares satisfy
    2 c**2 = H dt +/- p dq +/- m ds in the sign pattern
    (+ +), (+ -), (- +), (- -).
    """

    c_plus_1: float
    c_plus_e1: float
    c_minus_1: float
    c_minus_e12: float


class FiberDecomposition(_Record):
    """Full sector decomposition of x (x) x over the fiber algebra.

    ``action_rate`` is p dq - H dt.  ``min_action_residual`` is
    2 (x0 x3 - x1 x2)**2, equal to half the squared c_minus_e12
    component; it vanishes exactly on minimum-action elements.
    """

    tangent: TangentTriple
    momentum: MomentumTriple
    cross: CrossQuad
    action_rate: float
    min_action_residual: float


class EuclideanSector(_Record):
    """A diagonal sector of x (x) x when e1**2 == -1: all of it at ``-``, tangent or momentum at ``-+``.

    ``invariant`` is unchanged under unit rotations; (vec_1, vec_e1)
    rotate as a plane vector with doubled angle.
    """

    invariant: float
    vec_1: float
    vec_e1: float


class EuclideanFiberDecomposition(_Record):
    """Sector decomposition over the two-generator algebra with squares (-1, +1)."""

    tangent: EuclideanSector
    momentum: EuclideanSector
    cross_invariant_1: float
    cross_invariant_e12: float
    cross_vec_1: float
    cross_vec_e1: float


class CausalClass(Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"


class Factorization(_Record):
    """x == scale * first * second with first = x0 + x1 e1, second = x0 + x2 e2."""

    first: AlgebraElement
    second: AlgebraElement
    scale: float

    def reconstruct(self) -> AlgebraElement:
        return multiply(self.first, self.second) * self.scale


class ActionIntegral(_Record):
    """Step-summed and closed-form action for a free particle; ``passed`` if error <= TRAJECTORY_GATE * |analytic_S|."""

    numeric_S: float
    analytic_S: float
    error: float

    @property
    def passed(self) -> bool:
        return self.error <= TRAJECTORY_GATE * abs(self.analytic_S)


# One component table per generator count, one row per component of
# x (x) x: (the closed-form part it equals, which names it; the sign of
# its e1 projector half when e1**2 == +1; the basis pair that shifts it;
# its sector).  Flipping the square of e1 keeps every part the same
# polynomial and moves every carrier whose shift holds e1 to the other
# projector half.  Sectors count tangent, momentum, cross.
_TANGENT_TABLE = (
    ("dt", +1, 0b0, 0),
    ("dq", +1, 0b1, 0),
    ("ds", -1, 0b0, 0),
)
_FIBER_TABLE = (
    *_TANGENT_TABLE,
    ("H", +1, 0b00, 1),
    ("p", +1, 0b01, 1),
    ("m", -1, 0b00, 1),
    ("c_plus_1", +1, 0b00, 2),
    ("c_plus_e1", +1, 0b01, 2),
    ("c_minus_1", -1, 0b00, 2),
    ("c_minus_e12", -1, 0b11, 2),
)
# The closed-form parts, named by the tables, then the action rate and the residual.
_TangentParts = namedtuple("_TangentParts", [row[0] for row in _TANGENT_TABLE])
_FiberParts = namedtuple(
    "_FiberParts", [*(row[0] for row in _FIBER_TABLE), "action_rate", "residual"], defaults=(None, None)
)


def _tangent_parts(u, v) -> _TangentParts:
    """(u**2 + v**2, 2uv, u**2 - v**2); accepts scalars or arrays."""
    uu, vv = u * u, v * v
    return _TangentParts(uu + vv, 2 * u * v, uu - vv)


def _sector_parts(x0, x1, x2, x3) -> _FiberParts:
    """The ten sector components: split on e2, square each half, cross the halves.

    Leaves the action rate and the residual unset; a square past the float
    range there must not fail a decomposition that does not report them.
    """
    a, b = x0 + x2, x1 + x3
    c, d = x0 - x2, x1 - x3
    dt, dq, ds = _tangent_parts(a, b)
    energy, momentum, mass = _tangent_parts(c, d)
    ca, db, cb, da = c * a, d * b, c * b, d * a
    return _FiberParts(dt, dq, ds, energy, momentum, mass, ca + db, cb + da, ca - db, cb - da)


def _rated_parts(x0, x1, x2, x3) -> _FiberParts:
    """Sector components plus the action rate p dq - H dt; scalar or array."""
    parts = _sector_parts(x0, x1, x2, x3)
    return parts._replace(action_rate=parts.p * parts.dq - parts.H * parts.dt)


def _fiber_parts(x0, x1, x2, x3) -> _FiberParts:
    """Sector components plus action rate and minimum-action residual; scalar or array."""
    return _rated_parts(x0, x1, x2, x3)._replace(residual=2 * (x0 * x3 - x1 * x2) ** 2)


def _parts(coeffs):
    """Closed-form components of x (x) x; coefficients basis axis first, scalar or array."""
    return _tangent_parts(*coeffs) if len(coeffs) == 2 else _sector_parts(*coeffs)


def _require_signature(x: AlgebraElement, what: str, *expected: Signature) -> None:
    if x.signature not in expected:
        raise ValueError(f"{what} requires signature {' or '.join(map(str, expected))}, got {x.signature}")


def _record(signature: Signature, c: dict):
    """The record at ``signature`` of the part-keyed components ``c``; closed forms and twins alike.

    ``++`` also reads ``action_rate`` and ``residual``; e1**2 == -1 gives the Euclidean records.
    """
    if signature.squares[0] == 1:
        tangent = TangentTriple(c["dt"], c["dq"], c["ds"])
        if signature.n == 1:
            return tangent
        return FiberDecomposition(
            tangent,
            MomentumTriple(c["H"], c["p"], c["m"]),
            CrossQuad(c["c_plus_1"], c["c_plus_e1"], c["c_minus_1"], c["c_minus_e12"]),
            c["action_rate"],
            c["residual"],
        )
    tangent = EuclideanSector(c["dt"], c["ds"], c["dq"])
    if signature.n == 1:
        return tangent
    return EuclideanFiberDecomposition(
        tangent, EuclideanSector(c["H"], c["m"], c["p"]), c["c_plus_1"], c["c_minus_e12"], c["c_minus_1"], c["c_plus_e1"]
    )


def decompose_c2(x: AlgebraElement) -> TangentTriple:
    """Tangent triple of x (x) x over the one-generator unit-square algebra."""
    _require_signature(x, "decompose_c2", TANGENT_SIGNATURE)
    return _record(TANGENT_SIGNATURE, _tangent_parts(*x.values)._asdict())


def decompose_d2(x: AlgebraElement) -> FiberDecomposition:
    """Full fiber decomposition of x (x) x over the two-generator algebra."""
    _require_signature(x, "decompose_d2", FIBER_SIGNATURE)
    return _record(FIBER_SIGNATURE, _fiber_parts(*x.values)._asdict())


def decompose_euclidean(x: AlgebraElement):
    """Euclidean counterpart decompositions.

    Accepts the one-generator algebra with square -1 (returns an
    :class:`EuclideanSector`, the type of the ``tangent`` of a ``-+``
    result) or the two-generator algebra with squares (-1, +1) (returns
    :class:`EuclideanFiberDecomposition`).  The components are the
    closed-form parts of ``+`` and ``++``: the invariants are dt, H and
    c_plus_1, the plane vectors (ds, dq), (m, p) and (c_minus_1, c_plus_e1),
    and c_minus_e12 is the second cross invariant.
    """
    _require_signature(x, "decompose_euclidean", EUCLIDEAN_TANGENT_SIGNATURE, EUCLIDEAN_FIBER_SIGNATURE)
    return _record(x.signature, _parts(x.values)._asdict())


def is_min_action(x: AlgebraElement, tol: float = MIN_ACTION_TOL) -> bool:
    """True when the null component of the mixed sector vanishes.

    The criterion |x0 x3 - x1 x2| <= tol * |x|**2 is total; it matches
    the factorization condition wherever x0 != 0.
    """
    _require_signature(x, "is_min_action", FIBER_SIGNATURE)
    x0, x1, x2, x3 = x.values
    return abs(x0 * x3 - x1 * x2) <= tol * x.norm_squared()


def factorize(x: AlgebraElement, tol: float = MIN_ACTION_TOL) -> Factorization:
    """Split a minimum-action element into its two single-generator factors (x0 != 0, 1/x0 finite)."""
    _require_signature(x, "factorize", FIBER_SIGNATURE)
    x0, x1, x2, x3 = x.values
    scale = 1.0 / x0 if x0 != 0 else math.inf
    if not math.isfinite(scale):
        raise ValueError(
            f"factorize needs a scalar part x0 with a finite 1/x0, got {x0!r}; minimality "
            "is still decidable through the x0-free criterion x0*x3 == x1*x2"
        )
    if not is_min_action(x, tol):
        residual = 2 * (x0 * x3 - x1 * x2) ** 2
        raise ValueError(
            f"element is not minimum-action (residual {residual:.3e}); it does not "
            "factor into single-generator parts"
        )
    sig = x.signature
    first = AlgebraElement(sig, [x0, x1, 0.0, 0.0])
    second = AlgebraElement(sig, [x0, 0.0, x2, 0.0])
    return Factorization(first, second, scale)


def transform(x: AlgebraElement, u: AlgebraElement) -> AlgebraElement:
    """Right action x -> x u; squares compose as (x (x) x)(u (x) u).

    For u = u0 + u1 e1 with u0**2 - u1**2 == 1 the minus-half components
    (ds, m, c_minus_1, c_minus_e12) are preserved and the plus-half pairs
    (dt, dq), (H, p), (c_plus_1, c_plus_e1) each undergo the hyperbolic
    rotation with doubled rapidity.
    """
    return multiply(x, u)


def boost_element(signature: Signature, rapidity: float) -> AlgebraElement:
    """u = cosh(phi) + sinh(phi) e1; requires e1 to square to +1.

    Acting on x multiplies the decomposed plus-half 2-vectors by the
    matrix [[cosh 2 phi, sinh 2 phi], [sinh 2 phi, cosh 2 phi]]; the
    doubling comes from the square in x (x) x.
    """
    if signature.squares[0] != 1:
        raise ValueError(f"boost_element requires e1**2 == +1, got signature {signature}")
    coeffs = [0.0] * signature.dim
    coeffs[0] = math.cosh(rapidity)
    coeffs[1] = math.sinh(rapidity)
    return AlgebraElement(signature, coeffs)


def boost_check(x: AlgebraElement, rapidity: float, tol: float) -> tuple[AlgebraElement, dict[str, float], bool]:
    """(x u, u = boost_element(rapidity); the boost-law gaps; whether each is within tol of its scale); + or ++."""
    _require_signature(x, "boost_check", TANGENT_SIGNATURE, FIBER_SIGNATURE)
    boosted = transform(x, boost_element(x.signature, rapidity))
    ch, sh = math.cosh(2 * rapidity), math.sinh(2 * rapidity)
    fiber = x.signature == FIBER_SIGNATURE
    parts = _rated_parts if fiber else _tangent_parts
    f0, f1 = parts(*x.values), parts(*boosted.values)
    gaps = {"ds_dlambda": abs(f1.ds - f0.ds)}
    if fiber:
        gaps.update(
            m=abs(f1.m - f0.m),
            dS_dlambda=abs(f1.action_rate - f0.action_rate),
            c_minus_1=abs(f1.c_minus_1 - f0.c_minus_1),
            c_minus_e12=abs(f1.c_minus_e12 - f0.c_minus_e12),
        )
    # Each vector pair against its turn by twice the rapidity.
    for first, second in (("dt", "dq"), ("H", "p")) if fiber else (("dt", "dq"),):
        a, b = getattr(f0, first), getattr(f0, second)
        gaps["matrix_" + first] = abs(getattr(f1, first) - (ch * a + sh * b))
        gaps["matrix_" + second] = abs(getattr(f1, second) - (sh * a + ch * b))
    # A gap's scale is dt + H of x plus that of x u (dt alone at +), squared for the quadratic dS.
    size = sum(f.dt + getattr(f, "H", 0.0) for f in (f0, f1))
    passed = all(gap <= tol * (size * size if key == "dS_dlambda" else size) for key, gap in gaps.items())
    return boosted, gaps, passed


def rotation_element(signature: Signature, angle: float) -> AlgebraElement:
    """u = cos(angle) + sin(angle) e1; requires e1 to square to -1."""
    if signature.squares[0] != -1:
        raise ValueError(f"rotation_element requires e1**2 == -1, got signature {signature}")
    coeffs = [0.0] * signature.dim
    coeffs[0] = math.cos(angle)
    coeffs[1] = math.sin(angle)
    return AlgebraElement(signature, coeffs)


def lift_kinematics(tangent: TangentTriple, momentum: MomentumTriple) -> AlgebraElement:
    """Inverse of :func:`decompose_d2` on the (dt, dq) and (H, p) pairs.

    Only dt, dq, H, p are read; the norms are implied.  The
    nonnegative-root branch is chosen for both sector halves, so the
    result is one canonical preimage among the sign choices.
    """
    dt, dq = float(tangent.dt), float(tangent.dq)
    energy, momentum_p = float(momentum.H), float(momentum.p)
    if dt < abs(dq):
        raise ValueError(f"tangent pair (dt={dt}, dq={dq}) is spacelike; no real preimage")
    if energy < abs(momentum_p):
        raise ValueError(
            f"momentum pair (H={energy}, p={momentum_p}) is outside the mass shell; no real preimage"
        )
    return AlgebraElement(FIBER_SIGNATURE, list(_lift_coeffs(dt, dq, energy, momentum_p)))


def _lift_coeffs(dt, dq, energy, momentum):
    """The nonnegative-root lift of (dt, dq) and (H, p), as four coefficients; scalar or array."""
    import numpy as np

    sum_root = np.sqrt(dt + dq)
    diff_root = np.sqrt(dt - dq)
    a, b = (sum_root + diff_root) / 2, (sum_root - diff_root) / 2
    sum_root = np.sqrt(energy + momentum)
    diff_root = np.sqrt(energy - momentum)
    c, d = (sum_root + diff_root) / 2, (sum_root - diff_root) / 2
    return (a + c) / 2, (b + d) / 2, (a - c) / 2, (b - d) / 2


def free_particle_element(mass: float, rapidity: float) -> AlgebraElement:
    """Minimum-action element for a free particle in proper-time gauge.

    The curve parameter is proper time (ds rate 1), so the tangent pair
    is (cosh 2 phi, sinh 2 phi) and the momentum pair is mass times the
    same vector; the coordinate velocity is dq/dt = tanh(2 phi).
    """
    if not mass > 0:
        raise ValueError(f"mass must be positive, got {mass}")
    ch, sh = math.cosh(2 * rapidity), math.sinh(2 * rapidity)
    return lift_kinematics(TangentTriple(ch, sh), MomentumTriple(mass * ch, mass * sh))


def trajectory_action(mass: float, rapidity: float, lambda_span: float, steps: int) -> ActionIntegral:
    """Left-endpoint action integral for a constant free-particle element.

    The integrand p dq - H dt is constant along the worldline, so the
    quadrature order is irrelevant; the step sum ties the rate form of
    the action, read from the lifted element, to the closed form
    -mass * span of the proper-time gauge (ds rate 1).  The two differ by
    rounding alone unless the mass is so far from 1 that the lifted
    coefficients, which hold sums of the tangent and momentum sectors,
    lose the smaller sector to rounding; then the relative error is
    large.  At most ``MAX_STEPS`` steps are summed; more raise
    ``ValueError`` before any allocation.
    """
    if not mass > 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if not lambda_span > 0:
        raise ValueError(f"lambda_span must be positive, got {lambda_span}")
    steps = int(steps)
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be between 1 and {MAX_STEPS}, got {steps}")
    import numpy as np

    x = free_particle_element(mass, rapidity)
    decomposition = decompose_d2(x)
    rate = decomposition.action_rate
    step = lambda_span / steps
    numeric = float(np.sum(np.full(steps, rate * step)))
    analytic = -mass * lambda_span
    return ActionIntegral(numeric_S=numeric, analytic_S=float(analytic), error=abs(numeric - analytic))


def classify_causal(t: TangentTriple, tol: float = CAUSAL_TOL) -> CausalClass:
    """Classify a tangent triple by the sign of ds**2 = dt**2 - dq**2.

    The stored ds is squared, so a triple from a real element is never spacelike, where
    dt**2 - dq**2 can round below -tol; a user triple without ds recomputes it from (dt, dq).
    """
    interval = t.dt * t.dt - t.dq * t.dq if t.ds is None else t.ds * t.ds
    if interval > tol:
        return CausalClass.TIMELIKE
    if interval < -tol:
        return CausalClass.SPACELIKE
    return CausalClass.LIGHTLIKE


# ---------------------------------------------------------------------------
# Projector-path extraction (the grid oracle).


def _fiber_sectors(signature: Signature) -> tuple[AlgebraElement, AlgebraElement, AlgebraElement]:
    """The tangent, cross and momentum sector projectors of the split on e2.

    With p, q = (1 +- e2) / 2 they are p (x) p, p (x) q + q (x) p and q (x) q.
    """
    from .tensor import tensor_product

    plus2, minus2 = (p.element for p in idempotent_pair(0b10, signature))
    return (
        tensor_product(plus2, plus2),
        tensor_product(plus2, minus2) + tensor_product(minus2, plus2),
        tensor_product(minus2, minus2),
    )


@lru_cache(maxsize=None)
def fiber_component_basis(signature: Signature) -> ComponentBasis:
    """Component carriers of x (x) x for the signatures + ++ - -+.

    A component's carrier is its e1 projector half, shifted by the basis
    tensor 1 (x) e_T of its shift T and, with two generators, cut down to
    its sector of the split on e2 (which needs e2**2 == +1).  The component
    tables give the half, the shift and the sector of each component; the
    half of a carrier whose shift holds e1 flips with the square of e1.
    """
    from .tensor import ComponentBasis, diagonal_projector

    if signature.n == 1:
        table = _TANGENT_TABLE
    elif signature.n == 2 and signature.squares[1] == 1:
        table = _FIBER_TABLE
    else:
        raise ValueError(f"component layout needs one generator, or two with e2**2 == +1, got signature {signature}")
    e1_square = signature.squares[0]
    rows = [
        (name, half * e1_square if shift & 0b01 else half, shift, sector) for name, half, shift, sector in table
    ]
    # Each sector lists its plus projector half before its minus half, and
    # within a half the unshifted carrier first.
    rows.sort(key=lambda row: (row[3], -row[1], row[2]))
    halves = {sign: diagonal_projector(signature, 0b01, sign).element for sign in (+1, -1)}
    sectors = ()
    if signature.n == 2:
        tangent, cross, momentum = _fiber_sectors(signature)
        sectors = (tangent, momentum, cross)
    tensors = []
    for _, half, shift, sector in rows:
        carrier = halves[half]
        if shift:
            carrier = multiply(carrier, AlgebraElement.basis(signature.doubled(), shift))
        if sectors:
            carrier = multiply(carrier, sectors[sector])
        tensors.append(carrier)
    return ComponentBasis(signature, tuple(row[0] for row in rows), tuple(tensors))


def _projected_components(x: AlgebraElement) -> dict[str, float]:
    """The components of x (x) x, read from its grid through the component basis."""
    from .tensor import square_embed

    return fiber_component_basis(x.signature).components(square_embed(x))


def decompose_c2_projected(x: AlgebraElement) -> TangentTriple:
    """Tangent triple extracted through the grid, never the closed forms."""
    _require_signature(x, "decompose_c2_projected", TANGENT_SIGNATURE)
    return _record(TANGENT_SIGNATURE, _projected_components(x))


def decompose_euclidean_projected(x: AlgebraElement):
    """Euclidean decompositions extracted through the grid, never the closed forms."""
    _require_signature(x, "decompose_euclidean_projected", EUCLIDEAN_TANGENT_SIGNATURE, EUCLIDEAN_FIBER_SIGNATURE)
    return _record(x.signature, _projected_components(x))


def decompose_d2_projected(x: AlgebraElement) -> FiberDecomposition:
    """Fiber decomposition extracted through the grid, never the closed forms.

    The action rate and the minimum-action residual are assembled from
    the extracted components alone: dS = p dq - H dt and residual =
    c_minus_e12**2 / 2.
    """
    _require_signature(x, "decompose_d2_projected", FIBER_SIGNATURE)
    c = _projected_components(x)
    c["action_rate"] = c["p"] * c["dq"] - c["H"] * c["dt"]
    c["residual"] = c["c_minus_e12"] ** 2 / 2.0
    return _record(FIBER_SIGNATURE, c)
