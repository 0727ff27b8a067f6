"""Seeded verification sweeps over the algebra and fiber identities.

Each property draws each of its arrays from a seeded stream of its
own, evaluates a polynomial identity on them, and reports the worst
absolute and scaled residuals.  Residuals are scaled by the dominant
sector magnitude (for example dt**2 for the tangent norm identity), not
by the compared values alone: near light-like elements the identities
cancel to zero and a value-relative quotient would be noise over noise.

The sweep for each of + ++ - -+ pits the closed polynomial forms
against the projector-path extraction from the two-slot tensor, which
keeps the two routes honest against each other.

``boost_invariance`` (``+ ++``) and ``rotation_invariance`` (``- -+``)
are one check, ``_turn``, of the turn law ``fiber._TURN_LAWS`` at both
signs s of e1**2.  The draw is t, within a bound set by s, and
u = (1 + t e1)**2 / (1 - s t**2): only + - * /, which round alike on
every host, where numpy's SIMD cosh and sinh do not.

Every check runs through one driver, ``_run_check``.  It draws the
samples in blocks of rows and folds the residuals of each row into
running maxima, so a sweep needs the same memory at any sample count.
For each block a property yields only its ``(diff, scale)`` terms: a
signed residual, ``(rows,)`` or coefficient-major ``(k, rows)``, and
the sector magnitude of each row that it is measured against, which is
positive: that is a check's one contract.  ``_run_check`` alone divides
each term's block once, in place, to ``|diff|`` and then ``|diff| /
scale``, and keeps the worst of each, so a polynomial property is plain
arithmetic, exactly 0 on dyadic ``Fraction`` rows (the tests
check it).  The projector algebra draws nothing and yields a row per
element that vanishes; the minimum-action equivalence yields two rows
per drawn row, each the count of disagreements so far.  One table in
``_checks_for`` lists every check.

A property is a generator over the blocks, not a function called per
block, so its arrays live on from one block to the next: a function
frees them all on return, the allocator may give the pages back, and
the next block faults them in again.  Driving each block through a
fresh generator, as a function would, took 42k minor faults to verify
+ ++ - -+ at 100 000 samples each, against 9.5k for one generator per
sweep (means over 12 heap layouts, glibc 2.36, numpy 2.4, a two-core
Xeon).  The count is the allocator trimming and regrowing the heap; it
moves by a few thousand with the layout alone.  A block holds about
``BLOCK_VALUES`` values of the widest array a row feeds, the ``x (x) x``
embed.  Each array is drawn block by block from its own stream, which
gives the values of one full-size draw (see ``_sample_blocks``), so the
samples, and the report, are the same at any block size.

Past one block of rows, ``_block_rows``, and where the process may run
on two CPUs or more (``os.sched_getaffinity``, else ``os.cpu_count``),
``run_verification`` shares the checks with one helper process; within
one block, or on one CPU, the helper costs more than it saves.  The first
such call forks it and later calls reuse it, so its heap and caches stay
warm.  Each call writes the check positions into a ticket pipe, one byte
each, in descending order, and pickles the job into a jobs pipe.  The
late rows of ``_checks_for``'s table go out first, but the order is not
by cost: at ``++``, ``sector_completeness`` (position 3) and
``embed_homomorphism`` (2) are the third and fourth costliest of twelve
checks, yet go out ninth and tenth.  Ordering the tickets by each
check's measured time gave the same report and saved only about 3 %, so
the fixed order stays.  The caller and the helper each take the next
position until none are left, and the helper pickles back
``(position, result)`` for each, then ``None``.  Each pickle is one
``os.write`` of at most a few hundred bytes, under ``PIPE_BUF``, so a
helper that dies leaves whole values only.  The caller runs whatever
does not come back: every check where no helper starts (``os.pipe`` or
``os.fork`` raises ``OSError``), the rest where the helper dies or a
check raises there, which ends the helper.  So a property's exception
comes from the caller's own run of its check, where it fails that
property, with the exception as its ``error``.  The caller kills and
reaps the helper at interpreter exit, when it is interrupted (by an
exception that is no ``Exception``), when the results pipe ends early
and on ``OSError``; it drops without a signal a helper that
died or that something else reaped.  The next call forks a fresh one.
A process forked from the caller closes its copies of the pipes at the
fork, and a call made while another thread uses the helper runs alone.
The helper runs the code as it stood at its fork: patch this module,
then ``_retire()``.  The report keeps its bytes, since a check's streams
are fixed by its position; the caller's ``RUSAGE_SELF`` lacks the
helper's share, and its ``RUSAGE_CHILDREN`` holds it only once the
helper is reaped.  Python 3.12 and later warn on ``os.fork`` while
threads run, as numpy's OpenBLAS pool does.  On 3.12.1 and 3.13.0 a fork
beside one ``threading`` thread went ahead, and under ``-W
error::DeprecationWarning`` raised nothing, so the warning cannot end a
sweep; that probe had no numpy, so it did not run the OpenBLAS pool.

A block is coefficient-major: each array is drawn as ``(rows, width)``
and transposed once to ``(width, rows)``, one contiguous row per
coefficient, so numpy's inner loops run over the rows of a block, not
over 2 to 16 coefficients.  The embed is an outer product of
coefficient rows, the closed forms read ``x[0], x[1], ...``, and
``_run_check`` folds a whole diff in either layout, so it takes the
row-major matrix products of ``_oracle`` and ``_sector_completeness`` as
their transposes.  The one row sum, the
squared norm of four coefficients in ``_min_action_flags``, adds the
coefficient rows left to right, the order in which numpy adds a row
shorter than eight values.

The same bytes at any block size also rely on every kernel treating rows
independently.  Elementwise numpy arithmetic does, and so does the loop
of ``multiply_coeffs``, which ``_product`` hands the transposed views of
its blocks; the loop runs basis axis first, so it reads them without a
copy and returns the transpose of a coefficient-major block.  It reads
each term's partner rows as a view of the block and holds no table, so
a product needs its result and one term of the same size.  The BLAS
calls (``components_batch``, the span reconstruction of ``_oracle`` and
the matmul of ``_sector_completeness`` by each sector's multiplication
matrix) get the F-ordered transpose of a coefficient-major block; on OpenBLAS a
matrix product of two or more rows gives each row the bits of the
C-ordered full product.  A one-row product takes numpy's vector path and
may round differently, so no block has one row unless the whole sweep
has.  The tests replay the replay net's verify lines at several block
sizes, and check the row bits of the transposed views, to check both.
"""

from __future__ import annotations

import atexit
import itertools
import operator
import os
import pickle
import signal
import threading
from fractions import Fraction
from functools import partial, reduce
from typing import BinaryIO, NamedTuple

import numpy as np

from .algebra import MAX_GENERATORS, AlgebraElement, Signature, _Record, basis_sign, idempotent_pair, multiply, multiply_coeffs
from .fiber import (
    EUCLIDEAN_FIBER_SIGNATURE,
    EUCLIDEAN_TANGENT_SIGNATURE,
    FIBER_SIGNATURE,
    MIN_ACTION_TOL,
    TANGENT_SIGNATURE,
    MomentumTriple,
    TangentTriple,
    _FIBER_TABLE,
    _fiber_sectors,
    _lift_coeffs,
    _parts,
    _rated_parts,
    _sector_parts,
    _tangent_parts,
    _turn_gaps,
    factorize,
    fiber_component_basis,
    lift_kinematics,
)

__all__ = ["PropertyResult", "VerificationReport", "run_verification"]

COEFF_RANGE = 10.0
LOOP_CAP = 20000
# Values of x (x) x per block: 2048 rows at two generators, 8 at six.
# At most 2049 rows at dim 4 keep each 16 x 16 matmul of _sector_completeness
# on OpenBLAS's small-matrix path (M*N*K < 10**6).  Off it the product is four
# times slower (225 us at 4096 rows against 50 us for two 2048-row halves), and
# OpenBLAS runs its thread pool, which costs more in the forked sweeps: with
# every block doubled the four paper sweeps took 395-442 ms, 240-290 ms with
# OPENBLAS_NUM_THREADS=1 (no change at this size; two-core Xeon).
BLOCK_VALUES = 2**15
# Rows checked through the scalar API as well as the batch.
SPOT_ROWS = 25

# Thresholds of the three-way minimum-action equivalence; the product
# gate is fiber.MIN_ACTION_TOL, the one that is_min_action applies.
RESIDUAL_GATE = 1e-20
ROUNDTRIP_GATE = 1e-13


class PropertyResult(_Record):
    name: str
    samples: int
    max_abs_residual: float
    max_rel_residual: float
    tolerance: float
    passed: bool
    error: str | None = None  # "<Type>: <message>" of an exception that the check raised

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "samples": self.samples,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.error is not None:
            record["error"] = self.error
        return record


class VerificationReport(_Record):
    signature: str
    samples: int
    seed: int
    tolerance: float
    properties: tuple[PropertyResult, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "config": {
                "signature": self.signature,
                "samples": self.samples,
                "seed": self.seed,
                "tol": self.tolerance,
            },
            "properties": [p.to_dict() for p in self.properties],
            "pass": self.passed,
        }


class _Draw(NamedTuple):
    """One array that a property draws, from a stream of its own: ``rows`` by ``shape`` values."""

    method: str  # "uniform" or "integers", the Generator method
    low: float
    high: float
    shape: tuple[int, ...] = ()

    def take(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        return getattr(rng, self.method)(self.low, self.high, (rows, *self.shape))


def _coeffs(width: int) -> _Draw:
    return _Draw("uniform", -COEFF_RANGE, COEFF_RANGE, (width,))


def _block_bounds(samples: int, rows: int):
    """Yield ``(lo, hi)`` of each block; a one-row tail joins the block before it."""
    lo = 0
    while lo < samples:
        hi = samples if samples - lo <= rows + 1 else lo + rows
        yield lo, hi
        lo = hi


def _block_rows(sig: Signature) -> int:
    return max(2, BLOCK_VALUES // sig.dim**2)


def _sample_blocks(sig: Signature, key: tuple[int, ...], samples: int, draws):
    """Yield ``(lo, arrays)``: rows ``[lo, hi)`` of each of ``draws``, block by block.

    Array ``k`` is drawn from its own generator, ``default_rng([*key,
    k])``, as ``(rows, *shape)``, and handed out transposed once,
    coefficient-major: a C-contiguous ``(*shape, rows)`` array.  Drawing
    a stream in consecutive pieces gives the values of one full-size
    draw, ``integers`` rejections and spare 32-bit halves included, and
    no array's values depend on another array's shape or rows.
    """
    streams = [(draw, np.random.default_rng([*key, k])) for k, draw in enumerate(draws)]
    for lo, hi in _block_bounds(samples, _block_rows(sig)):
        yield lo, [np.ascontiguousarray(draw.take(rng, hi - lo).T) for draw, rng in streams]


def _embed_flat(x: np.ndarray) -> np.ndarray:
    """Coefficient-major flattened grids of x (x) x: row ``S * dim + T`` holds ``x[S] * x[T]``."""
    dim, rows = x.shape
    return (x[:, None] * x[None]).reshape(dim * dim, rows)


def _product(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``multiply_coeffs`` on coefficient-major batches (or one element ``(dim,)``)."""
    return multiply_coeffs(sig, a.T, b.T).T


# ---------------------------------------------------------------------------
# Generic algebra and tensor properties.


def _product_laws(sig: Signature, blocks):
    one = np.eye(1, sig.dim, dtype=int)[0]  # an int 1 keeps a Fraction block exact
    for _, (a, b, c) in blocks:
        ab = _product(sig, a, b)
        assoc = _product(sig, ab, c) - _product(sig, a, _product(sig, b, c))
        ab_size = np.max(np.abs(ab), axis=0)
        scale = ab_size * np.max(np.abs(c), axis=0) + 1.0
        yield [(assoc, scale), (ab - _product(sig, b, a), ab_size + 1.0), (_product(sig, a, one) - a, 1.0)]


def _projector_algebra(sig: Signature, blocks):
    # Elements that vanish in exact arithmetic, one row each.
    gaps = []
    # Times Fraction(1), the same projectors are promoted with no rounding and checked exactly.
    for scale in (1.0, Fraction(1)):
        one = AlgebraElement.basis(sig, 0) * scale
        for mask in range(sig.dim):
            if basis_sign(mask, mask, sig) != 1:
                continue
            plus, minus = (p.element * scale for p in idempotent_pair(mask, sig))
            gaps += [plus + minus - one, multiply(plus, minus), multiply(plus, plus) - plus]
    if sig.n == 2 and sig.squares[1] == 1:
        sectors = _fiber_sectors(sig)
        gaps.append(sectors[0] + sectors[1] + sectors[2] - AlgebraElement.basis(sig.doubled(), 0))
        gaps += [multiply(sectors[i], sectors[j]) for i in range(3) for j in range(i + 1, 3)]
    # Coefficient-major, the shorter gaps padded with zeros.
    yield [(np.array(list(itertools.zip_longest(*(gap.values for gap in gaps), fillvalue=0.0)), dtype=float), 1.0)]


def _embed_homomorphism(sig: Signature, blocks):
    doubled = sig.doubled()
    for _, (x, u) in blocks:
        gap = _product(doubled, _embed_flat(x), _embed_flat(u))
        rhs = _embed_flat(_product(sig, x, u))
        gap -= rhs
        yield [(gap, np.max(np.abs(rhs), axis=0) + 1.0)]


def _sector_completeness(sig: Signature, blocks):
    doubled = sig.doubled()
    # Row s of a sector P's multiplication matrix is e_s P, exact: one term an entry.
    eye = np.eye(doubled.dim)
    matrices = [np.ascontiguousarray(multiply_coeffs(doubled, eye, p.coeffs)) for p in _fiber_sectors(sig)]
    for _, (x,) in blocks:
        flat = _embed_flat(x)
        # Row-major like each product, so every add runs over contiguous memory.
        total = np.zeros(flat.shape[::-1])
        for matrix in matrices:
            total += flat.T @ matrix
        total -= flat.T
        yield [(total.T, np.max(np.abs(flat, out=flat), axis=0))]


def _oracle(sig: Signature, blocks):
    """Closed forms against the projector-path extraction, for + ++ - -+."""
    basis = fiber_component_basis(sig)
    tensors = np.stack([t.coeffs for t in basis.tensors])
    for _, (x,) in blocks:
        flat = _embed_flat(x)
        comps = basis.components_batch(flat.T)
        parts = _parts(x)
        gap = np.stack([getattr(parts, name) for name in basis.names])
        gap -= comps.T
        # Each row's gap to its span reconstruction, in one buffer: a fresh one faults in page by page.
        span = comps @ tensors
        np.subtract(flat.T, span, out=span)
        # the dominant sector magnitude: dt with one generator, dt + H with two
        scale = parts.dt + 1.0 if sig.n == 1 else parts.dt + parts.H + 1e-300
        yield [(gap, scale), (span.T, scale)]


# ---------------------------------------------------------------------------
# Tangent and fiber properties: one generator with square +1 (the tangent),
# and two with squares (+1, +1) (the fiber), whose tangent and momentum
# sectors obey the laws of the tangent.


def _sectors(x: np.ndarray) -> list:
    """(invariant, vector, norm) of each sector: tangent, and momentum at two generators."""
    parts = _parts(x)
    return [parts[:3]] if len(parts) == 3 else [parts[:3], parts[3:6]]


def _norm_identities(sig: Signature, blocks):
    """ds**2 = dt**2 - dq**2, and m**2 = H**2 - p**2 at two generators."""
    for _, (x,) in blocks:
        yield [(norm * norm - (inv * inv - vec * vec), inv * inv) for inv, vec, norm in _sectors(x)]


def _max_speed(sig: Signature, blocks):
    """|dq| <= dt, and |p| <= H at two generators."""
    for _, (x,) in blocks:
        sectors = _sectors(x)
        scale = reduce(np.maximum, [np.maximum(inv, 1.0) for inv, _, _ in sectors])
        yield [(np.maximum(np.abs(vec) - inv, 0.0), scale) for inv, vec, _ in sectors]


def _cross_squares(sig: Signature, blocks):
    for _, (x,) in blocks:
        f = _sector_parts(*x)
        hdt, pdq, mds = f.H * f.dt, f.p * f.dq, f.m * f.ds
        scale = hdt + 1e-300
        plus, minus = hdt + pdq, hdt - pdq
        halves = (f.c_plus_1, plus + mds), (f.c_plus_e1, plus - mds), (f.c_minus_1, minus + mds), (f.c_minus_e12, minus - mds)
        yield [(2 * cross**2 - half, scale) for cross, half in halves]


# The draws of _minimal_samples: x1 and x2, a sign coin and |x0|.
_MINIMAL_DRAWS = (_coeffs(2), _Draw("uniform", 0.0, 1.0), _Draw("uniform", 0.1, COEFF_RANGE))


def _minimal_samples(x12: np.ndarray, coin: np.ndarray, size: np.ndarray) -> np.ndarray:
    x = np.empty((4, len(coin)))
    x[0] = np.where(coin < 0.5, -1.0, 1.0) * size
    x[1:3] = x12
    x[3] = x[1] * x[2] / x[0]
    return x


# The draws of _exact_minimal_samples: a sign coin, log2 |x0|, 256 x1 and 256 x2.
_EXACT_MINIMAL_DRAWS = (
    _Draw("uniform", 0.0, 1.0),
    _Draw("integers", -3, 4),
    _Draw("integers", -2560, 2561),
    _Draw("integers", -2560, 2561),
)


def _exact_minimal_samples(coin, power, x1, x2) -> np.ndarray:
    """Minimal elements whose construction is exact in floats.

    Dyadic coefficients and a power-of-two scalar part make x1*x2/x0
    exact, so x0*x3 == x1*x2 holds with no rounding; identities stated
    at exact minimality can then be checked at full strictness.
    """
    x = np.empty((4, len(coin)))
    x[0] = np.where(coin < 0.5, -1.0, 1.0) * 2.0**power
    x[1] = x1 / 256.0
    x[2] = x2 / 256.0
    x[3] = x[1] * x[2] / x[0]
    return x


def _min_action_flags(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # 2 * det**2 is the minimum-action residual of fiber._fiber_parts
    det = x[0] * x[3] - x[1] * x[2]
    norm_sq = reduce(np.add, x * x)
    by_residual = 2 * det**2 <= RESIDUAL_GATE * norm_sq * norm_sq
    by_product = np.abs(det) <= MIN_ACTION_TOL * norm_sq
    recon_gap = np.abs(x[1] * x[2] / x[0] - x[3])
    by_roundtrip = recon_gap <= ROUNDTRIP_GATE * np.max(np.abs(x), axis=0)
    return by_residual, by_product, by_roundtrip


def _min_action_equivalence(sig: Signature, blocks):
    disagreements = 0
    for lo, (x, coin, size, generic) in blocks:
        minimal = _minimal_samples(x, coin, size)
        for block in (minimal, generic):
            by_residual, by_product, by_roundtrip = _min_action_flags(block)
            disagreements += int(np.sum(by_residual != by_product)) + int(np.sum(by_product != by_roundtrip))
        # Spot-check the scalar API against the vectorized gates; by_product is the generic block's.
        spot = max(SPOT_ROWS - lo, 0)
        for row in minimal[:, :spot].T:
            factorization = factorize(AlgebraElement(sig, row))
            gap = np.max(np.abs(factorization.reconstruct().coeffs - row))
            if gap > ROUNDTRIP_GATE * np.max(np.abs(row)):
                disagreements += 1
        for row, minimal_flag in zip(generic[:, :spot].T, by_product):
            try:
                factorize(AlgebraElement(sig, row))
                factored = True
            except ValueError:
                factored = False
            if factored != minimal_flag:
                disagreements += 1
        yield [(np.full(2 * len(coin), float(disagreements)), 1.0)]


def _min_action_rate(sig: Signature, blocks):
    for _, arrays in blocks:
        f = _rated_parts(*_exact_minimal_samples(*arrays))
        yield [(f.action_rate + f.m * f.ds, f.H * f.dt + 1e-300)]


def _lift_round_trip(sig: Signature, blocks):
    for lo, (x,) in blocks:
        f = _sector_parts(*x)
        g = _sector_parts(*_lift_coeffs(f.dt, f.dq, f.H, f.p))
        # lifted coefficients hold sector sums, so a sector far below the
        # element magnitude cannot round-trip relative to itself
        floor = 1e-4 * (f.dt + f.H)
        tangent, momentum = np.maximum(f.dt, floor), np.maximum(f.H, floor)
        terms = [(g.dt - f.dt, tangent), (g.dq - f.dq, tangent), (g.H - f.H, momentum), (g.p - f.p, momentum)]
        # The first rows of the sweep once more, through the scalar API.
        spot = []
        for row in x[:, : max(SPOT_ROWS - lo, 0)].T:
            parts = _sector_parts(*row)
            element = lift_kinematics(
                TangentTriple(float(parts.dt), float(parts.dq)),
                MomentumTriple(float(parts.H), float(parts.p)),
            )
            back = _sector_parts(*element.values)
            spot.append((back.dt - parts.dt, max(parts.dt, 1.0), back.H - parts.H, max(parts.H, 1.0)))
        if spot:
            dt_diff, dt_scale, h_diff, h_scale = np.array(spot).T
            terms += [(dt_diff, dt_scale), (h_diff, h_scale)]
        yield terms


# ---------------------------------------------------------------------------
# The turn law of boost_invariance and rotation_invariance (module docstring).

# Keyed by s = e1**2, the bound of |t|: a boost by 2 artanh t, up to 2.94, and a
# rotation by 2 arctan t, so the doubled angle covers the circle.
_TURN_BOUNDS = {+1: 0.9, -1: 1.0}
# The scale that each part is measured against: tangent, momentum, cross, or the action rate's.
_SECTOR = {**{row[0]: row[3] for row in _FIBER_TABLE}, "action_rate": 3}


def _unit(s: int, t):
    """(u0, u1, c, w): u = (1 + t e1)**2 / (1 - s t**2), so u0**2 - s u1**2 == 1, and its doubled turn (c, w)."""
    tt = s * (t * t)
    u0, u1 = (1 + tt) / (1 - tt), 2 * t / (1 - tt)
    return u0, u1, u0 * u0 + s * (u1 * u1), 2 * u0 * u1


def _turn(sig: Signature, blocks):
    """x -> x u against ``fiber._TURN_LAWS``, each gap measured against its sector's scale."""
    s = sig.squares[0]
    parts = _rated_parts if sig.n == 2 else _tangent_parts
    for _, (x, t) in blocks:
        u = np.zeros_like(x)
        u[0], u[1], c, w = _unit(s, t)
        # u first: the kernel runs one term per nonzero coefficient of its first operand.
        f0, f1 = parts(*x), parts(*_product(sig, u, x))
        scales = [np.maximum(f0.dt, f1.dt)]
        if sig.n == 2:
            # dt + H is twice the squared coefficient norm.  A sector more than
            # four decades below it sits under the coefficient rounding noise and
            # can only be measured against the element, not against itself.
            floor = 1e-4 * np.maximum(f0.dt + f0.H, f1.dt + f1.H)
            action = np.maximum(f0.H * f0.dt, f1.H * f1.dt)
            scales = [np.maximum(scale, floor) for scale in (scales[0], np.maximum(f0.H, f1.H), np.sqrt(action))]
            scales.append(np.maximum(action, floor * floor))
        yield [(gap, scales[_SECTOR[part]]) for part, gap in _turn_gaps(s, f0, f1, c, w).items()]


# ---------------------------------------------------------------------------
# Registry and entry point.


def _checks_for(sig: Signature):
    """The checks of ``sig`` in report order, as ``(name, draws, residuals, limits)`` rows.

    A table row runs on the signatures it lists, or on every one for
    ``None``.  ``limits``, where it is not ``None``, maps the call's
    ``(samples, tol)`` to the rows that the check draws and the tolerance
    that it is held to.  A check's position seeds its sample streams.
    """
    x = _coeffs(sig.dim)
    bound = _TURN_BOUNDS[sig.squares[0]]
    t = _Draw("uniform", -bound, bound)
    tangent, fiber = (TANGENT_SIGNATURE,), (FIBER_SIGNATURE,)
    plane, euclidean_fiber = (EUCLIDEAN_TANGENT_SIGNATURE,), (EUCLIDEAN_FIBER_SIGNATURE,)
    capped = lambda samples, tol: (min(samples, LOOP_CAP), tol)  # noqa: E731
    # Half the rows, each a minimal and a generic element; below tol 1 only a count of 0 passes.
    halved = lambda samples, tol: (max(samples // 2, 1), tol if tol >= 1 else 0.5)  # noqa: E731
    table = (
        ("product_laws", None, (x, x, x), _product_laws, capped),
        ("projector_algebra", None, (), _projector_algebra, None),
        ("embed_homomorphism", None, (x, x), _embed_homomorphism, capped),
        ("tangent_norm_identity", tangent, (x,), _norm_identities, None),
        ("tangent_max_speed", tangent, (x,), _max_speed, None),
        ("sector_completeness", fiber + euclidean_fiber, (x,), _sector_completeness, None),
        ("norm_identities", fiber, (x,), _norm_identities, None),
        ("max_speed", fiber, (x,), _max_speed, None),
        ("cross_square_identities", fiber, (x,), _cross_squares, None),
        ("min_action_equivalence", fiber, (*_MINIMAL_DRAWS, x), _min_action_equivalence, halved),
        ("min_action_rate", fiber, _EXACT_MINIMAL_DRAWS, _min_action_rate, None),
        ("rotation_invariance", plane, (x, t), _turn, None),
        ("boost_invariance", tangent + fiber, (x, t), _turn, None),
        ("oracle_equivalence", tangent + fiber + plane + euclidean_fiber, (x,), _oracle, None),
        ("lift_round_trip", fiber, (x,), _lift_round_trip, None),
        ("rotation_invariance", euclidean_fiber, (x, t), _turn, None),
    )
    return [(name, *rest) for name, signatures, *rest in table if signatures is None or sig in signatures]


def _run_check(job: tuple, position: int, caught=Exception) -> PropertyResult:
    """The result of the check at ``position`` of ``job``, ``(signature, samples, seed, tol)``.

    It draws array ``a`` of the check from ``default_rng([seed, position,
    a])``, with the samples and tolerance that the check's ``limits`` set,
    and runs ``residuals(sig, blocks)`` on the ``_sample_blocks`` of its
    draws.  Each ``(diff, scale)`` term that it yields for a block is
    divided once, in place: ``|diff|``, then ``|diff| / scale``, a
    ``(k, rows)`` diff against its ``(rows,)`` scale, so a diff must be
    the check's own temporary and no view of a scale, and every scale
    must be positive (a zero scale reads NaN or inf and fails its row).
    It keeps the worst of each: a maximum never rounds and division by a
    positive scale is monotone, so the fold moves no quotient's bits.  It
    counts the last axis of each block's first diff as the samples.  A
    check that raises one of ``caught`` fails, with finite residuals of 0
    and the exception, ``"<Type>: <message>"``, as its ``error``.
    """
    sig, samples, seed, tol = job
    name, draws, residuals, limits = _checks_for(sig)[position]
    if limits is not None:
        samples, tol = limits(samples, tol)
    rows, abs_res, rel_res = 0, -np.inf, -np.inf
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            for terms in residuals(sig, _sample_blocks(sig, (seed, position), samples, draws)):
                rows += terms[0][0].shape[-1]
                for diff, scale in terms:
                    top = np.abs(diff, out=diff).max()
                    rel = np.divide(diff, scale, out=diff).max()
                    # as under np.maximum, a NaN, once in, stays
                    abs_res = top if top > abs_res or top != top else abs_res
                    rel_res = rel if rel > rel_res or rel != rel else rel_res
                # Free the block's diffs, the loop's last one too, before the check builds the next:
                # held one block longer, sector_completeness at ++ took 17 ms where it takes 12.5,
                # with about 3700 minor faults a sweep against 200 (100 000 samples, a two-core Xeon).
                del terms, diff
    except caught as exc:
        return PropertyResult(name, rows, 0.0, 0.0, tol, False, f"{type(exc).__name__}: {exc}")
    return PropertyResult(name, rows, float(abs_res), float(rel_res), tol, bool(rel_res <= tol))


def run_verification(signature: Signature | str, samples: int, seed: int, tol: float) -> VerificationReport:
    """Run every identity sweep applicable to the signature.

    Deterministic for a fixed (signature, samples, seed, tol): each array
    of each property is drawn from its own stream, seeded by ``seed``, the
    property's position and the array's, so adding or removing properties,
    or running some of them in the helper process, never perturbs the others.
    The module docstring says when the helper takes part and what the
    caller does when it fails.
    Raises ``ValueError`` for more than ``MAX_GENERATORS`` generators,
    before any table is built, and for a sample count or seed that is no
    integer (``operator.index`` takes Python and numpy integers), a sample
    count below 1, a negative seed, or a tolerance that is negative or not
    finite, before any draw or fork.
    """
    if isinstance(signature, str):
        signature = Signature.from_string(signature)
    if signature.n > MAX_GENERATORS:
        raise ValueError(
            f"verify supports at most {MAX_GENERATORS} generators, got {signature.n} in {signature}"
        )
    # what operator.index takes: an __index__ on the type
    if not hasattr(type(samples), "__index__") or samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not hasattr(type(seed), "__index__") or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    samples, seed = operator.index(samples), operator.index(seed)
    if not (tol >= 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be a finite number of at least 0, got {tol}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    results = _run_tickets((signature, samples, seed, tol), samples > _block_rows(signature) and cpus > 1)
    return VerificationReport(str(signature), samples, seed, tol, tuple(results), all(r.passed for r in results))


# ---------------------------------------------------------------------------
# The helper process (see the module docstring).


class _Helper(NamedTuple):
    """What the caller holds of its helper process."""

    pid: int
    take: int  # the read end of the ticket pipe, non-blocking, shared by both processes
    give: int  # its write end, the caller's
    requests: int  # the caller's write end of the jobs pipe
    results: BinaryIO  # the caller's read end of the results pipe, unbuffered: no lock that a fork could inherit held


_helper: _Helper | None = None
# Held by the call that uses the helper; a call in another thread meanwhile runs alone.
_helper_lock = threading.Lock()


def _run_tickets(job: tuple, share: bool) -> list:
    """The results of ``job``'s checks in report order; if ``share``, the helper runs some (see the module docstring)."""
    count = len(_checks_for(job[0]))
    results = {}
    if share and _helper_lock.acquire(blocking=False):
        try:
            helper = _current_helper()
            if helper is not None:
                os.write(helper.give, bytes(range(count - 1, -1, -1)))
                os.write(helper.requests, pickle.dumps(job))
                for i in iter(partial(_take, helper.take), None):
                    results[i] = _run_check(job, i)
                for i, result in iter(partial(pickle.load, helper.results), None):
                    results[i] = result
        except (OSError, EOFError):
            _retire()
        except BaseException:
            _retire()
            raise
        finally:
            _helper_lock.release()
    return [results[i] if i in results else _run_check(job, i) for i in range(count)]


def _current_helper() -> _Helper | None:
    """This process's live helper, forked if it has none; ``None`` where none can start."""
    global _helper
    if _helper is not None and not _alive(_helper.pid):
        _retire()  # dead since the last call, or reaped elsewhere
    if _helper is None and hasattr(os, "fork"):
        _helper = _fork_helper()
    return _helper


def _fork_helper() -> _Helper | None:
    """Fork a helper with its three pipes; ``None``, every pipe closed, where ``os.pipe`` or ``os.fork`` raises."""
    pipes = []
    try:
        for _ in range(3):
            pipes.append(os.pipe())
        (take, give), (jobs_in, jobs_out), (results_in, results_out) = pipes
        os.set_blocking(take, False)
        pid = os.fork()
    except OSError:
        for fd in itertools.chain.from_iterable(pipes):
            os.close(fd)
        return None
    if pid == 0:  # the helper leaves only through os._exit: no exit handler, no inherited buffer flushed
        try:
            for fd in (give, jobs_out, results_in):
                os.close(fd)
            _serve(take, open(jobs_in, "rb"), results_out)
        finally:
            os._exit(0)
    os.close(jobs_in)
    os.close(results_out)
    return _Helper(pid, take, give, jobs_out, open(results_in, "rb", buffering=0))


def _serve(take: int, jobs: BinaryIO, results: int) -> None:
    """The helper's loop: run the positions it takes of each job until the jobs pipe ends.

    A check that raises ends the helper, so the caller runs it again and reports the failure.
    """
    while True:
        try:
            job = pickle.load(jobs)
        except EOFError:
            return
        for i in iter(partial(_take, take), None):
            os.write(results, pickle.dumps((i, _run_check(job, i, caught=()))))
        os.write(results, pickle.dumps(None))


def _retire() -> None:
    """Drop this process's helper and close its pipes; kill and reap it if it still runs as this process's child.

    Runs at interpreter exit, and in the child at a fork, which only closes its copies of the pipes.
    """
    global _helper
    helper, _helper = _helper, None
    if helper is None:
        return
    for fd in (helper.take, helper.give, helper.requests):
        os.close(fd)
    helper.results.close()
    if _alive(helper.pid):
        os.kill(helper.pid, signal.SIGKILL)
        os.waitpid(helper.pid, 0)


atexit.register(_retire)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_retire)


def _alive(pid: int) -> bool:
    """Whether the child ``pid`` still runs; one that ended is reaped.

    ``False`` for a pid that is no child of this process: something else
    may have reaped it (an ``os.wait()``), and it may now name another process.
    """
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == 0
    except ChildProcessError:
        return False


def _take(fd: int) -> int | None:
    """The next position in the ticket pipe, or ``None`` when none is left."""
    try:
        ticket = os.read(fd, 1)
    except BlockingIOError:
        return None
    return ticket[0] if ticket else None
