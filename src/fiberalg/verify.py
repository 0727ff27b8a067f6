"""Seeded verification sweeps over the algebra and fiber identities.

Each property draws its own reproducible sample stream, evaluates a
polynomial identity on it, and reports the worst absolute and scaled
residuals.  Residuals are scaled by the dominant sector magnitude (for
example dt**2 for the tangent norm identity), not by the compared values
alone: near light-like elements the identities cancel to zero and a
value-relative quotient would be noise over noise.

The sweep for each of + ++ - -+ pits the closed polynomial forms
against the projector-path extraction from the two-slot tensor, which
keeps the two routes honest against each other.

Every check runs through one driver, ``_run_check``.  It draws the
samples in blocks of rows and folds the residuals of each row into
running maxima, so a sweep needs the same memory at any sample count.
For each block a property yields ``abs_row``, its absolute residual per
row, and a list of ``(diff, scale)`` terms, each a residual and the
sector magnitude it is measured against; ``_run_check`` alone applies
``_worst_rel`` to them, and reports the rows of every ``abs_row`` as the
samples.  The projector algebra draws nothing and yields a row per
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
embed.  The blocks are cut from the same sample streams as one
full-size draw (see ``_sample_blocks``), so the samples, and the report,
are the same at any block size.

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
helper that dies leaves whole values only.  The caller runs whatever does not come back: every check where no
helper starts (``os.pipe`` or ``os.fork`` raises ``OSError``), the rest
where the helper dies or a check raises there, so a property's exception
is raised from the caller's own run of its check.  The caller kills and
reaps the helper at interpreter exit, when its own check raises, when
the results pipe ends early and on ``OSError``; it drops without a
signal a helper that died or that something else reaped.  The next call
forks a fresh one.  A process forked from the caller closes its copies of
the pipes at the fork, and a call made while another thread uses the
helper runs alone.  The helper runs the code as it stood at its fork:
patch this module, then ``_retire()``.  The report keeps its bytes, since
a check's stream is fixed by its position; the caller's ``RUSAGE_SELF``
lacks the helper's share, and its ``RUSAGE_CHILDREN`` holds it only once
the helper is reaped.  Python 3.12 and later warn on ``os.fork`` while
threads run, as numpy's OpenBLAS pool does.  On 3.12.1 and 3.13.0 a
fork beside one ``threading`` thread went ahead, and under ``-W
error::DeprecationWarning`` raised nothing, so the warning cannot end a
sweep; that probe had no numpy, so it did not run the OpenBLAS pool.

A block is coefficient-major: each array is drawn as ``(rows, width)``
and transposed once to ``(width, rows)``, one contiguous row per
coefficient, so numpy's inner loops run over the rows of a block, not
over 2 to 16 coefficients.  The embed is an outer product of
coefficient rows, the closed forms read ``x[0], x[1], ...``, and a
per-row reduction is ``np.max(..., axis=0)``, a maximum over whole
coefficient rows; ``_row_max`` folds the row-major results of the
matrix products in ``_oracle`` and ``_sector_completeness`` the same
way.  The one row sum, the squared norm of four coefficients in
``_min_action_flags``, adds the coefficient rows left to right, the
order in which numpy adds a row shorter than eight values.

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
has.  The tests replay the verify goldens at several block sizes,
and check the row bits of the transposed views, to check both.
"""

from __future__ import annotations

import atexit
import copy
import itertools
import os
import pickle
import signal
import threading
from fractions import Fraction
from functools import partial, reduce
from typing import BinaryIO, NamedTuple

import numpy as np

from .algebra import AlgebraElement, Signature, _Record, basis_sign, idempotent_pair, multiply, multiply_coeffs
from .fiber import (
    EUCLIDEAN_FIBER_SIGNATURE,
    EUCLIDEAN_TANGENT_SIGNATURE,
    FIBER_SIGNATURE,
    MIN_ACTION_TOL,
    TANGENT_SIGNATURE,
    MomentumTriple,
    TangentTriple,
    _fiber_sectors,
    _lift_coeffs,
    _parts,
    _rated_parts,
    _sector_parts,
    _tangent_parts,
    factorize,
    fiber_component_basis,
    lift_kinematics,
)

__all__ = ["PropertyResult", "VerificationReport", "run_verification"]

COEFF_RANGE = 10.0
RAPIDITY_RANGE = 3.0
LOOP_CAP = 20000
# The embed sweeps multiply over the doubled signature, of dim 4**n, in
# blocks of at least two rows.  The product holds no table, so the limit
# bounds time: on a two-core Xeon one product of a six-generator block,
# 8 rows at dim 4096, took 0.5 s, and one of four rows 8.6 s at seven.
MAX_GENERATORS = 6
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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


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
    """One array of a property's sample stream: ``rows`` by ``shape`` values."""

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


def _sample_blocks(sig: Signature, rng: np.random.Generator, samples: int, draws):
    """Yield ``(lo, arrays)``: rows ``[lo, hi)`` of each of ``draws``, block by block.

    Each array is drawn as ``(rows, *shape)`` and handed out transposed
    once, coefficient-major: a C-contiguous ``(*shape, rows)`` array.
    The arrays hold the rows that drawing each array at full size, in
    the order given, would give: each array gets its own generator, a
    copy of ``rng`` taken where the full-size draw of that array starts,
    which is reached by drawing the arrays before it through, block by
    block.  Drawing an array in consecutive pieces gives the values of
    one draw, ``integers`` rejections and spare 32-bit halves included.
    Consumes ``rng``.
    """
    rows = _block_rows(sig)
    streams = []
    for draw in draws[:-1]:
        streams.append(copy.deepcopy(rng))
        for lo, hi in _block_bounds(samples, rows):
            draw.take(rng, hi - lo)
    streams.append(rng)
    for lo, hi in _block_bounds(samples, rows):
        yield lo, [np.ascontiguousarray(draw.take(stream, hi - lo).T) for draw, stream in zip(draws, streams)]


def _worst_rel(diff: np.ndarray, scale) -> np.float64:
    """The largest ``|diff| / scale``.

    Where a scale is not positive (or NaN) the row reads 0 for a zero or
    NaN diff and inf for any other.  Where every scale is positive it
    divides once and keeps every quotient.
    """
    diff, scale = np.abs(diff), np.asarray(scale)
    if scale.min() > 0:
        return (diff / scale).max()
    return np.where(scale > 0, diff / scale, np.where(diff > 0, np.inf, 0.0)).max()


def _embed_flat(x: np.ndarray) -> np.ndarray:
    """Coefficient-major flattened grids of x (x) x: row ``S * dim + T`` holds ``x[S] * x[T]``."""
    dim, rows = x.shape
    return (x[:, None] * x[None]).reshape(dim * dim, rows)


def _product(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``multiply_coeffs`` on coefficient-major batches (or one element ``(dim,)``)."""
    return multiply_coeffs(sig, a.T, b.T).T


def _row_max(a: np.ndarray) -> np.ndarray:
    """``np.max(a, axis=1)`` of at most 16 columns as a fold, several times faster; same bits on absolute values."""
    return reduce(np.maximum, a.T)


# ---------------------------------------------------------------------------
# Generic algebra and tensor properties.


def _product_laws(sig: Signature, blocks):
    one = AlgebraElement.basis(sig, 0).coeffs
    for _, (a, b, c) in blocks:
        ab = _product(sig, a, b)
        assoc = np.max(np.abs(_product(sig, ab, c) - _product(sig, a, _product(sig, b, c))), axis=0)
        comm = np.max(np.abs(ab - _product(sig, b, a)), axis=0)
        ident = np.max(np.abs(_product(sig, a, one) - a), axis=0)
        ab_size = np.max(np.abs(ab), axis=0)
        scale = ab_size * np.max(np.abs(c), axis=0) + 1.0
        yield reduce(np.maximum, [assoc, comm, ident]), [(assoc, scale), (comm, ab_size + 1.0), (ident, 1.0)]


def _projector_algebra(sig: Signature, blocks):
    # Elements that vanish in exact arithmetic; the largest coefficient of each is its residual.
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
    worst = np.array([float(max(abs(v) for v in gap.values)) for gap in gaps])
    yield worst, [(worst, 1.0)]


def _embed_homomorphism(sig: Signature, blocks):
    doubled = sig.doubled()
    for _, (x, u) in blocks:
        gap = _product(doubled, _embed_flat(x), _embed_flat(u))
        rhs = _embed_flat(_product(sig, x, u))
        gap -= rhs
        diff = np.max(np.abs(gap, out=gap), axis=0)
        yield diff, [(diff, np.max(np.abs(rhs), axis=0) + 1.0)]


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
        diff = _row_max(np.abs(total, out=total))
        yield diff, [(diff, np.max(np.abs(flat, out=flat), axis=0))]


def _oracle(sig: Signature, blocks):
    """Closed forms against the projector-path extraction, for + ++ - -+."""
    basis = fiber_component_basis(sig)
    tensors = np.stack([t.coeffs for t in basis.tensors])
    for _, (x,) in blocks:
        flat = _embed_flat(x)
        comps = basis.components_batch(flat.T)
        parts = _parts(x)
        closed = [getattr(parts, name) for name in basis.names]
        diff = reduce(np.maximum, [np.abs(comps[:, j] - c) for j, c in enumerate(closed)])
        # Each row's gap to its span reconstruction, in one buffer: a fresh one faults in page by page.
        span = comps @ tensors
        np.subtract(flat.T, span, out=span)
        gap = np.maximum(diff, _row_max(np.abs(span, out=span)))
        # the dominant sector magnitude: dt with one generator, dt + H with two
        scale = parts.dt + 1.0 if sig.n == 1 else parts.dt + parts.H + 1e-300
        yield gap, [(gap, scale)]


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
        terms = [(norm * norm - (inv * inv - vec * vec), inv * inv) for inv, vec, norm in _sectors(x)]
        yield reduce(np.maximum, [np.abs(diff) for diff, _ in terms]), terms


def _max_speed(sig: Signature, blocks):
    """|dq| <= dt, and |p| <= H at two generators."""
    for _, (x,) in blocks:
        sectors = _sectors(x)
        gaps = [np.maximum(np.maximum(np.abs(vec) - inv, -inv), 0.0) for inv, vec, _ in sectors]
        gap = reduce(np.maximum, gaps)
        yield gap, [(gap, reduce(np.maximum, [np.maximum(inv, 1.0) for inv, _, _ in sectors]))]


def _boost(sig: Signature, blocks):
    """x u with u = cosh phi + sinh phi e1 keeps each invariant and turns each vector pair by 2 phi."""
    fiber = sig.n == 2
    parts = _rated_parts if fiber else _tangent_parts
    for _, (x, phi) in blocks:
        u = np.zeros_like(x)
        u[:2] = np.cosh(phi), np.sinh(phi)
        # u first: the kernel runs one term per nonzero coefficient of its first operand.
        f0, f1 = parts(*x), parts(*_product(sig, u, x))
        ch, sh = np.cosh(2 * phi), np.sinh(2 * phi)
        tangent = np.maximum(f0.dt, f1.dt)
        if fiber:
            # dt + H is twice the squared coefficient norm.  A sector more than
            # four decades below it sits under the coefficient rounding noise and
            # can only be measured against the element, not against itself.
            floor = 1e-4 * np.maximum(f0.dt + f0.H, f1.dt + f1.H)
            tangent = np.maximum(tangent, floor)
        invariants = [("ds", tangent)]
        pairs = [("dt", "dq", tangent)]
        if fiber:
            momentum = np.maximum(np.maximum(f0.H, f1.H), floor)
            cross = np.maximum(np.sqrt(np.maximum(f0.H * f0.dt, f1.H * f1.dt)), floor)
            action = np.maximum(np.maximum(f0.H * f0.dt, f1.H * f1.dt), floor * floor)
            invariants += [("m", momentum), ("c_minus_1", cross), ("c_minus_e12", cross), ("action_rate", action)]
            pairs += [("H", "p", momentum), ("c_plus_1", "c_plus_e1", cross)]
        terms = [(getattr(f1, part) - getattr(f0, part), scale) for part, scale in invariants]
        for first, second, scale in pairs:
            a, b = getattr(f0, first), getattr(f0, second)
            terms += [(getattr(f1, first) - (ch * a + sh * b), scale), (getattr(f1, second) - (sh * a + ch * b), scale)]
        yield np.abs(f1.ds - f0.ds), terms


def _cross_squares(sig: Signature, blocks):
    for _, (x,) in blocks:
        f = _sector_parts(*x)
        hdt, pdq, mds = f.H * f.dt, f.p * f.dq, f.m * f.ds
        scale = hdt + 1e-300
        plus, minus = hdt + pdq, hdt - pdq
        combos = (
            2 * f.c_plus_1**2 - (plus + mds),
            2 * f.c_plus_e1**2 - (plus - mds),
            2 * f.c_minus_1**2 - (minus + mds),
            2 * f.c_minus_e12**2 - (minus - mds),
        )
        yield reduce(np.maximum, [np.abs(c) for c in combos]), [(c, scale) for c in combos]


# The draws of _minimal_samples: coefficients, a sign coin and |x0|.
_MINIMAL_DRAWS = (_coeffs(4), _Draw("uniform", 0.0, 1.0), _Draw("uniform", 0.1, COEFF_RANGE))


def _minimal_samples(x: np.ndarray, coin: np.ndarray, size: np.ndarray) -> np.ndarray:
    x[0] = np.where(coin < 0.5, -1.0, 1.0) * size
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
        counts = np.full(2 * len(coin), float(disagreements))
        yield counts, [(counts, 1.0)]


def _min_action_rate(sig: Signature, blocks):
    for _, arrays in blocks:
        f = _rated_parts(*_exact_minimal_samples(*arrays))
        diff = f.action_rate + f.m * f.ds
        yield np.abs(diff), [(diff, f.H * f.dt + 1e-300)]


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
        yield np.abs(g.dt - f.dt), terms


# ---------------------------------------------------------------------------
# Euclidean properties.


def _plane_rotation(sig: Signature, blocks):
    for _, (x, theta) in blocks:
        u = np.stack([np.cos(theta), np.sin(theta)])
        xu = _product(sig, x, u)
        before = x[0] ** 2 + x[1] ** 2
        after = xu[0] ** 2 + xu[1] ** 2
        diff = after - before
        yield np.abs(diff), [(diff, np.maximum(before, after))]


def _euclidean_fiber_rotation(sig: Signature, blocks):
    basis = fiber_component_basis(sig)
    tangent, momentum, cross_1, cross_e12 = (basis.names.index(name) for name in ("dt", "H", "c_plus_1", "c_minus_e12"))
    for _, (x, theta) in blocks:
        u = np.zeros_like(x)
        u[:2] = np.cos(theta), np.sin(theta)
        before = basis.components_batch(_embed_flat(x).T)
        after = basis.components_batch(_embed_flat(_product(sig, u, x)).T)
        size0 = before[:, tangent] + before[:, momentum]
        size1 = after[:, tangent] + after[:, momentum]
        floor = 1e-4 * np.maximum(size0, size1)
        tangent_scale = np.maximum(np.maximum(before[:, tangent], after[:, tangent]), floor)
        momentum_scale = np.maximum(np.maximum(before[:, momentum], after[:, momentum]), floor)
        cross_scale = np.maximum(np.sqrt(np.abs(tangent_scale * momentum_scale)), floor)
        diffs = [after[:, k] - before[:, k] for k in (tangent, momentum, cross_1, cross_e12)]
        yield np.abs(diffs[0]), list(zip(diffs, [tangent_scale, momentum_scale, cross_scale, cross_scale]))


# ---------------------------------------------------------------------------
# Registry and entry point.


def _checks_for(sig: Signature):
    """The checks of ``sig`` in report order, as ``(name, draws, residuals, limits)`` rows.

    A table row runs on the signatures it lists, or on every one for
    ``None``.  ``limits``, where it is not ``None``, maps the call's
    ``(samples, tol)`` to the rows that the check draws and the tolerance
    that it is held to.  A check's position seeds its sample stream.
    """
    x = _coeffs(sig.dim)
    phi = _Draw("uniform", -RAPIDITY_RANGE, RAPIDITY_RANGE)
    theta = _Draw("uniform", -np.pi, np.pi)
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
        ("rotation_invariance", plane, (x, theta), _plane_rotation, None),
        ("boost_invariance", tangent + fiber, (x, phi), _boost, None),
        ("oracle_equivalence", tangent + fiber + plane + euclidean_fiber, (x,), _oracle, None),
        ("lift_round_trip", fiber, (x,), _lift_round_trip, None),
        ("rotation_invariance", euclidean_fiber, (x, theta), _euclidean_fiber_rotation, None),
    )
    return [(name, *rest) for name, signatures, *rest in table if signatures is None or sig in signatures]


def _run_check(job: tuple, position: int) -> PropertyResult:
    """The result of the check at ``position`` of ``job``, ``(signature, samples, seed, tol)``.

    It draws from ``default_rng([seed, position])``, with the samples and
    tolerance that the check's ``limits`` set, and runs ``residuals(sig,
    blocks)`` on the ``_sample_blocks`` of its draws.  It keeps the worst
    ``abs_row`` and the worst ``_worst_rel(diff, scale)`` of the
    ``(abs_row, terms)`` that it yields for each block, and reports the
    rows of every ``abs_row`` as the samples.
    """
    sig, samples, seed, tol = job
    name, draws, residuals, limits = _checks_for(sig)[position]
    if limits is not None:
        samples, tol = limits(samples, tol)
    rng = np.random.default_rng([seed, position])
    rows, abs_res, rel_res = 0, -np.inf, -np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for abs_row, terms in residuals(sig, _sample_blocks(sig, rng, samples, draws)):
            rows += len(abs_row)
            abs_res = np.maximum(abs_res, np.max(abs_row))
            for diff, scale in terms:
                rel_res = np.maximum(rel_res, _worst_rel(diff, scale))
    return PropertyResult(name, rows, float(abs_res), float(rel_res), tol, bool(rel_res <= tol))


def run_verification(signature: Signature | str, samples: int, seed: int, tol: float) -> VerificationReport:
    """Run every identity sweep applicable to the signature.

    Deterministic for a fixed (signature, samples, seed, tol): each property
    draws from its own seed stream, so adding or removing properties, or
    running some of them in the helper process, never perturbs the others.
    The module docstring says when the helper takes part and what the
    caller does when it fails.
    Raises ``ValueError`` for more than ``MAX_GENERATORS`` generators,
    before any table is built, and for a sample count below 1, a negative
    seed, or a tolerance that is negative or not finite, before any draw.
    """
    if isinstance(signature, str):
        signature = Signature.from_string(signature)
    if signature.n > MAX_GENERATORS:
        raise ValueError(
            f"verify supports at most {MAX_GENERATORS} generators, got {signature.n} in {signature}"
        )
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
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
    """The helper's loop: run the positions it takes of each job until the jobs pipe ends."""
    while True:
        try:
            job = pickle.load(jobs)
        except EOFError:
            return
        for i in iter(partial(_take, take), None):
            os.write(results, pickle.dumps((i, _run_check(job, i))))
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
