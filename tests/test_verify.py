"""Verification sweep tests: determinism, coverage, pass/fail wiring, blocking."""

import itertools
import os
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from fiberalg import verify
from fiberalg.algebra import Signature, multiply_coeffs
from fiberalg.cli import main
from fiberalg.fiber import _fiber_sectors, _parts, fiber_component_basis
from fiberalg.verify import _Draw, _embed_flat, _oracle, _row_max, _sample_blocks, _worst_rel, run_verification
from test_cli import VERIFY_GOLDENS, forbid_products

GOLDEN = Path(__file__).parent / "golden"

ROW_WIDTHS = [1, 2, 4, 9, 16]
_SPECIAL_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308]


def fold_rows(width: int) -> np.ndarray:
    """Rows of ``width`` values: random ones, and each special value in the first, middle and last column."""
    rng = np.random.default_rng(width)
    rows = list(rng.uniform(-10, 10, (5, width)))
    for column in sorted({0, width // 2, width - 1}):
        for value in _SPECIAL_VALUES:
            row = rng.uniform(-10, 10, width)
            row[column] = value
            rows.append(row)
    rows += [np.full(width, value) for value in _SPECIAL_VALUES]
    return np.array(rows)


def span_gap(basis, rows: np.ndarray) -> np.ndarray:
    """Each row's largest coefficient gap to its reconstruction from ``basis``, as ``_oracle`` takes it."""
    span = basis.components_batch(rows) @ np.stack([t.coeffs for t in basis.tensors])
    np.subtract(rows, span, out=span)
    return _row_max(np.abs(span, out=span))


def _on_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        return False
    return "openblas" in blas.lower()


def names(report):
    return [p.name for p in report.properties]


class TestCoverage:
    def test_fiber_suite(self):
        report = run_verification("++", 500, 7, 1e-10)
        assert report.passed
        assert names(report) == [
            "product_laws",
            "projector_algebra",
            "embed_homomorphism",
            "sector_completeness",
            "norm_identities",
            "max_speed",
            "cross_square_identities",
            "min_action_equivalence",
            "min_action_rate",
            "boost_invariance",
            "oracle_equivalence",
            "lift_round_trip",
        ]

    def test_tangent_suite(self):
        report = run_verification("+", 500, 7, 1e-10)
        assert report.passed
        assert "boost_invariance" in names(report)
        assert "oracle_equivalence" in names(report)
        assert "min_action_equivalence" not in names(report)

    def test_euclidean_plane_suite(self):
        report = run_verification("-", 500, 7, 1e-10)
        assert report.passed
        assert "rotation_invariance" in names(report)

    def test_euclidean_fiber_suite(self):
        report = run_verification("-+", 500, 7, 1e-10)
        assert report.passed
        assert "rotation_invariance" in names(report)
        assert "oracle_equivalence" in names(report)

    def test_generic_signature_runs_base_properties(self):
        report = run_verification("+++", 200, 7, 1e-10)
        assert report.passed
        assert names(report) == ["product_laws", "projector_algebra", "embed_homomorphism"]


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_verification("++", 300, 123, 1e-10)
        b = run_verification("++", 300, 123, 1e-10)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_changes_residuals(self):
        a = run_verification("++", 300, 1, 1e-10)
        b = run_verification("++", 300, 2, 1e-10)
        residuals_a = [p.max_rel_residual for p in a.properties]
        residuals_b = [p.max_rel_residual for p in b.properties]
        assert residuals_a != residuals_b


class TestFailureWiring:
    def test_unachievable_tolerance_fails(self):
        report = run_verification("++", 200, 7, 1e-30)
        assert not report.passed
        failing = [p.name for p in report.properties if not p.passed]
        assert failing

    def test_bad_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be"):
            run_verification("++", 0, 7, 1e-10)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            run_verification("++", 10, -1, 1e-10)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match=f"tol must be a finite number of at least 0, got {tol}"):
            run_verification("++", 10, 0, tol)

    def test_too_many_generators_rejected_before_tables(self, monkeypatch):
        forbid_products(monkeypatch)
        with pytest.raises(ValueError, match="at most 6 generators, got 7"):
            run_verification("+++++++", 10, 0, 1e-10)


class TestFork:
    """run_verification runs the checks at odd positions in one forked child past one block of rows.

    It forks only where the process may run on two CPUs or more, as the
    ``forks`` fixture reports.  At ``++`` a block holds 2048 rows, so the
    forked cases sweep 3000 samples.
    """

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids that ``os.fork`` returns to the caller, on a process that may run on two CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return pids

    @staticmethod
    def assert_reaped(pids):
        assert len(pids) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(pids[0], os.WNOHANG)

    def test_report_of_both_halves_in_order(self, forks, monkeypatch):
        report = run_verification("++", 3000, 123, 1e-10)
        self.assert_reaped(forks)
        monkeypatch.delattr(os, "fork")
        assert run_verification("++", 3000, 123, 1e-10) == report

    def test_forks_only_past_one_block(self, forks, monkeypatch):
        rows = verify._block_rows(Signature.from_string("++"))
        reports = []
        for samples, forked in ((rows, 0), (rows + 1, 1)):
            reports.append(run_verification("++", samples, 7, 1e-10))
            assert len(forks) == forked
        self.assert_reaped(forks)
        monkeypatch.delattr(os, "fork")
        assert [run_verification("++", samples, 7, 1e-10) for samples in (rows, rows + 1)] == reports

    def test_one_cpu_forks_nothing(self, forks, monkeypatch):
        report = run_verification("++", 3000, 123, 1e-10)
        assert len(forks) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert run_verification("++", 3000, 123, 1e-10) == report
        # where the affinity cannot be read, the CPU count decides
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert run_verification("++", 3000, 123, 1e-10) == report
        assert len(forks) == 1

    # sector_completeness runs at an odd position of ++, in the child;
    # norm_identities at an even one, in the caller.
    @pytest.mark.parametrize("residuals, parity", [("_sector_completeness", 1), ("_norm_identities", 0)])
    def test_exception_of_either_half_is_raised(self, forks, monkeypatch, capsys, residuals, parity):
        name = residuals.lstrip("_")
        assert names(run_verification("++", 10, 0, 1e-10)).index(name) % 2 == parity
        forks.clear()

        def boom(sig, blocks):
            raise ValueError("boom")

        monkeypatch.setattr(verify, residuals, boom)
        with pytest.raises(ValueError, match="^boom$"):
            run_verification("++", 3000, 0, 1e-10)
        self.assert_reaped(forks)
        forks.clear()
        with pytest.raises(SystemExit) as err:
            main(["verify", "++", "3000", "0"])
        out, stderr = capsys.readouterr()
        assert err.value.code == 2
        assert out == ""
        assert stderr == "fiberalg: error: boom\n"
        self.assert_reaped(forks)

    def test_child_that_sends_nothing(self, forks, monkeypatch):
        def leave(sig, blocks):
            os._exit(3)

        monkeypatch.setattr(verify, "_sector_completeness", leave)
        with pytest.raises(ChildProcessError, match="^verify child sent nothing, exit code 3$"):
            run_verification("++", 3000, 0, 1e-10)
        self.assert_reaped(forks)


class TestReportShape:
    def test_dict_layout(self):
        payload = run_verification("+", 100, 3, 1e-10).to_dict()
        assert payload["config"] == {
            "signature": "+",
            "samples": 100,
            "seed": 3,
            "tol": 1e-10,
        }
        assert isinstance(payload["pass"], bool)
        for record in payload["properties"]:
            assert set(record) == {
                "name",
                "samples",
                "max_abs_residual",
                "max_rel_residual",
                "tolerance",
                "pass",
            }

    def test_residuals_are_finite_floats(self):
        report = run_verification("++", 200, 5, 1e-10)
        for p in report.properties:
            assert np.isfinite(p.max_abs_residual)
            assert np.isfinite(p.max_rel_residual)


def test_worst_rel_has_the_bits_of_the_max_of_a_masked_divide():
    # _sweep divides once where every scale is positive; the reference
    # divides only where a scale is positive and sets the other rows.
    def masked(diff, scale):
        diff = np.abs(diff)
        hot = np.asarray(scale) > 0
        out = np.divide(diff, scale, out=np.zeros_like(diff), where=hot)
        np.copyto(out, np.inf, where=~hot & (diff > 0))
        return out

    special = [0.0, -0.0, 1e-300, 5e-324, 1.0, -1.0, 1e300, np.inf, -np.inf, np.nan]
    grid = [np.array(v) for v in zip(*itertools.product(special, repeat=2))]
    rng = np.random.default_rng(7)
    cases = [(np.array([d]), np.array([s])) for d, s in zip(*grid)]
    cases += [(np.array(special), np.full(len(special), s)) for s in special]
    cases += [(np.array(special), 1.0), (rng.uniform(-1, 1, 50), 1.0), tuple(grid)]
    cases.append(tuple(np.random.default_rng(5).uniform(0.5, 2.0, (2, 100))))
    for _ in range(200):
        diff = rng.uniform(-1e3, 1e3, 20)
        diff[rng.integers(0, 20, 2)] = rng.choice(special, 2)
        cases.append((diff, rng.uniform(1e-3, 1e3, 20)))
    # _sweep's own errstate: 0 / 0, 1 / 0 and inf / inf; 1e300 / 5e-324 overflows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for diff, scale in cases:
            assert _worst_rel(diff, scale).tobytes() == np.max(masked(diff, scale)).tobytes(), (diff, scale)


class TestRowMax:
    @pytest.mark.parametrize("width", ROW_WIDTHS)
    def test_bits_of_np_max_on_absolute_values(self, width):
        # every caller passes absolute values: no zero or NaN carries a sign
        a = np.abs(fold_rows(width))
        assert _row_max(a).tobytes() == np.max(a, axis=1).tobytes()

    @pytest.mark.parametrize("width", ROW_WIDTHS)
    def test_values_of_np_max_on_signed_values(self, width):
        # With signed zeros the sign of a zero maximum follows the order of
        # the comparisons, which the fold and np.max need not share.
        a = fold_rows(width)
        got, expected = _row_max(a), np.max(a, axis=1)
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        assert np.array_equal(got, expected, equal_nan=True)

    @pytest.mark.parametrize("width", [2, 4, 16])
    def test_returns_a_new_array(self, width):
        a = fold_rows(width)
        assert not np.shares_memory(_row_max(a), a)


@pytest.mark.parametrize("signature", ["+", "++", "-", "-+"])
def test_oracle_gap_is_the_larger_of_the_closed_form_and_span_gaps(signature):
    sig = Signature.from_string(signature)
    basis = fiber_component_basis(sig)
    x = np.random.default_rng(6).uniform(-10, 10, (sig.dim, 50))
    [(gap, _)] = _oracle(sig, [(0, [x])])
    flat = _embed_flat(x).T
    parts = _parts(x)
    closed = np.stack([getattr(parts, name) for name in basis.names], axis=1)
    diff = np.max(np.abs(basis.components_batch(flat) - closed), axis=1)
    assert gap.tobytes() == np.maximum(diff, span_gap(basis, flat)).tobytes()


def test_norm_fold_has_the_bits_of_the_row_sum():
    # _min_action_flags folds its squared norms of four values over the
    # coefficient rows, as here over the columns.  numpy adds a row
    # shorter than eight values left to right, the fold's order; a longer
    # row it sums pairwise, which may round differently.  The order is
    # numpy's own, not the BLAS's.
    x = fold_rows(4)
    scales = np.geomspace(1e-5, 1e5, 20000)[:, None]
    scaled = np.random.default_rng(4).uniform(-1, 1, (20000, 4)) * scales
    for rows in (x, scaled):
        with np.errstate(over="ignore"):
            squares = rows * rows
        assert reduce(np.add, squares.T).tobytes() == np.sum(squares, axis=1).tobytes()


class TestBlocks:
    """The sweeps run in blocks of rows; the block size must change no byte."""

    def test_blocks_match_one_full_size_draw(self, monkeypatch):
        # An odd integers array leaves a spare 32-bit half that the next
        # integers array takes first, across the uniform array between them.
        draws = [
            _Draw("uniform", -1.0, 1.0, (3,)),
            _Draw("integers", -3, 4),
            _Draw("uniform", 0.0, 1.0),
            _Draw("integers", -2560, 2561),
            _Draw("uniform", -1.0, 1.0, (2,)),
        ]
        full_rng = np.random.default_rng([4, 2])
        full = [draw.take(full_rng, 1001) for draw in draws]
        monkeypatch.setattr(verify, "BLOCK_VALUES", 8 * 4)
        blocks = list(_sample_blocks(Signature((1,)), np.random.default_rng([4, 2]), 1001, draws))
        assert [lo for lo, _ in blocks] == list(range(0, 1000, 8))  # the one-row tail joins the last block
        for index, expected in enumerate(full):
            # coefficient-major: one contiguous row of the block per coefficient
            assert all(arrays[index].flags.c_contiguous for _, arrays in blocks)
            got = np.concatenate([arrays[index] for _, arrays in blocks], axis=-1)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected.T)

    @pytest.mark.skipif(not _on_openblas(), reason="row bits are checked against OpenBLAS only")
    @pytest.mark.parametrize("signature", ["+", "++", "-", "-+"])
    def test_products_give_each_row_the_same_bits_in_any_block(self, signature):
        # A guard of the same-bytes-at-any-block-size claim on OpenBLAS, not
        # of the identities: BLAS does not promise that a row's bits are the
        # same in any block.  A full product of 20000 rows or more may take
        # another OpenBLAS path (with a C-contiguous dual it does).  The
        # sweeps hand each kernel the F-ordered transpose of a
        # coefficient-major block, which must give the C-ordered rows' bits.
        sig = Signature.from_string(signature)
        basis = fiber_component_basis(sig)
        x = np.random.default_rng(3).uniform(-10, 10, (20160, sig.dim))
        coeff_major = _embed_flat(np.ascontiguousarray(x.T))
        flat = np.ascontiguousarray(coeff_major.T)
        kernels = [
            basis.components_batch,
            lambda rows: span_gap(basis, rows),
        ]
        if sig.n == 2:
            # _sector_completeness' matmul by each sector's multiplication matrix
            doubled = sig.doubled()
            kernels += [
                lambda rows, matrix=np.ascontiguousarray(
                    multiply_coeffs(doubled, np.eye(doubled.dim), sector.coeffs)
                ): rows @ matrix
                for sector in _fiber_sectors(sig)
            ]
        for kernel in kernels:
            full = kernel(flat)
            for rows in (7, 4096):
                blocks = [kernel(flat[lo : lo + rows]) for lo in range(0, len(flat), rows)]
                assert np.array_equal(np.concatenate(blocks), full)
            for rows in (2, 7, 4096):
                blocks = [
                    kernel(np.ascontiguousarray(coeff_major[:, lo : lo + rows]).T)
                    for lo in range(0, len(flat), rows)
                ]
                assert np.array_equal(np.concatenate(blocks), full)

    @pytest.mark.parametrize("rows", [2, 7, 4096])
    @pytest.mark.parametrize("shape", ["batch x batch", "batch x one", "one x batch"])
    # + ++ - -+ and their doublings (++ is also the doubling of +)
    @pytest.mark.parametrize("signature", ["+", "++", "-", "-+", "++++", "--", "-+-+"])
    def test_coefficient_major_products_have_the_row_major_bits(self, signature, shape, rows):
        # The sweeps multiply coefficient-major blocks as
        # multiply_coeffs(sig, a.T, b.T).T.  The kernel's loop then copies
        # no batch and returns C-contiguous rows.
        sig = Signature.from_string(signature)
        rng = np.random.default_rng(rows)
        a = rng.uniform(-10, 10, (rows, sig.dim))
        b = rng.uniform(-10, 10, sig.dim if shape != "batch x batch" else (rows, sig.dim))
        if shape == "one x batch":
            a, b = b, a
        coeff_major = [np.ascontiguousarray(side.T) for side in (a, b)]
        got = multiply_coeffs(sig, coeff_major[0].T, coeff_major[1].T).T
        expected = multiply_coeffs(sig, a, b).T
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [7, 1000])
    @pytest.mark.parametrize("signature, fixture", VERIFY_GOLDENS)
    def test_goldens_at_any_block_size(self, rows, signature, fixture, monkeypatch, capsys):
        monkeypatch.setattr(verify, "BLOCK_VALUES", rows * 16)
        assert main(["verify", signature, "2000", "0"]) == 0
        assert capsys.readouterr().out == (GOLDEN / fixture).read_text()

    @pytest.mark.parametrize("samples", [3, 24, 1001])
    @pytest.mark.parametrize("signature", ["+", "-", "++", "-+", "+-+"])
    def test_report_same_at_small_block(self, signature, samples, monkeypatch):
        default = run_verification(signature, samples, 5, 1e-10).to_dict()
        # 40 rows at one generator, 10 at two and 2 (the least) at three
        monkeypatch.setattr(verify, "BLOCK_VALUES", 160)
        assert run_verification(signature, samples, 5, 1e-10).to_dict() == default

    def test_sector_blocks_stay_on_the_small_gemm_path(self):
        # A two-generator block holds at most BLOCK_VALUES // 16 + 1 rows, and
        # _sector_completeness multiplies it by 16 x 16 matrices.  OpenBLAS
        # leaves its small-matrix path above M*N*K = 10**6: the product is
        # four times slower there, and it runs OpenBLAS's thread pool, which
        # costs more still in the forked sweeps (see verify.BLOCK_VALUES).
        assert (verify.BLOCK_VALUES // 16 + 1) * 16 * 16 < 10**6

    def test_memory_bounded_in_samples(self, monkeypatch):
        # Every check runs here: run_verification would run half of them in a
        # forked child, out of tracemalloc's sight.
        monkeypatch.setattr(verify, "BLOCK_VALUES", 256 * 16)
        sig = Signature.from_string("++")
        checks = verify._checks_for(sig)

        def sweep(samples):
            for index, check in enumerate(checks):
                check(sig, np.random.default_rng([0, index]), samples, 1e-10)

        sweep(64)  # builds the cached tables and bases
        peaks = []
        for samples in (2048, 16384):
            tracemalloc.start()
            try:
                sweep(samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks
