"""Verification sweep tests: determinism, coverage, pass/fail wiring, blocking."""

import json
import math
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from fiberalg import fiber, verify
from fiberalg.algebra import Signature, multiply_coeffs
from fiberalg.cli import main
from fiberalg.fiber import _fiber_sectors, _parts, _rated_parts, _sector_parts, _tangent_parts, fiber_component_basis
from fiberalg.verify import _Draw, _embed_flat, _oracle, _sample_blocks, run_verification
from replay_net import golden
from test_cli import VALIDATOR, VERIFY_GOLDENS, child_env, forbid_products

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
    """Each row's largest coefficient gap to its reconstruction from ``basis``."""
    span = basis.components_batch(rows) @ np.stack([t.coeffs for t in basis.tensors])
    np.subtract(rows, span, out=span)
    return np.max(np.abs(span, out=span), axis=1)


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

    @staticmethod
    def forbid_sweeps(monkeypatch):
        monkeypatch.setattr(verify, "_run_tickets", lambda *_: pytest.fail("a check was drawn or the helper forked"))

    def test_samples_that_are_no_integer_rejected(self, monkeypatch):
        self.forbid_sweeps(monkeypatch)
        for samples in (10.7, np.float64(10.0), "10"):
            with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
                run_verification("++", samples, 1, 1e-10)

    def test_seed_that_is_no_integer_rejected(self, monkeypatch):
        self.forbid_sweeps(monkeypatch)
        for seed in (1.5, np.float64(2.0), "3"):
            with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
                run_verification("++", 5000, seed, 1e-10)

    def test_numpy_integers_are_taken_as_python_ints(self):
        report = run_verification("++", np.int64(10), np.uint8(1), 1e-10)
        assert type(report.samples) is type(report.seed) is int
        assert report.to_dict() == run_verification("++", 10, 1, 1e-10).to_dict()

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match=f"tol must be a finite number of at least 0, got {tol}"):
            run_verification("++", 10, 0, tol)

    def test_too_many_generators_rejected_before_tables(self, monkeypatch):
        forbid_products(monkeypatch)
        with pytest.raises(ValueError, match="at most 6 generators, got 7"):
            run_verification("+++++++", 10, 0, 1e-10)


def check_result(report, name):
    return next(p for p in report.properties if p.name == name)


class TestCountingChecks:
    """The two checks whose rows are not one per drawn sample.

    ``min_action_equivalence`` draws half the rows and yields two per row,
    each the count of disagreements so far; ``projector_algebra`` draws
    nothing and yields one row per element that vanishes.
    """

    @pytest.mark.parametrize("samples, reported", [(1, 2), (1001, 1000)])
    def test_min_action_reports_two_rows_per_drawn_row(self, samples, reported):
        report = run_verification("++", samples, 3, 1e-10)
        assert check_result(report, "min_action_equivalence").samples == reported

    @pytest.mark.parametrize("tol, gate", [(1e-10, 0.5), (0.9, 0.5), (1, 1), (3, 3)])
    def test_min_action_gate_is_half_below_tol_1(self, tol, gate):
        report = run_verification("++", 10, 3, tol)
        assert check_result(report, "min_action_equivalence").tolerance == gate

    def test_min_action_reports_the_total_over_every_block(self, monkeypatch):
        k, samples = 3, 80
        monkeypatch.setattr(verify, "BLOCK_VALUES", 160)  # 10 rows a block at two generators
        sig = Signature.from_string("++")
        blocks = len(list(verify._block_bounds(samples // 2, verify._block_rows(sig))))
        assert blocks >= 3
        assert check_result(run_verification(sig, samples, 3, 1e-10), "min_action_equivalence").max_abs_residual == 0
        flags = verify._min_action_flags

        def disagreeing(x):
            by_residual, by_product, by_roundtrip = flags(x)
            by_residual = by_residual.copy()
            by_residual[:k] = ~by_product[:k]
            return by_residual, by_product, by_roundtrip

        monkeypatch.setattr(verify, "_min_action_flags", disagreeing)
        verify._retire()
        # Each block checks its minimal and its generic rows: 2 * k disagreements a block.
        total = 2 * k * blocks
        for tol in (total - 1, total):
            result = check_result(run_verification(sig, samples, 3, tol), "min_action_equivalence")
            assert result.max_abs_residual == result.max_rel_residual == total
            assert result.passed == (total <= tol)

    @pytest.mark.parametrize("signature, elements", [("+", 12), ("++", 28), ("-", 6), ("-+", 16)])
    def test_projector_algebra_counts_its_elements_and_draws_nothing(self, signature, elements, monkeypatch):
        def take(self, rng, rows):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(_Draw, "take", take)
        sig = Signature.from_string(signature)
        position = [name for name, *_ in verify._checks_for(sig)].index("projector_algebra")
        result = verify._run_check((sig, 1000, 0, 1e-10), position)
        assert (result.name, result.samples, result.passed) == ("projector_algebra", elements, True)


class TestTurnLaw:
    """``boost_invariance`` and ``rotation_invariance``: x -> x u with u = (1 + t e1)**2 / (1 - s t**2), s = e1**2."""

    @pytest.mark.parametrize("signature", ["-", "-+"])
    def test_a_wrong_sign_of_the_turning_dq_fails_the_rotation(self, signature, monkeypatch):
        assert check_result(run_verification(signature, 500, 1, 1e-10), "rotation_invariance").passed
        # dq turns with ds where e1**2 == -1; the parts that stay, dt and H, cannot see it
        for name in ("_tangent_parts", "_rated_parts"):

            def flipped(*x, parts=getattr(verify, name)):
                f = parts(*x)
                return f._replace(dq=-f.dq)

            monkeypatch.setattr(verify, name, flipped)
        assert not check_result(run_verification(signature, 500, 1, 1e-10), "rotation_invariance").passed

    def test_an_error_in_a_later_law_moves_the_absolute_residual(self, monkeypatch):
        # ds is the first law at ++; the action rate, quartic, a later one
        clean = check_result(run_verification("++", 500, 1, 1e-10), "boost_invariance")
        assert clean.max_abs_residual < 1e-6

        def planted(*x):
            f = _rated_parts(*x)
            return f._replace(action_rate=f.action_rate + 1e-6 * f.dt)

        monkeypatch.setattr(verify, "_rated_parts", planted)
        assert check_result(run_verification("++", 500, 1, 1e-10), "boost_invariance").max_abs_residual > 1e-4

    @pytest.mark.parametrize("s", [1, -1])
    def test_unit_and_its_doubled_turn(self, s):
        bound = verify._TURN_BOUNDS[s]
        t = np.concatenate([np.linspace(-bound, bound, 201), np.random.default_rng(0).uniform(-bound, bound, 800)])
        u0, u1, c, w = verify._unit(s, t)
        eps = np.finfo(float).eps
        for row in zip(t, u0, u1, c, w):
            t_, u0_, u1_, c_, w_ = map(float, row)
            size = u0_ * u0_ + u1_ * u1_
            # u0**2 - s u1**2, exact from the rounded u0 and u1
            assert abs(Fraction(u0_) ** 2 - s * Fraction(u1_) ** 2 - 1) <= 4 * eps * size, t_
            if s == 1:
                phi = 2 * math.atanh(t_)
                turn = math.cosh(2 * phi), math.sinh(2 * phi)
            else:
                theta = 2 * math.atan(t_)
                turn = math.cos(2 * theta), math.sin(2 * theta)
            assert abs(c_ - turn[0]) <= 16 * eps * size and abs(w_ - turn[1]) <= 16 * eps * size, t_


    @pytest.mark.parametrize("signature, count", [("+", 3), ("++", 11), ("-", 3), ("-+", 10)])
    def test_the_law_is_exact_on_dyadic_fraction_rows(self, signature, count):
        # Fraction rows through _unit and the kernel: every gap of fiber._TURN_LAWS is exactly 0
        sig = Signature.from_string(signature)
        s, rng = sig.squares[0], np.random.default_rng(sig.dim)
        exact = np.vectorize(Fraction, otypes=[object])
        bound = verify._TURN_BOUNDS[s]
        x, t = exact(rng.uniform(-10, 10, (sig.dim, 50))), exact(rng.uniform(-bound, bound, 50))
        u = np.zeros_like(x)
        u[0], u[1], c, w = verify._unit(s, t)
        parts = _rated_parts if sig.n == 2 else _tangent_parts
        gaps = fiber._turn_gaps(s, parts(*x), parts(*verify._product(sig, u, x)), c, w)
        assert len(gaps) == count
        for part, gap in gaps.items():
            assert all(type(v) is Fraction and v == 0 for v in gap), part

    @pytest.mark.parametrize("pair", [0, 1, 2])
    def test_a_turn_in_the_wrong_sense_fails_the_exact_test(self, pair, monkeypatch):
        # (b, a) for (a, b) where e1**2 == -1 turns the pair by the opposite angle
        stay, pairs = fiber._TURN_LAWS[-1]
        flipped = [*pairs]
        flipped[pair] = flipped[pair][::-1]
        monkeypatch.setitem(fiber._TURN_LAWS, -1, (stay, tuple(flipped)))
        with pytest.raises(AssertionError, match=rf"^{flipped[pair][0]}\n"):
            self.test_the_law_is_exact_on_dyadic_fraction_rows("-+", 10)


class TwoArguments(Exception):
    """An exception that pickles but does not unpickle: ``args`` holds one message, ``__init__`` takes two."""

    def __init__(self, name, value):
        super().__init__(f"{name} = {value}")
        self.value = value


class TestHelper:
    """run_verification shares its checks with one long-lived helper process past one block of rows.

    A helper starts only where the process may run on two CPUs or more,
    as the ``forks`` fixture reports.  At ``++`` a block holds 2048 rows,
    so the shared cases sweep 3000 samples.  The first ticket of a ``++``
    call is position 11, ``lift_round_trip``.
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

    @pytest.fixture
    def take_first(self, monkeypatch):
        """``take_first(who)`` makes ``who``, "caller" or "helper", take the first ticket of a call.

        The other process waits until ``who`` has taken one, and raises
        ``AssertionError`` if that takes 10 s.  ``who`` writes each
        position it takes to a pipe, and ``take_first`` returns a function
        that reads the positions taken so far.
        """
        caller, (taken, write) = os.getpid(), os.pipe()
        os.set_blocking(taken, False)
        take = verify._take

        def arrange(who):
            def ordered_take(fd):
                if (os.getpid() == caller) != (who == "caller"):
                    assert select.select([taken], [], [], 10)[0], f"the {who} took no ticket in 10 s"
                    return take(fd)
                position = take(fd)
                if position is not None:
                    os.write(write, bytes([position]))
                return position

            monkeypatch.setattr(verify, "_take", ordered_take)
            return lambda: list(os.read(taken, 64))

        yield arrange
        os.close(taken)
        os.close(write)

    @staticmethod
    def assert_reaped(pid):
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    @staticmethod
    def assert_serving(pid):
        assert verify._helper.pid == pid
        assert os.waitpid(pid, os.WNOHANG) == (0, 0)

    @staticmethod
    def unforked(monkeypatch, *args):
        verify._retire()
        monkeypatch.delattr(os, "fork", raising=False)
        return run_verification(*args)

    def test_report_equals_the_unforked_one(self, forks, take_first, monkeypatch):
        helper_took = take_first("helper")
        report = run_verification("++", 3000, 123, 1e-10)
        taken = helper_took()
        # the helper took the first ticket, the costliest check, and the rest in descending order
        assert taken[0] == len(report.properties) - 1
        assert taken == sorted(set(taken), reverse=True)
        self.assert_serving(*forks)
        assert report == self.unforked(monkeypatch, "++", 3000, 123, 1e-10)
        self.assert_reaped(*forks)

    def test_one_fork_serves_several_calls(self, forks, monkeypatch):
        calls = [("++", 3000, 1, 1e-10), ("-+", 5000, 2, 1e-10), ("+", 9000, 3, 1e-10), ("++", 3000, 1, 1e-10)]
        reports = [run_verification(*call) for call in calls]
        self.assert_serving(*forks)
        assert reports == [self.unforked(monkeypatch, *call) for call in calls]

    def test_starts_only_past_one_block(self, forks, monkeypatch):
        rows = verify._block_rows(Signature.from_string("++"))
        reports = []
        for samples, forked in ((rows, 0), (rows + 1, 1)):
            reports.append(run_verification("++", samples, 7, 1e-10))
            assert len(forks) == forked
        self.assert_serving(*forks)
        assert [self.unforked(monkeypatch, "++", samples, 7, 1e-10) for samples in (rows, rows + 1)] == reports

    def test_one_cpu_starts_no_helper(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        report = run_verification("++", 3000, 123, 1e-10)
        # where the affinity cannot be read, the CPU count decides
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert run_verification("++", 3000, 123, 1e-10) == report
        assert forks == []
        assert verify._helper is None
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_verification("++", 3000, 123, 1e-10) == report
        assert len(forks) == 1

    # lift_round_trip, position 11 of ++, is the first ticket: the process
    # that takes it first runs it first.
    @pytest.mark.parametrize("first", ["helper", "caller"])
    def test_exception_of_either_process_fails_its_property(self, forks, take_first, monkeypatch, capsys, first):
        def boom(sig, blocks):
            raise ValueError("boom")

        monkeypatch.setattr(verify, "_lift_round_trip", boom)
        take_first(first)
        report = run_verification("++", 3000, 0, 1e-10)
        failed = check_result(report, "lift_round_trip")
        assert (failed.samples, failed.max_abs_residual, failed.max_rel_residual) == (0, 0.0, 0.0)
        assert (failed.passed, failed.error, report.passed) == (False, "ValueError: boom", False)
        assert all(p.passed and p.error is None for p in report.properties if p is not failed)
        if first == "helper":  # the helper leaves a check that raises to the caller, and dies of it
            assert verify._helper is None
            self.assert_reaped(*forks)
        else:
            self.assert_serving(*forks)
        # a ValueError of a property is its failure, not a usage error
        assert main(["verify", "++", "3000", "0"]) == 1
        out, stderr = capsys.readouterr()
        VALIDATOR.validate(json.loads(out))
        assert stderr == ""
        assert len(forks) == (2 if first == "helper" else 1)
        assert report == self.unforked(monkeypatch, "++", 3000, 0, 1e-10)
        self.assert_reaped(forks[-1])

    def test_exception_raised_in_the_helper_alone_leaves_the_report(self, forks, take_first, monkeypatch):
        caller, residuals = os.getpid(), verify._lift_round_trip

        def patched(sig, blocks):
            if os.getpid() != caller:
                raise TwoArguments("x", 3)
            return residuals(sig, blocks)

        monkeypatch.setattr(verify, "_lift_round_trip", patched)
        take_first("helper")
        report = run_verification("++", 3000, 0, 1e-10)
        self.assert_reaped(*forks)
        assert report == self.unforked(monkeypatch, "++", 3000, 0, 1e-10)

    def test_exception_that_does_not_pickle_fails_its_property(self, forks, take_first, monkeypatch):
        # the helper pickles no exception, and the failure keeps only its type and message
        def raising(sig, blocks):
            raise TwoArguments("x", 3)

        monkeypatch.setattr(verify, "_lift_round_trip", raising)
        take_first("helper")
        failed = check_result(run_verification("++", 3000, 0, 1e-10), "lift_round_trip")
        assert (failed.passed, failed.error) == (False, "TwoArguments: x = 3")
        assert pickle.loads(pickle.dumps(failed)) == failed
        self.assert_reaped(*forks)

    @pytest.mark.parametrize("when", ["at the job", "after one result"])
    @pytest.mark.parametrize(
        "leave",
        [lambda: os._exit(3), lambda: os.kill(os.getpid(), signal.SIGKILL)],
        ids=["exits", "killed"],
    )
    def test_helper_that_dies_is_reaped_and_replaced(self, forks, take_first, monkeypatch, leave, when):
        # the caller runs what the helper did not send back, and the next call forks a fresh helper
        caller, load, dumps, pickled = os.getpid(), pickle.load, pickle.dumps, []

        def load_then_leave(file):  # the helper leaves once it has read the job
            value = load(file)
            if os.getpid() != caller:
                leave()
            return value

        def leave_at_the_second_value(value):  # the helper leaves as it pickles its second value
            if os.getpid() != caller:
                pickled.append(value)
                if len(pickled) == 2:
                    leave()
            return dumps(value)

        if when == "at the job":
            monkeypatch.setattr(pickle, "load", load_then_leave)
        else:
            monkeypatch.setattr(pickle, "dumps", leave_at_the_second_value)
            take_first("helper")
        report = run_verification("++", 3000, 0, 1e-10)
        assert verify._helper is None
        self.assert_reaped(*forks)
        monkeypatch.setattr(pickle, "load", load)
        monkeypatch.setattr(pickle, "dumps", dumps)
        assert run_verification("++", 3000, 0, 1e-10) == report
        self.assert_serving(forks[1])
        assert report == self.unforked(monkeypatch, "++", 3000, 0, 1e-10)

    def test_dead_helper_is_replaced_on_the_next_call(self, forks, monkeypatch):
        report = run_verification("++", 3000, 0, 1e-10)
        os.kill(forks[0], signal.SIGKILL)
        os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        assert run_verification("++", 3000, 0, 1e-10) == report
        self.assert_reaped(forks[0])
        self.assert_serving(forks[1])

    def test_helper_reaped_elsewhere_is_replaced_and_never_signalled(self, forks, monkeypatch):
        # Reaped by an os.wait() outside verify, say: its pid may since name another process.
        report = run_verification("++", 3000, 0, 1e-10)
        kill, signalled = os.kill, []

        def recording_kill(pid, sig):
            signalled.append(pid)
            kill(pid, sig)

        monkeypatch.setattr(os, "kill", recording_kill)
        kill(forks[0], signal.SIGKILL)
        os.waitpid(forks[0], 0)
        assert run_verification("++", 3000, 0, 1e-10) == report
        self.assert_serving(forks[1])
        kill(forks[1], signal.SIGKILL)
        os.waitpid(forks[1], 0)
        verify._retire()
        assert verify._helper is None
        assert signalled == []
        assert report == self.unforked(monkeypatch, "++", 3000, 0, 1e-10)

    @pytest.mark.parametrize("call", ["fork", "pipe"])
    def test_no_helper_starts(self, forks, monkeypatch, call):
        real, calls = getattr(os, call), []

        def refuse():  # the fork, or the third of the helper's three pipes
            calls.append(call)
            if call == "fork" or len(calls) == 3:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, call, refuse)
        fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
        report = run_verification("++", 3000, 0, 1e-10)
        if fds is not None:  # the pipes of a helper that did not start are closed
            assert len(os.listdir("/proc/self/fd")) == len(fds)
        assert forks == []
        assert verify._helper is None
        assert report == self.unforked(monkeypatch, "++", 3000, 0, 1e-10)

    def test_forked_child_never_uses_the_callers_helper(self, forks, monkeypatch):
        def is_open(fd):
            try:
                os.fstat(fd)
            except OSError:
                return False
            return True

        report = run_verification("++", 3000, 0, 1e-10)
        helper = verify._helper.pid
        inherited = [verify._helper.take, verify._helper.give, verify._helper.requests, verify._helper.results.fileno()]
        read, write = os.pipe()
        child = os.fork()
        if child == 0:  # the child leaves only through os._exit, whatever it meets
            try:
                # the fork dropped the caller's helper and closed the child's copies of its pipes
                dropped = verify._helper is None and not any(map(is_open, inherited))
                os.close(read)
                same = run_verification("++", 3000, 0, 1e-10) == report
                own = verify._helper.pid not in (helper, os.getpid())
                verify._retire()
                os.write(write, bytes([dropped, same, own]))
            finally:
                os._exit(0)
        os.close(write)
        with open(read, "rb") as reader:
            answer = reader.read()
        os.waitpid(child, 0)
        assert answer == bytes([True, True, True])
        # the caller's helper still serves it
        mine = run_verification("-+", 3000, 0, 1e-10)
        self.assert_serving(helper)
        assert forks == [helper, child]
        assert mine == self.unforked(monkeypatch, "-+", 3000, 0, 1e-10)

    def test_fork_while_a_thread_waits_on_the_helper(self, forks, take_first, monkeypatch):
        # The child closes its copy of the results pipe at the fork.  A
        # buffered reader would hang there: its lock, held by the thread
        # blocked in the read, is never released in the child.
        caller, residuals, load = os.getpid(), verify._lift_round_trip, pickle.load
        hold, release = os.pipe()
        reading = threading.Event()

        def held(sig, blocks):  # the helper's first check waits until the test releases it
            if os.getpid() != caller:
                os.read(hold, 1)
            return residuals(sig, blocks)

        def signalled_load(file):
            reading.set()
            return load(file)

        monkeypatch.setattr(verify, "_lift_round_trip", held)
        monkeypatch.setattr(pickle, "load", signalled_load)
        take_first("helper")
        with ThreadPoolExecutor(1) as pool:
            call = pool.submit(run_verification, "++", 3000, 0, 1e-10)
            try:
                assert reading.wait(10)
                time.sleep(0.1)  # into the read
                child = os.fork()
                if child == 0:
                    os._exit(0)
                deadline = time.monotonic() + 10
                while os.waitpid(child, os.WNOHANG) == (0, 0):
                    if time.monotonic() > deadline:
                        os.kill(child, signal.SIGKILL)
                        os.waitpid(child, 0)
                        pytest.fail("the child hung at the fork")
                    time.sleep(0.01)
            finally:
                os.write(release, b"x")
            report = call.result()
        os.close(hold)
        os.close(release)
        assert report == self.unforked(monkeypatch, "++", 3000, 0, 1e-10)

    def test_calls_from_two_threads_give_their_own_reports(self, forks, monkeypatch):
        # one call at a time uses the helper; a call in the other thread meanwhile runs alone
        calls = [("++", 3000, 4, 1e-10), ("-+", 3000, 5, 1e-10)] * 3
        with ThreadPoolExecutor(2) as pool:
            reports = list(pool.map(lambda call: run_verification(*call), calls))
        assert len(forks) == 1
        assert reports == [self.unforked(monkeypatch, *call) for call in calls]

    def test_no_helper_outlives_its_caller(self):
        code = (
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from fiberalg import verify\n"
            "verify.run_verification('++', 3000, 0, 1e-10)\n"
            "print(verify._helper.pid)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=120)
        assert result.returncode == 0, result.stderr
        with pytest.raises(ProcessLookupError):
            os.kill(int(result.stdout), 0)


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


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def run_terms(monkeypatch, *terms):
    """``_run_check``'s result for a check whose one block yields copies of ``terms``."""

    def check(sig, blocks):
        for _ in blocks:
            yield [(diff.copy(), scale) for diff, scale in terms]

    monkeypatch.setattr(verify, "_checks_for", lambda sig: [("fold", (), check, None)])
    return verify._run_check((Signature((1,)), 1, 0, 1e-10), 0)


class TestFold:
    """``_run_check`` divides each term's block once, in place, against its positive scale.

    The worst ``|diff|`` and ``|diff| / scale`` of a whole ``(rows,)`` or
    ``(k, rows)`` block have the bits of ``np.max`` of its row maxima, in
    either layout, NaN included.
    """

    @pytest.mark.parametrize("width", ROW_WIDTHS)
    def test_a_row_has_the_bits_of_np_max_on_absolute_values(self, width, monkeypatch):
        # a NaN anywhere in the row is the result; no zero or NaN keeps its sign
        for row in fold_rows(width):
            for diff in (row[:, None], row):
                result = run_terms(monkeypatch, (diff, 1.0))
                expected = bits(np.max(np.abs(row)))
                assert bits(result.max_abs_residual) == bits(result.max_rel_residual) == expected, row
                assert result.samples == diff.shape[-1]
                assert result.passed == (np.max(np.abs(row)) <= 1e-10)

    @pytest.mark.parametrize("width", ROW_WIDTHS)
    def test_a_block_has_the_bits_of_np_max_in_either_layout(self, width, monkeypatch):
        # coefficient-major, and the transpose of a row-major matrix product, as _oracle yields its span
        a = fold_rows(width)
        # with no NaN, and with negative values only, where a maximum of the signed values differs
        for rows in (a, a[~np.isnan(a).any(axis=1)], -np.abs(a[:5])):
            row_max = np.max(np.abs(rows), axis=1)
            scale = np.random.default_rng(width).uniform(1.0, 2.0, len(rows))
            for diff in (np.ascontiguousarray(rows.T), rows.T):
                result = run_terms(monkeypatch, (diff, scale), (np.zeros(3), 1.0))
                assert result.samples == len(rows)
                assert bits(result.max_abs_residual) == bits(np.max(row_max))
                assert bits(result.max_rel_residual) == bits(np.max(row_max / scale))

    def test_a_nan_term_stays_before_and_after_a_larger_finite_one(self, monkeypatch):
        nan, large = (np.array([1.0, np.nan]), 1.0), (np.array([5.0, 1e300]), 1.0)
        for terms in ((nan, large), (large, nan)):
            result = run_terms(monkeypatch, *terms)
            assert np.isnan(result.max_abs_residual) and np.isnan(result.max_rel_residual)
            assert not result.passed

    def test_a_zero_scale_fails_its_row(self, monkeypatch):
        # every scale a check yields is positive (test_every_scale_is_finite_and_positive): 0 / 0 reads NaN
        result = run_terms(monkeypatch, (np.zeros(3), np.array([1.0, 0.0, 1.0])))
        assert result.max_abs_residual == 0.0
        assert np.isnan(result.max_rel_residual) and not result.passed
        result = run_terms(monkeypatch, (np.array([0.0, -2.0, 0.0]), np.array([1.0, 0.0, 1.0])))
        assert (result.max_abs_residual, result.max_rel_residual, result.passed) == (2.0, np.inf, False)

    def test_a_block_is_freed_before_the_check_builds_the_next(self, monkeypatch):
        # a diff held one block longer cost sector_completeness at ++ about 3700 minor faults a sweep
        refs = []

        def tracked(*terms):
            refs.extend(weakref.ref(diff) for diff, _ in terms)
            return list(terms)

        def check(sig, blocks):
            for _ in blocks:
                assert all(ref() is None for ref in refs), "a diff of the last block is alive"
                yield tracked((np.ones(3), 1.0), (np.ones((2, 3)), np.ones(3)))

        monkeypatch.setattr(verify, "_checks_for", lambda sig: [("fold", (), check, None)])
        result = verify._run_check((Signature((1,)), 3 * verify._block_rows(Signature((1,))), 0, 1e-10), 0, caught=())
        assert (result.samples, len(refs)) == (9, 6)


@pytest.mark.parametrize("signature", ["+", "++", "-", "-+", "+-+"])
def test_every_scale_is_finite_and_positive(signature):
    # the contract of a check: _run_check divides by each scale with no mask
    sig = Signature.from_string(signature)
    for position, (name, draws, residuals, _) in enumerate(verify._checks_for(sig)):
        for terms in residuals(sig, _sample_blocks(sig, (0, position), 64, draws)):
            for _, scale in terms:
                scale = np.asarray(scale)
                assert np.isfinite(scale).all() and (scale > 0).all(), name


@pytest.mark.parametrize("signature", ["+", "++", "-", "-+"])
def test_oracle_yields_the_signed_closed_form_and_span_gaps(signature):
    sig = Signature.from_string(signature)
    basis = fiber_component_basis(sig)
    x = np.random.default_rng(6).uniform(-10, 10, (sig.dim, 50))
    [[(closed_gap, scale), (span, span_scale)]] = _oracle(sig, [(0, [x])])
    flat = _embed_flat(x).T
    parts = _parts(x)
    components = basis.components_batch(flat)
    closed = np.stack([getattr(parts, name) for name in basis.names], axis=1)
    assert closed_gap.tobytes() == (closed - components).T.tobytes()
    assert span.tobytes() == (flat - components @ np.stack([t.coeffs for t in basis.tensors])).T.tobytes()
    assert span_scale is scale
    assert scale.tobytes() == (parts.dt + 1.0 if sig.n == 1 else parts.dt + parts.H + 1e-300).tobytes()


# The checks whose diffs are polynomials in their draws, exactly 0 on rows of Fractions, and the turn
# at one generator.  The rest stay float-only: at two generators only the turn's np.sqrt cross scale
# is (TestTurnLaw checks its gaps exactly), oracle_equivalence and sector_completeness multiply by
# float matrices, max_speed is an inequality on |vec|, and projector_algebra, the minimum-action
# checks and lift_round_trip build their elements, flags or roots in floats.
EXACT_BY_SIGNATURE = {
    "+": ["product_laws", "embed_homomorphism", "tangent_norm_identity", "boost_invariance"],
    "++": ["product_laws", "embed_homomorphism", "norm_identities", "cross_square_identities"],
    "-": ["product_laws", "embed_homomorphism", "rotation_invariance"],
    "-+": ["product_laws", "embed_homomorphism"],
    "+-+": ["product_laws", "embed_homomorphism"],
}


@pytest.mark.parametrize("signature", list(EXACT_BY_SIGNATURE))
def test_polynomial_checks_are_exact_on_dyadic_fraction_rows(signature):
    # Each float draw is a dyadic Fraction, exactly; t's too, so the turn's unit is exact.
    sig = Signature.from_string(signature)
    checked = []
    for position, (name, draws, residuals, _) in enumerate(verify._checks_for(sig)):
        if name in EXACT_BY_SIGNATURE[signature]:
            _, arrays = next(_sample_blocks(sig, (0, position), 5, draws))
            [terms] = residuals(sig, [(0, [np.vectorize(Fraction, otypes=[object])(a) for a in arrays])])
            for diff, _ in terms:
                values = np.ravel(diff).tolist()
                assert all(type(v) is Fraction for v in values), name
                assert all(v == 0 for v in values), name
            checked.append(name)
    assert checked == EXACT_BY_SIGNATURE[signature]


def test_a_sign_error_in_the_sector_parts_fails_the_exact_test(monkeypatch):
    # cb + da where cb - da belongs: c_minus_e12 reads c_plus_e1
    monkeypatch.setattr(verify, "_sector_parts", lambda *x: (f := _sector_parts(*x))._replace(c_minus_e12=f.c_plus_e1))
    with pytest.raises(AssertionError, match="cross_square_identities"):
        test_polynomial_checks_are_exact_on_dyadic_fraction_rows("++")


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

    DRAWS = [
        _Draw("uniform", -1.0, 1.0, (3,)),
        _Draw("integers", -3, 4),
        _Draw("uniform", 0.0, 1.0),
        _Draw("integers", -2560, 2561),
        _Draw("uniform", -1.0, 1.0, (2,)),
    ]

    @staticmethod
    def blocks(draws, monkeypatch):
        """The ``(lo, arrays)`` blocks of 1002 rows of ``draws`` under the key (4, 2), at 7 rows a block."""
        monkeypatch.setattr(verify, "BLOCK_VALUES", 7 * 4)
        blocks = list(_sample_blocks(Signature((1,)), (4, 2), 1002, draws))
        # coefficient-major: one contiguous row of the block per coefficient
        assert all(array.flags.c_contiguous for _, arrays in blocks for array in arrays)
        return blocks

    def test_blocks_match_one_full_size_draw(self, monkeypatch):
        # An integers array draws 32-bit halves, and a block of 7 rows leaves
        # a spare half that the next block of the array takes first.
        blocks = self.blocks(self.DRAWS, monkeypatch)
        assert [lo for lo, _ in blocks] == list(range(0, 1001, 7))  # the one-row tail joins the last block
        for k, draw in enumerate(self.DRAWS):
            expected = draw.take(np.random.default_rng([4, 2, k]), 1002)
            got = np.concatenate([arrays[k] for _, arrays in blocks], axis=-1)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected.T)

    def test_an_array_keeps_its_blocks_when_another_array_changes(self, monkeypatch):
        before = self.blocks(self.DRAWS, monkeypatch)
        after = self.blocks([_Draw("uniform", -1.0, 1.0, (5,)), *self.DRAWS[1:], _Draw("integers", 0, 9)], monkeypatch)
        assert [lo for lo, _ in after] == [lo for lo, _ in before]
        for (_, old), (_, new) in zip(before, after):
            assert new[0].shape[0] == 5 and len(new) == len(old) + 1
            for k in range(1, len(old)):
                assert np.array_equal(new[k], old[k])

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
    @pytest.mark.parametrize("signature", VERIFY_GOLDENS)
    def test_goldens_at_any_block_size(self, rows, signature, monkeypatch, capsys):
        monkeypatch.setattr(verify, "BLOCK_VALUES", rows * 16)
        assert main(["verify", signature, "2000", "0"]) == 0
        assert capsys.readouterr().out == golden(f"verify {signature} 2000 0")

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
        # Every check runs here: run_verification would run some of them in
        # its helper process, out of tracemalloc's sight.
        monkeypatch.setattr(verify, "BLOCK_VALUES", 256 * 16)
        sig = Signature.from_string("++")
        count = len(verify._checks_for(sig))

        def sweep(samples):
            for position in range(count):
                verify._run_check((sig, samples, 0, 1e-10), position)

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
