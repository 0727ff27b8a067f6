"""Verification sweep tests: determinism, coverage, pass/fail wiring, blocking."""

import itertools
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from fiberalg import verify
from fiberalg.algebra import Signature, multiply_coeffs
from fiberalg.cli import main
from fiberalg.fiber import _fiber_sectors, _parts, fiber_component_basis
from fiberalg.verify import _Draw, _embed_flat, _oracle, _row_max, _sample_blocks, _worst_rel, run_verification
from test_cli import VERIFY_GOLDENS, child_env, forbid_products

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
    def test_exception_of_either_process_is_raised_by_the_caller(self, forks, take_first, monkeypatch, capsys, first):
        def boom(sig, blocks):
            raise ValueError("boom")

        monkeypatch.setattr(verify, "_lift_round_trip", boom)
        take_first(first)
        with pytest.raises(ValueError, match="^boom$") as err:
            run_verification("++", 3000, 0, 1e-10)
        # raised by the caller's own run of the check, so its traceback ends in the check
        assert err.traceback[-1].name == "boom"
        assert verify._helper is None
        self.assert_reaped(*forks)
        with pytest.raises(SystemExit) as err:
            main(["verify", "++", "3000", "0"])
        out, stderr = capsys.readouterr()
        assert err.value.code == 2
        assert out == ""
        assert stderr == "fiberalg: error: boom\n"
        assert len(forks) == 2
        self.assert_reaped(forks[1])

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

    def test_exception_that_does_not_pickle_is_raised_as_itself(self, forks, take_first, monkeypatch):
        def raising(sig, blocks):
            raise TwoArguments("x", 3)

        monkeypatch.setattr(verify, "_lift_round_trip", raising)
        take_first("helper")
        with pytest.raises(TwoArguments, match="^x = 3$") as err:
            run_verification("++", 3000, 0, 1e-10)
        assert err.value.value == 3
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


def test_worst_rel_has_the_bits_of_the_max_of_a_masked_divide():
    # _run_check divides once where every scale is positive; the reference
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
    # _run_check's own errstate: 0 / 0, 1 / 0 and inf / inf; 1e300 / 5e-324 overflows
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
