"""CLI tests: the stdout that the replay net holds, exit codes, formats, determinism."""

import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from fiberalg import algebra, fiber, verify
from fiberalg.cli import main
from fiberalg.fiber import MAX_STEPS

from replay_net import golden, replay_lines

# The committed JSON Schema of every document the CLI prints; one validator serves the module.
SCHEMA = json.loads((Path(__file__).parent / "cli_schema.json").read_text())
VALIDATOR = Draft202012Validator(SCHEMA)
# The signatures of `fiberalg verify <signature> 2000 0`, whose stdout the replay net holds
VERIFY_GOLDENS = ["++", "m+", "+", "m"]
# (argv, the replay net's label of a call with the same stdout) of each call whose bytes the tests pin;
# those without a "--" come first
OPTION_GOLDENS = [
    (["decompose", "+", "2", "1"], "decompose + 2 1"),
    (["decompose", "++", "2", "1", "1", "0.5"], "decompose ++ 2 1 1 0.5 --format json"),
    (["decompose", "m+", "2", "1", "1", "0.5"], "decompose m+ 2 1 1 0.5"),
    (["boost", "++", "2", "1", "1", "0.5", "1.0"], "boost ++ 2 1 1 0.5 1.0"),
    *[(["verify", signature, "2000", "0"], f"verify {signature} 2000 0") for signature in VERIFY_GOLDENS],
]
GOLDENS = [
    *OPTION_GOLDENS,
    (["decompose", "--", "-", "2", "1"], "decompose -- - 2 1"),
    # several blocks each, and the 4096-row blocks of the two-generator sweeps
    *[(["verify", signature, "20000", "0"], f"verify {signature} 20000 0") for signature in ("++", "m+")],
]
# The label of each CLI call of the replay net that prints a json document; a call that exits 2 prints none
JSON_CALLS = [
    label
    for label, value in replay_lines().items()
    if label.startswith("fiberalg ") and {"csv", "pretty"}.isdisjoint(label.split()) and json.loads(value)[1]
]


def forbid_products(monkeypatch):
    """Make every product entry fail, so a call that returns shows that no product ran."""
    from fiberalg import tensor, verify

    def product(*args):
        raise AssertionError("a product was built")

    for module, name in [(algebra, "_product"), (algebra, "multiply_coeffs"), (tensor, "multiply_coeffs"), (verify, "multiply_coeffs")]:
        monkeypatch.setattr(module, name, product)


def run_cli(argv, capsys):
    code = main(argv)
    return capsys.readouterr().out, code


def child_env():
    """The environment with this tree's ``src`` first on ``PYTHONPATH``, for a child that imports fiberalg."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_process(argv):
    return subprocess.run(
        [sys.executable, "-m", "fiberalg", *argv], capture_output=True, text=True, env=child_env(), timeout=120
    )


class TestGolden:
    @pytest.mark.parametrize("argv, label", GOLDENS, ids=[label for _, label in GOLDENS])
    def test_stdout_is_the_replay_line(self, argv, label, capsys):
        assert run_cli(argv, capsys) == (golden(label), 0)

    def test_repeated_runs_identical(self):
        first = run_process(["decompose", "++", "2", "1", "1", "0.5"])
        second = run_process(["decompose", "++", "2", "1", "1", "0.5"])
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_verify_deterministic_with_seed(self, capsys):
        argv = ["verify", "++", "300", "42", "1e-10"]
        out1, code1 = run_cli(argv, capsys)
        out2, code2 = run_cli(argv, capsys)
        assert out1 == out2
        assert code1 == code2 == 0

    def test_fixture_schema(self):
        payload = json.loads(golden("decompose ++ 2 1 1 0.5 --format json"))
        assert payload["schema_version"] == "1"
        assert set(payload) == {
            "schema_version",
            "command",
            "signature",
            "coefficients",
            "tolerance",
            "tangent",
            "momentum",
            "cross",
            "dS_dlambda",
            "residual",
            "minimal",
            "causal_class",
            "factorization",
        }
        assert payload["minimal"] is True
        assert payload["factorization"]["scale"] == 0.5


class TestSchema:
    def test_schema_is_draft_2020_12(self):
        Draft202012Validator.check_schema(SCHEMA)

    # every json document that the replay net's CLI calls print: a csv or pretty one is not json
    @pytest.mark.parametrize("label", JSON_CALLS)
    def test_golden_validates(self, label):
        VALIDATOR.validate(json.loads(json.loads(replay_lines()[label])[1]))

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "++", "--labels"],
            ["decompose", "m", "--labels"],
            ["decompose", "++", "1", "0", "0", "1"],  # a null factorization
            ["boost", "+", "3", "1", "0.7"],
            ["verify", "+-+", "20", "3"],
            ["trajectory", "1.3", "0.4", "1.7", "100"],
        ],
        ids=" ".join,
    )
    def test_each_command_validates(self, argv, capsys):
        out, code = run_cli(argv, capsys)
        assert code == 0
        VALIDATOR.validate(json.loads(out))

    @pytest.mark.parametrize(
        "call, path, value",
        [
            ("decompose ++ 2 1 1 0.5 --format json", ("causal_class",), "null"),
            ("decompose ++ 2 1 1 0.5 --format json", ("factorization",), {"scale": 0.5}),
            ("decompose ++ 2 1 1 0.5 --format json", ("tangent", "dt_dlambda"), "11.25"),
            ("decompose ++ 2 1 1 0.5 --format json", ("signature",), "-+"),
            ("decompose -- - 2 1", ("components", "invariant"), 5.0),
            ("decompose m+ 2 1 1 0.5", ("components", "cross", "vec_e12"), 0.0),
            ("verify + 2000 0", ("config", "seed"), -1),
            ("boost ++ 2 1 1 0.5 1.0", ("residuals", "matrix_q"), 0.0),
            ("boost ++ 2 1 1 0.5 1.0", ("schema_version",), "2"),
        ],
    )
    def test_schema_rejects_a_changed_document(self, call, path, value):
        payload = json.loads(golden(call))
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert not VALIDATOR.is_valid(payload)


class TestDecompose:
    def test_non_minimal_reports_residual(self, capsys):
        out, code = run_cli(["decompose", "++", "1", "0", "0", "1"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["minimal"] is False
        assert payload["residual"] == 2.0
        assert payload["factorization"] is None
        assert payload["causal_class"] == "lightlike"

    # A scalar has ds = dt, so it is timelike at any magnitude, also where ds**2 leaves the float range
    # and where dt itself underflows.
    @pytest.mark.parametrize(
        "coeffs",
        [("+", "1e-3", "0"), ("+", "1e-4", "0"), ("+", "1e-6", "0"), ("++", "1e-4", "0", "0", "0"),
         ("+", "1e100", "0"), ("+", "1e-160", "0"), ("+", "1e-170", "0"), ("++", "1e-310", "0", "0", "0")],
        ids=" ".join,
    )
    def test_scalar_is_timelike_at_any_scale(self, coeffs, capsys):
        out, code = run_cli(["decompose", *coeffs], capsys)
        assert code == 0
        assert json.loads(out)["causal_class"] == "timelike"

    def test_minimality_where_squares_underflow(self, capsys):
        # x0 x3 - x1 x2 and |x|**2 both underflow to 0; the factors would rebuild [1, 2, 3, 6] * 1e-170
        payload = json.loads(run_cli(["decompose", "++", "1e-170", "2e-170", "3e-170", "4e-170"], capsys)[0])
        assert (payload["minimal"], payload["factorization"]) == (False, None)

    def test_causal_tol_is_relative_to_dt_squared(self, capsys):
        # ds**2 = 400 sits inside 0.5 * dt**2 = 1352 and outside 0.1 * dt**2 = 270.4
        classes = [json.loads(run_cli(["decompose", "++", "1", "2", "3", "4", "--tol", tol], capsys)[0])["causal_class"]
                   for tol in ("0.5", "0.1")]
        assert classes == ["lightlike", "timelike"]

    def test_euclidean_plane(self, capsys):
        out, code = run_cli(["decompose", "m", "2", "1"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["components"] == {"p_plus_1": 5.0, "p_plus_e": 4.0, "p_minus": 3.0}

    def test_euclidean_fiber(self, capsys):
        out, code = run_cli(["decompose", "m+", "2", "1", "1", "0.5"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["components"]["tangent"]["invariant"] == 11.25

    def test_dash_signature_after_separator(self, capsys):
        out, code = run_cli(["decompose", "--", "-+", "1", "0", "0", "0"], capsys)
        assert code == 0
        assert json.loads(out)["signature"] == "-+"

    def test_labels(self, capsys):
        out, code = run_cli(["decompose", "++", "--labels"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["basis"] == ["1", "e1", "e2", "e12"]

    @pytest.mark.parametrize("n", [7, 40])
    def test_labels_above_the_generator_cap_exit_2(self, n, capsys):
        # 2**n labels: at 24 generators the listing ran past a minute
        with pytest.raises(SystemExit) as err:
            main(["decompose", "+" * n, "--labels"])
        out, stderr = capsys.readouterr()
        assert err.value.code == 2
        assert out == ""
        assert stderr == f"fiberalg: error: --labels supports at most 6 generators, got {n} in {'+' * n}\n"

    @pytest.mark.parametrize("argv", [["decompose", "++", "1", "--labels"], ["decompose", "++", "--labels", "1"]])
    def test_labels_with_coefficients_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == "fiberalg: error: --labels takes no coefficients, got 1"

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "++", "1e-310", "0", "0", "0"],
            ["decompose", "++", "5e-324", "5e-324", "5e-324", "5e-324"],
            ["boost", "++", "1e-310", "0", "0", "0", "0.1"],
        ],
    )
    def test_tiny_scalar_part_prints_no_factorization(self, argv, capsys):
        out, code = run_cli(argv, capsys)
        payload = json.loads(out)
        assert code == 0
        for dec in (payload["before"], payload["after"]) if argv[0] == "boost" else (payload,):
            assert dec["minimal"] is True
            assert dec["factorization"] is None

    def test_minimality_and_factorization_use_tol(self, capsys):
        out, code = run_cli(["decompose", "++", "2", "1", "1", "0.5001", "--tol", "1e-3"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["minimal"] is True
        assert payload["factorization"]["scale"] == 0.5

    def test_wrong_arity_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["decompose", "++", "1", "0", "0"])
        assert err.value.code == 2

    def test_unknown_signature_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["decompose", "x+", "1", "0", "0", "0"])
        assert err.value.code == 2

    def test_unsupported_signature_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["decompose", "+++", "1", "0", "0", "0", "0", "0", "0", "0"])
        assert err.value.code == 2

    def test_invalid_number_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["decompose", "+", "abc", "1"])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == "fiberalg decompose: error: argument coeffs: invalid number: 'abc'"


# Non-finite input, and results beyond the float range.
BOUNDARY_CALLS = [
    ["decompose", "++", "nan", "1", "1", "1"],
    ["decompose", "++", "inf", "1", "1", "1"],
    ["trajectory", "1", "nan", "1", "10"],
    ["verify", "++", "10", "0", "nan"],
    ["boost", "++", "1", "0", "0", "0", "1000"],
    ["boost", "++", "1", "0", "0", "0", "400"],
    ["decompose", "++", "1e160", "1", "1", "1"],
    ["decompose", "++", "1e200", "1", "1", "1"],
    ["decompose", "m+", "1e200", "1", "1", "1"],
    # a negative tolerance
    ["decompose", "+", "1", "1", "--tol", "-1"],
    ["decompose", "++", "1", "0", "0", "0", "--tol", "-1"],
    ["boost", "++", "1", "0", "0", "0", "0.5", "--tol", "-1e-300"],
    ["verify", "+", "50", "0", "-1"],
    # an option the subcommand does not read: verify takes its values positionally only
    ["trajectory", "1", "0", "1", "10", "--tol", "1e-30"],
    ["decompose", "++", "1", "0", "0", "0", "--seed", "5"],
    ["decompose", "++", "1", "0", "0", "0", "--samples", "9"],
    ["boost", "++", "1", "0", "0", "0", "0.5", "--seed", "5"],
    ["verify", "+", "50", "--tol", "-1"],
    ["verify", "++", "--seed", "5"],
    ["verify", "++", "--samples", "10"],
    ["verify", "++", "10", "--tol", "0.5"],
    # --labels beside coefficients, of the right count or not
    ["decompose", "++", "1", "--labels"],
    ["decompose", "++", "--labels", "1"],
    ["decompose", "+", "1", "2", "--labels"],
    ["decompose", "++", "--labels", "--", "1", "0", "0", "0"],
]


@pytest.mark.parametrize("argv", BOUNDARY_CALLS, ids=" ".join)
def test_boundary_call_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    out, stderr = capsys.readouterr()
    assert err.value.code == 2
    assert out == ""
    assert "Traceback" not in stderr


# Negative numbers in exponent notation are values, not flags.
EXPONENT_CALLS = [
    ["boost", "+", "1", "0", "-2e-3"],
    ["decompose", "+", "-1e-300", "1"],
    ["decompose", "+", "-1E5", "1"],
    ["trajectory", "1", "-1e-3", "1", "10"],
]


@pytest.mark.parametrize("argv", EXPONENT_CALLS, ids=" ".join)
def test_negative_exponent_is_a_value(argv, capsys):
    out, code = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == argv[0]


def test_negative_exponent_tolerance_is_rejected_as_a_value(capsys):
    with pytest.raises(SystemExit) as err:
        main(["decompose", "+", "1", "1", "--tol", "-1e-3"])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "fiberalg decompose: error: argument --tol: tolerance must be at least 0, got '-1e-3'"
    )


def _reject_constant(name):
    raise ValueError(f"bare {name} in the output")


_MAIN_TARGETS = [
    ("decompose", "+", 2),
    ("decompose", "++", 4),
    ("decompose", "m", 2),
    ("decompose", "m+", 4),
    ("boost", "+", 2),
    ("boost", "++", 4),
]


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _main_calls(draw, separator=True):
    """(argv, tol) of a decompose or boost call over the full finite float range."""
    command, signature, dim = draw(st.sampled_from(_MAIN_TARGETS))
    values = draw(st.lists(_finite, min_size=dim, max_size=dim))
    if command == "boost":
        values.append(draw(st.floats(-800.0, 800.0)))
    tol = draw(st.floats(-1e308, 1e308))
    if separator:  # options first, and "--" before the positionals
        return [command, f"--tol={tol!r}", "--", signature, *map(repr, values)], tol
    return [command, signature, *map(repr, values), "--tol", repr(tol)], tol


def _check_main(argv) -> int:
    """Run ``main``; check it printed a finite document or exited 2 with one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        # argparse prints the usage above its error line
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert errors == err.getvalue().splitlines()[-1:]
    else:
        VALIDATOR.validate(json.loads(out.getvalue(), parse_constant=_reject_constant))
    return code


@settings(max_examples=200, deadline=None)
@given(_main_calls())
def test_main_prints_a_finite_document_or_exits_2(call):
    argv, tol = call
    code = _check_main(argv)
    if tol < 0:
        assert code == 2


@settings(max_examples=200, deadline=None)
@given(_main_calls(separator=False))
def test_main_reads_negative_numbers_without_separator(call):
    argv, tol = call
    code = _check_main(argv)
    if tol < 0:
        assert code == 2


@st.composite
def _trajectory_and_verify_calls(draw):
    """argv of a trajectory call over the full finite float range, or of a small verify."""
    if draw(st.booleans()):
        mass, rapidity, span = draw(st.tuples(_finite, _finite, _finite))
        steps = draw(st.integers(-1, 1000))
        return ["trajectory", repr(mass), repr(rapidity), repr(span), str(steps)]
    signature = draw(st.sampled_from(["+", "++", "m", "m+", "+-+"]))
    samples = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32))
    tol = draw(st.floats(0.0, 1e308))
    return ["verify", signature, str(samples), str(seed), repr(tol)]


@settings(max_examples=150, deadline=None)
@given(_trajectory_and_verify_calls())
def test_trajectory_and_verify_print_a_finite_document_or_exit_2(argv):
    _check_main(argv)


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        out, code = run_cli(["verify", "+", "200", "1", "1e-10"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["pass"] is True
        assert payload["config"] == {
            "signature": "+",
            "samples": 200,
            "seed": 1,
            "tol": 1e-10,
        }

    def test_zero_samples_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "++", "0", "1", "1e-10"])
        assert err.value.code == 2

    def test_too_many_generators_exits_2(self, capsys, monkeypatch):
        forbid_products(monkeypatch)
        with pytest.raises(SystemExit) as err:
            main(["verify", "+++++++", "10", "0"])
        out, stderr = capsys.readouterr()
        assert err.value.code == 2
        assert out == ""
        assert stderr == "fiberalg: error: verify supports at most 6 generators, got 7 in +++++++\n"

    def test_impossible_tolerance_exits_1(self, capsys):
        out, code = run_cli(["verify", "++", "200", "1", "1e-30"], capsys)
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_property_that_raises_fails_and_exits_1(self, capsys, monkeypatch):
        # the exception is the property's failure, not a traceback; the other properties keep their lines
        argv = ["verify", "++", "3000", "1"]
        expected = json.loads(run_cli(argv, capsys)[0])

        def raising(sig, blocks):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(verify, "_sector_completeness", raising)
        verify._retire()  # a helper runs the module as it stood at its fork
        code = main(argv)
        out, stderr = capsys.readouterr()
        payload = json.loads(out)
        VALIDATOR.validate(payload)
        assert (code, stderr) == (1, "")
        assert payload["pass"] is False
        failed = next(p for p in payload["properties"] if p["name"] == "sector_completeness")
        assert failed == {
            "name": "sector_completeness",
            "samples": 0,
            "max_abs_residual": 0.0,
            "max_rel_residual": 0.0,
            "tolerance": 1e-10,
            "pass": False,
            "error": "ZeroDivisionError: float division by zero",
        }
        assert [p for p in payload["properties"] if p is not failed] == [
            p for p in expected["properties"] if p["name"] != "sector_completeness"
        ]

    @pytest.mark.parametrize("fault", ["fork fails", "helper killed"])
    def test_helper_fault_prints_the_unforked_report(self, capsys, monkeypatch, fault):
        # 3000 samples are past one block of ++, so a process on two CPUs starts a helper
        argv = ["verify", "++", "3000", "1"]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fork, pids = os.fork, []

        def faulty_fork():
            if fault == "fork fails":
                raise BlockingIOError(11, "Resource temporarily unavailable")
            pid = fork()
            if pid == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", faulty_fork)
        code = main(argv)
        out, stderr = capsys.readouterr()
        assert (code, stderr) == (0, "")
        assert len(pids) == (fault == "helper killed")
        for pid in pids:  # reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        monkeypatch.delattr(os, "fork")
        assert out == run_cli(argv, capsys)[0]

    def test_process_with_a_helper_exits_and_prints_the_unforked_report(self, capsys, monkeypatch):
        # on two CPUs the child starts a helper; the pipe of its output ends only once no process holds it
        argv = ["verify", "++", "3000", "0"]
        result = run_process(argv)
        assert (result.returncode, result.stderr) == (0, "")
        monkeypatch.delattr(os, "fork")
        assert result.stdout == run_cli(argv, capsys)[0]


class TestBoost:
    def test_identity_boost(self, capsys):
        out, code = run_cli(["boost", "++", "1", "0", "0", "0", "0.0"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["before"] == payload["after"]
        assert all(v == 0.0 for v in payload["residuals"].values())

    def test_tangent_boost_ln2(self, capsys):
        out, code = run_cli(["boost", "+", "1", "0", "0.6931471805599453"], capsys)
        payload = json.loads(out)
        assert code == 0
        tangent = payload["after"]["tangent"]
        assert abs(tangent["dt_dlambda"] - 17 / 8) <= 1e-12
        assert abs(tangent["dq_dlambda"] - 15 / 8) <= 1e-12
        assert abs(tangent["ds_dlambda"] - 1.0) <= 1e-12

    def test_fiber_boost_preserves_norms(self, capsys):
        out, code = run_cli(["boost", "++", "2", "1", "1", "0.5", "1.0"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["after"]["tangent"]["ds_dlambda"] - 6.75) <= 1e-10
        assert abs(payload["after"]["momentum"]["m"] - 0.75) <= 1e-10
        for key in ("ds_dlambda", "m", "dS_dlambda", "c_minus_1", "c_minus_e12"):
            assert payload["residuals"][key] <= 1e-10
        for key in ("matrix_dt", "matrix_dq", "matrix_H", "matrix_p", "matrix_c_plus_1", "matrix_c_plus_e1"):
            assert payload["residuals"][key] <= 1e-10

    def test_wrong_product_exits_1(self, monkeypatch, capsys):
        product = fiber.multiply

        def last_coefficient_zeroed(x, u):
            values = list(product(x, u).values)
            values[-1] = 0.0
            return algebra.AlgebraElement(x.signature, values)

        monkeypatch.setattr(fiber, "multiply", last_coefficient_zeroed)
        out, code = run_cli(["boost", "++", "2", "1", "1", "0.5", "1.0"], capsys)
        payload = json.loads(out)
        VALIDATOR.validate(payload)
        assert code == 1
        assert payload["residuals"]["matrix_dt"] > 1.0

    def test_residuals_are_gated_by_tol(self, capsys):
        # the golden call's residuals reach 1.4e-14 against a scale of about 96
        _, code = run_cli(["boost", "++", "2", "1", "1", "0.5", "1.0", "--tol", "1e-15"], capsys)
        assert code == 0
        _, code = run_cli(["boost", "++", "2", "1", "1", "0.5", "1.0", "--tol", "1e-17"], capsys)
        assert code == 1

    def test_passes_where_gaps_and_scale_underflow(self, capsys):
        # the largest gaps read 5e-324, and tol times their scale underflows to 0
        _, code = run_cli(["boost", "++", "2e-160", "1e-160", "1e-160", "5e-161", "0.7"], capsys)
        assert code == 0

    def test_wrong_value_count_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["boost", "++", "1", "0", "0", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [["m", "2", "1", "0.5"], ["+-", "1", "2", "3", "4", "0.5"]], ids=" ".join)
    def test_signature_without_a_boost_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(["boost", *argv])
        assert err.value.code == 2
        signature = "-" if argv[0] == "m" else argv[0]
        assert capsys.readouterr().err.splitlines()[-1] == f"fiberalg: error: boost requires signature + or ++, got {signature}"


class TestTrajectory:
    def test_rest_particle(self, capsys):
        out, code = run_cli(["trajectory", "1", "0", "1", "1000"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["numeric_S"] - (-1.0)) <= 1e-12
        assert payload["analytic_S"] == -1.0

    def test_single_step_exact(self, capsys):
        out, code = run_cli(["trajectory", "1", "0", "2", "1"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["numeric_S"] == -2.0
        assert payload["error"] == 0.0

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # a subnormal span: each step keeps a few digits, and the action is far off
            (["1", "0.5", "1e-320", "5"], 1),
            (["1", "0", "1e-318", "1000"], 1),
            (["3", "0.3", "1e-315", "7"], 1),
            # off by rounding alone, relative 1.2e-16, absolute 1.2e24
            (["1e40", "0", "1", "5"], 0),
            (["1e20", "0.3", "1", "1000"], 0),
        ],
    )
    def test_gate_is_relative_to_the_closed_form(self, argv, expected, capsys):
        out, code = run_cli(["trajectory", *argv], capsys)
        payload = json.loads(out)
        assert code == expected
        assert payload["analytic_S"] == -payload["mass"] * payload["span"]

    def test_action_past_the_float_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["trajectory", "1e300", "0", "1e10", "5"])
        out, stderr = capsys.readouterr()
        assert err.value.code == 2
        assert out == ""
        assert stderr.startswith("fiberalg: error: result out of float range: ")
        assert stderr.count("\n") == 1

    def test_bad_mass_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["trajectory", "0", "0", "1", "10"])
        assert err.value.code == 2

    def test_bad_steps_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["trajectory", "1", "0", "1", "0"])
        assert err.value.code == 2

    def test_steps_above_cap_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["trajectory", "1", "0", "1", str(MAX_STEPS + 1)])
        out, stderr = capsys.readouterr()
        assert err.value.code == 2
        assert out == ""
        assert stderr == f"fiberalg: error: steps must be between 1 and {MAX_STEPS}, got {MAX_STEPS + 1}\n"


# Each option of a subcommand at its default value, which leaves the bytes of OPTION_GOLDENS as they are
DEFAULT_OPTIONS = {
    "decompose": [["--format", "json"], ["--tol", "1e-10"], ["--tol=1e-10"]],
    "boost": [["--format", "json"], ["--tol", "1e-10"]],
    "verify": [["--format", "json"], ["--format=json"]],
}


class TestOptionsAnywhere:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "++", "--tol", "1e-9", "1", "2", "3", "4"],
            ["decompose", "++", "--format", "csv", "1", "2", "3", "4"],
            ["verify", "++", "--format", "csv", "100", "1"],
        ],
    )
    def test_option_between_values_reads_as_option_last(self, argv, capsys):
        last = [*argv[:2], *argv[4:], *argv[2:4]]
        out, code = run_cli(argv, capsys)
        assert code == 0
        assert (out, code) == run_cli(last, capsys)

    @pytest.mark.parametrize("argv, label", OPTION_GOLDENS, ids=[label for _, label in OPTION_GOLDENS])
    def test_golden_bytes_with_an_option_in_every_gap(self, argv, label, capsys):
        expected = golden(label)
        for option in DEFAULT_OPTIONS[argv[0]]:
            for gap in range(1, len(argv) + 1):
                assert run_cli([*argv[:gap], *option, *argv[gap:]], capsys) == (expected, 0), (option, gap)


# (argv, one row that its csv and pretty documents hold)
FORMAT_CALLS = [
    (["decompose", "+", "2", "1"], ("tangent.dt_dlambda", "5.0")),
    *[(["verify", signature, "200", "1"], ("pass", "true")) for signature in ("+", "++", "m", "m+")],
]


def flat_rows(out, fmt):
    """The ``(key, value)`` rows of a csv or pretty document."""
    if fmt == "csv":
        lines = out.splitlines()
        assert lines[0] == "field,value"
        return [tuple(row) for row in csv.reader(lines[1:])]
    return [tuple(line.split(maxsplit=1)) for line in out.splitlines()]


def as_text(text):
    """The json in ``text`` with each number kept as its text: ``1`` and ``1.0`` differ, ``1`` and ``"1"`` do not."""
    return json.loads(text, parse_float=str, parse_int=str)


def unflatten(rows):
    """The document whose flat rows are ``rows``: ``a.b`` names a key of ``a``, ``a[i].b`` one of item ``i``."""
    document = {}
    for key, text in rows:
        node = document
        *parents, leaf = key.split(".")
        for part in parents:
            name, _, index = part.partition("[")
            node = node.setdefault(name, [] if index else {})
            if index:
                if len(node) == int(index[:-1]):
                    node.append({})
                node = node[int(index[:-1])]
        try:
            node[leaf] = as_text(text)
        except json.JSONDecodeError:  # a string value is printed bare
            node[leaf] = text
    return document


class TestFormats:
    @pytest.mark.parametrize("argv, row", FORMAT_CALLS, ids=[" ".join(argv) for argv, _ in FORMAT_CALLS])
    def test_csv(self, argv, row, capsys):
        out, code = run_cli([*argv, "--format", "csv"], capsys)
        assert code == 0
        assert ",".join(row) in out.splitlines()
        # the rows rebuild the json document, each value as its json text
        assert json.dumps(unflatten(flat_rows(out, "csv"))) == json.dumps(as_text(run_cli(argv, capsys)[0]))

    @pytest.mark.parametrize("argv, row", FORMAT_CALLS, ids=[" ".join(argv) for argv, _ in FORMAT_CALLS])
    def test_pretty(self, argv, row, capsys):
        out, code = run_cli([*argv, "--format", "pretty"], capsys)
        assert code == 0
        rows = flat_rows(out, "pretty")
        assert row in rows
        assert json.dumps(unflatten(rows)) == json.dumps(as_text(run_cli(argv, capsys)[0]))
        # every value starts in one column
        assert len({len(line) - len(value) for line, (_, value) in zip(out.splitlines(), rows)}) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_failing_verify_exits_1(self, fmt, capsys):
        out, code = run_cli(["verify", "+", "200", "1", "1e-30", "--format", fmt], capsys)
        assert code == 1
        document = json.loads(out) if fmt == "json" else unflatten(flat_rows(out, fmt))
        assert document["pass"] is False

    def test_csv_round_trips_values(self, capsys):
        out, _ = run_cli(["decompose", "++", "2", "1", "1", "0.5", "--format", "csv"], capsys)
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert json.loads(rows["dS_dlambda"]) == -5.0625
        assert json.loads(rows["residual"]) == 0.0
