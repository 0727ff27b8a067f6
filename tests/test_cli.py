"""CLI tests: golden outputs, exit codes, formats, determinism."""

import contextlib
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

from fiberalg import algebra, fiber
from fiberalg.cli import main
from fiberalg.fiber import MAX_STEPS

GOLDEN = Path(__file__).parent / "golden"
# The committed JSON Schema of every document the CLI prints; one validator serves the module.
SCHEMA = json.loads((Path(__file__).parent / "cli_schema.json").read_text())
VALIDATOR = Draft202012Validator(SCHEMA)
# (signature, fixture) of `fiberalg verify <signature> 2000 0`
VERIFY_GOLDENS = [
    ("++", "verify_pp.json"),
    ("m+", "verify_mp.json"),
    ("+", "verify_p.json"),
    ("m", "verify_m.json"),
]
# (signature, fixture) of `fiberalg verify <signature> 20000 0`: several
# blocks each, and the 4096-row blocks of the two-generator sweeps
MULTI_BLOCK_GOLDENS = [
    ("++", "verify_pp_20000.json"),
    ("m+", "verify_mp_20000.json"),
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
    def test_tangent_fixture_bytes(self, capsys):
        out, code = run_cli(["decompose", "+", "2", "1"], capsys)
        assert code == 0
        assert out == (GOLDEN / "decompose_c2.json").read_text()

    def test_fiber_fixture_bytes(self, capsys):
        out, code = run_cli(["decompose", "++", "2", "1", "1", "0.5"], capsys)
        assert code == 0
        assert out == (GOLDEN / "decompose_d2.json").read_text()

    def test_boost_fixture_bytes(self, capsys):
        out, code = run_cli(["boost", "++", "2", "1", "1", "0.5", "1.0"], capsys)
        assert code == 0
        assert out == (GOLDEN / "boost_pp.json").read_text()

    @pytest.mark.parametrize(
        "argv, fixture",
        [(["--", "-", "2", "1"], "decompose_m.json"), (["m+", "2", "1", "1", "0.5"], "decompose_mp.json")],
    )
    def test_euclidean_fixture_bytes(self, argv, fixture, capsys):
        out, code = run_cli(["decompose", *argv], capsys)
        assert code == 0
        assert out == (GOLDEN / fixture).read_text()

    def test_repeated_runs_identical(self):
        first = run_process(["decompose", "++", "2", "1", "1", "0.5"])
        second = run_process(["decompose", "++", "2", "1", "1", "0.5"])
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    @pytest.mark.parametrize("signature, fixture", VERIFY_GOLDENS)
    def test_verify_fixture_bytes(self, signature, fixture, capsys):
        out, code = run_cli(["verify", signature, "2000", "0"], capsys)
        assert code == 0
        assert out == (GOLDEN / fixture).read_text()

    @pytest.mark.parametrize("signature, fixture", MULTI_BLOCK_GOLDENS)
    def test_verify_multi_block_fixture_bytes(self, signature, fixture, capsys):
        out, code = run_cli(["verify", signature, "20000", "0"], capsys)
        assert code == 0
        assert out == (GOLDEN / fixture).read_text()

    def test_verify_deterministic_with_seed(self, capsys):
        argv = ["verify", "++", "300", "42", "1e-10"]
        out1, code1 = run_cli(argv, capsys)
        out2, code2 = run_cli(argv, capsys)
        assert out1 == out2
        assert code1 == code2 == 0

    def test_fixture_schema(self):
        payload = json.loads((GOLDEN / "decompose_d2.json").read_text())
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

    @pytest.mark.parametrize("fixture", sorted(path.name for path in GOLDEN.glob("*.json")))
    def test_golden_validates(self, fixture):
        VALIDATOR.validate(json.loads((GOLDEN / fixture).read_text()))

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
        "fixture, path, value",
        [
            ("decompose_d2.json", ("causal_class",), "null"),
            ("decompose_d2.json", ("factorization",), {"scale": 0.5}),
            ("decompose_d2.json", ("tangent", "dt_dlambda"), "11.25"),
            ("decompose_d2.json", ("signature",), "-+"),
            ("decompose_m.json", ("components", "invariant"), 5.0),
            ("decompose_mp.json", ("components", "cross", "vec_e12"), 0.0),
            ("verify_p.json", ("config", "seed"), -1),
            ("boost_pp.json", ("residuals", "matrix_q"), 0.0),
            ("boost_pp.json", ("schema_version",), "2"),
        ],
    )
    def test_schema_rejects_a_changed_document(self, fixture, path, value):
        payload = json.loads((GOLDEN / fixture).read_text())
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
        for key in ("matrix_dt", "matrix_dq", "matrix_H", "matrix_p"):
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

    def test_wrong_value_count_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["boost", "++", "1", "0", "0", "0"])
        assert err.value.code == 2


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
            # the lift loses dt under H, or H under dt: the action is far off
            (["1e40", "0", "1", "5"], 1),
            (["1e20", "0.3", "1", "1000"], 1),
            (["1e-30", "0", "1", "5"], 1),
            # off by rounding alone, relative 3e-12, absolute 3e-3
            (["1e9", "0.3", "1", "1000"], 0),
        ],
    )
    def test_gate_is_relative_to_the_closed_form(self, argv, expected, capsys):
        out, code = run_cli(["trajectory", *argv], capsys)
        payload = json.loads(out)
        assert code == expected
        assert payload["analytic_S"] == -payload["mass"] * payload["span"]

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


# (argv, fixture) of every golden call without a "--", and each option of its
# subcommand at the default value, which leaves the golden bytes as they are
OPTION_GOLDENS = [
    (["decompose", "+", "2", "1"], "decompose_c2.json"),
    (["decompose", "++", "2", "1", "1", "0.5"], "decompose_d2.json"),
    (["decompose", "m+", "2", "1", "1", "0.5"], "decompose_mp.json"),
    (["boost", "++", "2", "1", "1", "0.5", "1.0"], "boost_pp.json"),
    *[(["verify", signature, "2000", "0"], fixture) for signature, fixture in VERIFY_GOLDENS],
]
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

    @pytest.mark.parametrize("argv, fixture", OPTION_GOLDENS)
    def test_golden_bytes_with_an_option_in_every_gap(self, argv, fixture, capsys):
        expected = (GOLDEN / fixture).read_text()
        for option in DEFAULT_OPTIONS[argv[0]]:
            for gap in range(1, len(argv) + 1):
                assert run_cli([*argv[:gap], *option, *argv[gap:]], capsys) == (expected, 0), (option, gap)


class TestFormats:
    def test_csv(self, capsys):
        out, code = run_cli(["decompose", "+", "2", "1", "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "field,value"
        assert "tangent.dt_dlambda,5.0" in lines

    def test_pretty(self, capsys):
        out, code = run_cli(["decompose", "+", "2", "1", "--format", "pretty"], capsys)
        assert code == 0
        assert "tangent.dt_dlambda" in out
        assert "5.0" in out

    def test_csv_round_trips_values(self, capsys):
        out, _ = run_cli(["decompose", "++", "2", "1", "1", "0.5", "--format", "csv"], capsys)
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert json.loads(rows["dS_dlambda"]) == -5.0625
        assert json.loads(rows["residual"]) == 0.0
