"""Command line front end.

Four subcommands cover the library surface: ``decompose`` prints the sector
components of one element, ``verify`` runs the seeded identity sweeps, ``boost``
shows a decomposition before and after a hyperbolic transformation with the gaps
in the boost laws, and ``trajectory`` integrates the free-particle action.

Reports are emitted as one JSON document per invocation (``--format
csv`` and ``--format pretty`` flatten the same payload).  Output is
byte-deterministic for a fixed invocation including the seed.  The module
renders what library calls return and makes no pass/fail decision: exit
code 1 reads ``VerificationReport.passed``, ``boost_check``'s flag or
``ActionIntegral.passed``.  Exit codes: 0 success, 1 property or tolerance
failure, 2 usage error, which includes non-finite number arguments and
results beyond the float range.

``verify`` takes its values positionally, as ``verify SIGNATURE [SAMPLES]
[SEED] [TOL]``; ``decompose`` and ``boost`` take a tolerance as ``--tol``.
Every value left out takes its default, shown by ``--help``.  Options may
stand anywhere after the subcommand, between its values too, except in a
call that holds a ``--``: there they come before the values.

Signatures are written as '+'/'-' strings ('++' is the fiber algebra).
Because a leading '-' reads as a flag, signatures that start with a
minus can be written with the 'm'/'p' aliases (for example ``m+``) or
after a ``--`` separator.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

from .algebra import MAX_GENERATORS, AlgebraElement, Signature
from .fiber import (
    EUCLIDEAN_FIBER_SIGNATURE,
    EUCLIDEAN_TANGENT_SIGNATURE,
    FIBER_SIGNATURE,
    TANGENT_SIGNATURE,
    boost_check,
    classify_causal,
    decompose_c2,
    decompose_d2,
    decompose_euclidean,
    factorize,
    is_min_action,
    trajectory_action,
)

__all__ = ["main", "build_parser", "entry"]

SCHEMA_VERSION = "1"
DEFAULT_SAMPLES = 10000
DEFAULT_SEED = 0
DEFAULT_TOL = 1e-10


class _Parser(argparse.ArgumentParser):
    """A parser, subparsers included, that reads "-2e-3" as a number; Python 3.11's reads a flag.

    A subcommand's parser reads options between its values: a plain parse
    closes every "?" and "*" value at the first option.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")
        self._intermixing = False

    def parse_known_args(self, args=None, namespace=None):
        # The intermixed parse calls back in here; it refuses the top-level
        # parser, and on Python 3.11 it drops the value after a "--".
        if self._intermixing or self._subparsers is not None or "--" in args:
            return super().parse_known_args(args, namespace)
        self._intermixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixing = False


def _signature_arg(text: str) -> Signature:
    try:
        return Signature.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be at least 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "pretty"), default="json", help="output format"
    )
    with_tol = argparse.ArgumentParser(add_help=False, parents=[common])
    with_tol.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="tolerance (default: %(default)s)")

    parser = _Parser(
        prog="fiberalg",
        description="Decompose squared group-algebra elements into tangent, momentum, "
        "and action-flow components, and verify the identities they satisfy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[with_tol], help="decompose one element")
    p.add_argument("signature", type=_signature_arg, help="signature string, e.g. ++")
    p.add_argument("coeffs", nargs="*", type=_finite_float, help="coefficients in subset-bitmask order")
    p.add_argument("--labels", action="store_true", help="print the basis order and exit")

    p = sub.add_parser("verify", parents=[common], help="run the identity sweeps")
    p.add_argument("signature", type=_signature_arg)
    # The intermixed parse hides these defaults from the options it reads, "--help" too.
    p.add_argument("samples", nargs="?", type=int, default=DEFAULT_SAMPLES, help=f"sample count (default: {DEFAULT_SAMPLES})")
    p.add_argument("seed", nargs="?", type=int, default=DEFAULT_SEED, help=f"PRNG seed (default: {DEFAULT_SEED})")
    p.add_argument("tol", nargs="?", type=_tolerance, default=DEFAULT_TOL, help=f"tolerance (default: {DEFAULT_TOL})")

    p = sub.add_parser("boost", parents=[with_tol], help="decompose before and after a boost")
    p.add_argument("signature", type=_signature_arg)
    p.add_argument("values", nargs="+", type=_finite_float, help="coefficients followed by the rapidity")

    p = sub.add_parser("trajectory", parents=[common], help="integrate the free-particle action")
    p.add_argument("mass", type=_finite_float)
    p.add_argument("rapidity", type=_finite_float)
    p.add_argument("span", type=_finite_float)
    p.add_argument("steps", type=int)
    return parser


def _tangent_dict(t) -> dict:
    return {"dt_dlambda": t.dt, "dq_dlambda": t.dq, "ds_dlambda": t.ds}


def _fiber_dict(element: AlgebraElement, tol: float) -> dict:
    dec = decompose_d2(element)
    minimal = is_min_action(element, tol)
    try:
        factors = factorize(element, tol)
    except ValueError:  # not minimal, a zero scalar part, or 1/x0 past the float range
        factorization = None
    else:
        factorization = {
            "scale": factors.scale,
            "factor_e1": list(factors.first.values),
            "factor_e2": list(factors.second.values),
        }
    return {
        "tangent": _tangent_dict(dec.tangent),
        "momentum": vars(dec.momentum),
        "cross": vars(dec.cross),
        "dS_dlambda": dec.action_rate,
        "residual": dec.min_action_residual,
        "minimal": minimal,
        "causal_class": classify_causal(element, tol).value,
        "factorization": factorization,
    }


def _euclidean_fiber_dict(dec) -> dict:
    return {
        "tangent": vars(dec.tangent),
        "momentum": vars(dec.momentum),
        "cross": {
            "invariant_1": dec.cross_invariant_1,
            "invariant_e12": dec.cross_invariant_e12,
            "vec_1": dec.cross_vec_1,
            "vec_e1": dec.cross_vec_e1,
        },
    }


def _decompose_payload(signature: Signature, coeffs: list[float], tol: float) -> dict:
    element = AlgebraElement(signature, coeffs)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "decompose",
        "signature": str(signature),
        "coefficients": coeffs,
        "tolerance": tol,
    }
    if signature == TANGENT_SIGNATURE:
        triple = decompose_c2(element)
        payload["tangent"] = _tangent_dict(triple)
        payload["causal_class"] = classify_causal(element, tol).value
    elif signature == FIBER_SIGNATURE:
        payload.update(_fiber_dict(element, tol))
    elif signature == EUCLIDEAN_TANGENT_SIGNATURE:
        sector = decompose_euclidean(element)
        payload["components"] = {"p_plus_1": sector.invariant, "p_plus_e": sector.vec_e1, "p_minus": sector.vec_1}
    elif signature == EUCLIDEAN_FIBER_SIGNATURE:
        payload["components"] = _euclidean_fiber_dict(decompose_euclidean(element))
    else:
        raise ValueError(
            f"decomposition is defined for signatures +, ++, -, -+; got {signature}"
        )
    return payload


def _cmd_decompose(args, parser) -> tuple[dict, int]:
    signature = args.signature
    if args.labels:
        if args.coeffs:
            parser.error(f"--labels takes no coefficients, got {len(args.coeffs)}")
        if signature.n > MAX_GENERATORS:
            message = f"--labels supports at most {MAX_GENERATORS} generators, got {signature.n} in {signature}"
            parser.exit(2, f"{parser.prog}: error: {message}\n")
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "labels",
            "signature": str(signature),
            "basis": list(signature.basis_labels()),
        }
        return payload, 0
    if len(args.coeffs) != signature.dim:
        parser.error(
            f"signature {signature} needs {signature.dim} coefficients, got {len(args.coeffs)}"
        )
    try:
        payload = _decompose_payload(signature, list(args.coeffs), args.tol)
    except ValueError as exc:
        parser.error(str(exc))
    return payload, 0


def _numpy_call(parser, call, *args):
    """``call(*args)`` with numpy's warnings off; a ``ValueError`` exits 2 with one stderr line."""
    import numpy as np

    try:
        with np.errstate(all="ignore"):
            return call(*args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


def _cmd_verify(args, parser) -> tuple[dict, int]:
    from .verify import run_verification

    report = _numpy_call(parser, run_verification, args.signature, args.samples, args.seed, args.tol)
    payload = {"schema_version": SCHEMA_VERSION, "command": "verify"}
    payload.update(report.to_dict())
    return payload, 0 if report.passed else 1


def _cmd_boost(args, parser) -> tuple[dict, int]:
    signature = args.signature
    if len(args.values) != signature.dim + 1:
        parser.error(
            f"boost with signature {signature} needs {signature.dim} coefficients "
            f"plus a rapidity, got {len(args.values)} values"
        )
    coeffs = list(args.values[:-1])
    rapidity = args.values[-1]
    if signature not in (TANGENT_SIGNATURE, FIBER_SIGNATURE):
        parser.error(f"boost requires signature + or ++, got {signature}")
    boosted, residuals, passed = boost_check(AlgebraElement(signature, coeffs), rapidity, args.tol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "boost",
        "signature": str(signature),
        "rapidity": rapidity,
        "before": _decompose_payload(signature, coeffs, args.tol),
        "after": _decompose_payload(signature, list(boosted.values), args.tol),
        "residuals": residuals,
    }
    return payload, 0 if passed else 1


def _cmd_trajectory(args, parser) -> tuple[dict, int]:
    record = _numpy_call(parser, trajectory_action, args.mass, args.rapidity, args.span, args.steps)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "trajectory",
        "mass": args.mass,
        "rapidity": args.rapidity,
        "span": args.span,
        "steps": args.steps,
        **vars(record),
    }
    return payload, 0 if record.passed else 1


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, str]]:
    rows = []
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, f"{path}."))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                rows.extend(_flatten(item, f"{path}[{i}]."))
        else:
            rows.append((path, value if isinstance(value, str) else json.dumps(value, allow_nan=False)))
    return rows


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    rows = _flatten(payload)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["field", "value"])
        writer.writerows(rows)
        return buffer.getvalue()
    width = max(len(key) for key, _ in rows)
    return "".join(f"{key.ljust(width)}  {value}\n" for key, value in rows)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "decompose": _cmd_decompose,
        "verify": _cmd_verify,
        "boost": _cmd_boost,
        "trajectory": _cmd_trajectory,
    }
    out_of_range = f"{parser.prog}: error: result out of float range: {{}}\n"
    try:
        # Out-of-range results end in exit 2 here, not in warnings; the
        # verify and trajectory handlers silence numpy's through _numpy_call.
        payload, code = handlers[args.command](args, parser)
    except OverflowError as exc:
        parser.exit(2, out_of_range.format(exc))
    try:
        text = _render(payload, args.format)
    except ValueError as exc:  # allow_nan=False met an infinite or NaN result
        parser.exit(2, out_of_range.format(exc))
    sys.stdout.write(text)
    return code


def entry() -> None:
    raise SystemExit(main())
