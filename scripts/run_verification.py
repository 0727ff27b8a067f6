#!/usr/bin/env python3
"""Run the identity sweeps over every supported signature and print a table.

Exits 0 when every property passes, 1 when one fails, and 2 with one
stderr line when an argument is out of range: a sample count below 1,
a negative seed, or a negative or non-finite tolerance.
"""

import argparse
import sys

from fiberalg.verify import run_verification

SIGNATURES = ("+", "++", "-", "-+")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tol", type=float, default=1e-10)
    args = parser.parse_args()

    all_passed = True
    for signature in SIGNATURES:
        try:
            report = run_verification(signature, args.samples, args.seed, args.tol)
        except ValueError as exc:  # an argument out of range, found before any draw
            print(f"{parser.prog}: error: {exc}", file=sys.stderr)
            return 2
        all_passed &= report.passed
        print(f"signature {signature!r}  samples={args.samples}  seed={args.seed}  tol={args.tol}")
        for prop in report.properties:
            flag = "ok " if prop.passed else "FAIL"
            print(
                f"  [{flag}] {prop.name:<24} n={prop.samples:<7}"
                f" max_abs={prop.max_abs_residual:.3e}  max_rel={prop.max_rel_residual:.3e}"
            )
        print()
    print("overall:", "pass" if all_passed else "FAIL")
    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
