#!/usr/bin/env python3
"""Step-count sweep of the free-particle action integral.

The integrand is constant, so the error against the closed form
-mass * span comes from rounding alone: in the action rate read back
from the lifted element, and in the step sum.  The sweep makes that
visible across six orders of magnitude in resolution.
"""

import argparse

from fiberalg.fiber import trajectory_action


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mass", type=float, default=0.75)
    parser.add_argument("--rapidity", type=float, default=0.5493061443340549)
    parser.add_argument("--span", type=float, default=1.0)
    args = parser.parse_args()

    print(f"mass={args.mass}  rapidity={args.rapidity}  span={args.span}")
    print(f"{'steps':>9}  {'numeric_S':>22}  {'analytic_S':>22}  {'|error|':>11}")
    for exponent in range(7):
        steps = 10**exponent
        record = trajectory_action(args.mass, args.rapidity, args.span, steps)
        print(
            f"{steps:>9}  {record.numeric_S:>22.16f}  {record.analytic_S:>22.16f}"
            f"  {record.error:>11.3e}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
