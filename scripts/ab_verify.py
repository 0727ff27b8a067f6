#!/usr/bin/env python3
"""Time this tree's paper verify sweeps against OTHER_TREE's, one process per tree.

Usage: ab_verify.py OTHER_TREE [--pairs N] [--samples N] [--seed N]

One operation is ``run_verification`` on each of ``+ ++ - -+`` at
``--samples`` samples, tol 1e-10.  Each pair starts one child per tree,
one after the other, and the tree that goes first alternates from pair
to pair.  A child imports its own tree's ``fiberalg``, runs one warm-up
operation and then ``OPS`` timed ones, and returns their median time,
its report bytes (``json.dumps`` of ``to_dict()``), and its peak
resident set (``ru_maxrss``) and minor page faults per timed operation,
for itself (``RUSAGE_SELF``) and for the sweep children that
``run_verification`` forks in it (``RUSAGE_CHILDREN``: the largest peak
of any, and their faults summed; 0 for a tree that forks none).  A
forked child's peak starts from its caller's resident set.

Each pair's reports must have identical bytes.  The script prints the
median and quartiles of the per-pair time ratio, this tree over
OTHER_TREE, and the count of pairs this tree won, and then the median
over the pairs of each memory figure.

Exits 0 when every pair's reports are identical, 1 when one differs or
a child fails, and 2 with one stderr line for a bad argument.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIGNATURES = ("+", "++", "-", "-+")
TOL = 1e-10
OPS = 3

CHILD = """
import json, resource, statistics, sys, time
from fiberalg.verify import run_verification
samples, seed = (int(v) for v in sys.argv[1:])
def op():
    start = time.perf_counter()
    reports = [run_verification(signature, samples, seed, %r) for signature in %r]
    return time.perf_counter() - start, reports
op()
whos = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
before = [resource.getrusage(who).ru_minflt for who in whos]
times, reports = zip(*(op() for _ in range(%d)))
usage = [[u.ru_maxrss / 1024, (u.ru_minflt - b) / len(times)] for u, b in zip(map(resource.getrusage, whos), before)]
print(json.dumps([statistics.median(times), [json.dumps(r.to_dict()) for r in reports[-1]], usage]))
""" % (TOL, SIGNATURES, OPS)


def child(tree: Path, samples: int, seed: int) -> list | None:
    """``[median seconds, report bytes, [[peak MB, faults per operation] for self, children]]``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(samples), str(seed)],
        capture_output=True,
        text=True,
        env=env,
    )
    if result.returncode != 0:
        print(f"{tree}: the child exited {result.returncode}", file=sys.stderr)
        print(result.stderr, end="", file=sys.stderr)
        return None
    return json.loads(result.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, metavar="OTHER_TREE")
    parser.add_argument("--pairs", type=int, default=15)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    if not (args.other / "src" / "fiberalg" / "verify.py").is_file():
        parser.exit(2, f"{parser.prog}: error: {args.other} has no src/fiberalg/verify.py\n")
    if args.pairs < 1 or args.samples < 1 or args.seed < 0:
        parser.exit(2, f"{parser.prog}: error: --pairs and --samples must be at least 1, --seed at least 0\n")

    trees = {"this": ROOT, "other": args.other}
    runs = {"this": [], "other": []}
    for pair in range(args.pairs):
        for side in ("this", "other") if pair % 2 == 0 else ("other", "this"):
            run = child(trees[side], args.samples, args.seed)
            if run is None:
                return 1
            runs[side].append(run)
        for signature, mine, theirs in zip(SIGNATURES, runs["this"][-1][1], runs["other"][-1][1]):
            if mine != theirs:
                print(f"differs: {signature} samples={args.samples} seed={args.seed} in pair {pair}")
                return 1
    ratios = [mine[0] / theirs[0] for mine, theirs in zip(runs["this"], runs["other"])]
    won = sum(ratio < 1 for ratio in ratios)
    low, _, high = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"{args.pairs} pairs of {' '.join(SIGNATURES)} at {args.samples} samples, seed {args.seed}: reports identical")
    print(f"time this/other: median {statistics.median(ratios):.3f} (quartiles {low:.3f}-{high:.3f}), "
          f"this tree faster in {won} of {args.pairs}")
    for index, what, digits in ((0, "peak RSS MB", 2), (1, "minor faults per operation", 0)):
        for row, who in enumerate(("caller", "sweep children")):
            this, other = (statistics.median(run[2][row][index] for run in runs[side]) for side in ("this", "other"))
            print(f"{what}, {who}: this {this:.{digits}f}, other {other:.{digits}f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
