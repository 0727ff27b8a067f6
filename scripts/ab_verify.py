#!/usr/bin/env python3
"""Time this tree's paper verify sweeps against OTHER_TREE's in one process.

Usage: ab_verify.py OTHER_TREE [--pairs N] [--samples N] [--seed N]

One operation is ``run_verification`` on each of ``+ ++ - -+`` at
``--samples`` samples, tol 1e-10.  Both trees' ``fiberalg`` load into
this one process under their own package names, so every pair of
operations runs on the same host at the same moment; the tree that runs
first alternates from pair to pair.  Each pair's reports must have
identical bytes (``json.dumps`` of ``to_dict()``).  The script prints
the median and quartiles of the per-pair time ratio, this tree over
OTHER_TREE, and the count of pairs this tree won, and then the peak
resident set (``ru_maxrss``) and the minor page faults per operation
after a warm-up operation of one child per tree.  The children run one
after the other before either tree loads here: a child's ``ru_maxrss``
starts from this process's resident set at the fork.

The trees share this process's heap and caches, unlike perfbench's one
worker per tree, so the ratio can disagree with perfbench's: halving
``verify.BLOCK_VALUES`` read 0.95 here and 1.12 in perfbench's
``op_ms_p50``.  Settle a time claim with perfbench.

Exits 0 when every pair's reports are identical, 1 when one differs or
a child fails, and 2 with one stderr line for a bad argument.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIGNATURES = ("+", "++", "-", "-+")
TOL = 1e-10

CHILD = """
import json, resource, sys
from fiberalg.verify import run_verification
samples, seed, ops = (int(v) for v in sys.argv[1:])
def op():
    for signature in %r:
        run_verification(signature, samples, seed, %r)
op()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(ops):
    op()
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps([usage.ru_maxrss / 1024, (usage.ru_minflt - before) / ops]))
""" % (SIGNATURES, TOL)


def load(tree: Path, name: str):
    """The ``verify`` module of ``tree``'s ``fiberalg``, imported as package ``name``."""
    package = tree / "src" / "fiberalg"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.verify")


def operation(verify, samples: int, seed: int) -> tuple[float, list[str]]:
    start = time.perf_counter()
    reports = [verify.run_verification(signature, samples, seed, TOL) for signature in SIGNATURES]
    elapsed = time.perf_counter() - start
    return elapsed, [json.dumps(report.to_dict()) for report in reports]


def child(tree: Path, samples: int, seed: int, ops: int) -> list[float] | None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(samples), str(seed), str(ops)],
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

    usage = {}
    for side, tree in (("this", ROOT), ("other", args.other)):
        usage[side] = child(tree, args.samples, args.seed, args.pairs)
        if usage[side] is None:
            return 1
    trees = {"this": load(ROOT, "fiberalg_this"), "other": load(args.other, "fiberalg_other")}
    for verify in trees.values():  # build the cached tables and bases before timing
        operation(verify, args.samples, args.seed)
    ratios = []
    for pair in range(args.pairs):
        order = ("this", "other") if pair % 2 == 0 else ("other", "this")
        times, reports = {}, {}
        for side in order:
            times[side], reports[side] = operation(trees[side], args.samples, args.seed)
        for signature, mine, theirs in zip(SIGNATURES, reports["this"], reports["other"]):
            if mine != theirs:
                print(f"differs: {signature} samples={args.samples} seed={args.seed} in pair {pair}")
                return 1
        ratios.append(times["this"] / times["other"])
    won = sum(ratio < 1 for ratio in ratios)
    low, _, high = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"{args.pairs} pairs of {' '.join(SIGNATURES)} at {args.samples} samples, seed {args.seed}: reports identical")
    print(f"time this/other: median {statistics.median(ratios):.3f} (quartiles {low:.3f}-{high:.3f}), "
          f"this tree faster in {won} of {args.pairs}")
    print(f"peak RSS MB: this {usage['this'][0]:.2f}, other {usage['other'][0]:.2f}")
    print(f"minor faults per operation: this {usage['this'][1]:.0f}, other {usage['other'][1]:.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
