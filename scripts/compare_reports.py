#!/usr/bin/env python3
"""Check that this tree and PARENT_TREE give byte-identical verify reports.

Usage: compare_reports.py PARENT_TREE

Each tree runs a fixed list of ``run_verification`` cases in one child
process that imports ``fiberalg`` from that tree's ``src``: the paper's
four signatures at 100 000 samples, wider signatures, small and odd
sample counts around the block edges, and the verify goldens' sample
counts.  The small cases run again at ``verify.BLOCK_VALUES = 160``,
where every sweep spans many blocks.  The script prints each case whose
``json.dumps(report.to_dict())`` differs between the trees and exits 0
when all are identical, 1 on any difference, and 2 with one stderr line
for a bad argument.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-10
SMALL_BLOCK = 160

# (signature, samples, seed)
SMALL = [
    ("+", 3, 3),
    ("++", 1001, 3),
    ("++", 1, 3),
    ("-+", 4097, 3),
    ("+-", 5, 3),
    ("+++", 1001, 3),
    ("-", 7, 3),
]
CASES = [
    *[(signature, 100_000, seed) for seed in (1, 42) for signature in ("+", "++", "-", "-+")],
    ("+-+", 6000, 0),
    ("++-+", 800, 0),
    *SMALL,
    *[(signature, samples, 0) for signature in ("++", "-+") for samples in (2000, 20_000)],
]
# (signature, samples, seed, BLOCK_VALUES or None for the tree's own)
RUNS = [(*case, None) for case in CASES] + [(*case, SMALL_BLOCK) for case in SMALL]

CHILD = """
import json, sys
from fiberalg import verify
default = verify.BLOCK_VALUES
for signature, samples, seed, block in json.loads(sys.argv[1]):
    verify.BLOCK_VALUES = default if block is None else block
    report = verify.run_verification(signature, samples, seed, %r)
    print(json.dumps(report.to_dict()))
""" % TOL


def start(tree: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, json.dumps(RUNS)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def reports(tree: Path, child: subprocess.Popen) -> list[str] | None:
    out, err = child.communicate()
    if child.returncode != 0:
        print(f"{tree}: the verify child exited {child.returncode}", file=sys.stderr)
        print(err, end="", file=sys.stderr)
        return None
    lines = out.splitlines()
    if len(lines) != len(RUNS):
        print(f"{tree}: the verify child printed {len(lines)} reports, not {len(RUNS)}", file=sys.stderr)
        return None
    return lines


def main(argv: list[str]) -> int:
    prog = Path(argv[0]).name
    if len(argv) != 2:
        print(f"{prog}: error: expected one argument, PARENT_TREE", file=sys.stderr)
        return 2
    parent = Path(argv[1])
    if not (parent / "src" / "fiberalg" / "verify.py").is_file():
        print(f"{prog}: error: {parent} has no src/fiberalg/verify.py", file=sys.stderr)
        return 2
    children = [(tree, start(tree)) for tree in (parent, ROOT)]
    got = [reports(tree, child) for tree, child in children]
    if None in got:
        return 1
    differ = 0
    for run, before, after in zip(RUNS, *got):
        if before != after:
            differ += 1
            signature, samples, seed, block = run
            print(f"differs: {signature} samples={samples} seed={seed} block_values={block or 'default'}")
    print(f"{len(RUNS) - differ} of {len(RUNS)} reports identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
