"""Run one fiberalg benchmark workload; the last line printed is its result.

    python3 perfbench/run.py --workload verify_paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process (worker.py).  With ``--trace 0`` this starts the worker
SETUP_SAMPLES times and times each from spawn to its "ready" line: that
is ``setup_s``, reported as the median.  The last worker goes on to
measure for ``--seconds``.  With ``--trace 1`` a single worker runs the
traced pass and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(args, setup_only: bool, kill_at: float) -> tuple[float, str]:
    """Start one worker; return its spawn-to-ready time and the rest of its output."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(kill_at - start, 0.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode} ({first.strip()!r})")
    return ready, rest


def main() -> int:
    began = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"no {spec_path.name} at {ROOT}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "fiberalg" / "__init__.py").is_file():
        return fail(f"no fiberalg sources under {ROOT / 'src'}")

    samples = 1 if args.trace else SETUP_SAMPLES
    setup = []
    try:
        for k in range(samples):
            ready, output = run_worker(args, k < samples - 1, began + RUN_LIMIT_S)
            setup.append(ready)
    except RuntimeError as exc:
        return fail(str(exc))

    lines = output.splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        print("# setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        return fail(f"metrics {sorted(reported)} differ from BENCHMARK.json {sorted(declared)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
