"""One workload process: set up, warm up, signal ready, then measure.

Started by run.py.  With ``--setup-only`` it exits once ready, so that
run.py can time several cold set-ups.  The last line of its standard
output is the run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fiberalg  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, direct  # noqa: E402


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []
        self.failures: set[str] = set()

    def attempt(self, workload, name, i, call, times) -> None:
        """Run and check operation ``i``; time it through ``call`` unless it failed."""
        self.attempted += 1
        start = perf_counter_ns()
        try:
            result = call(f"op.{name}", workload.op, i, call)
        except Exception as exc:  # a library error is a failed operation
            self.failed += 1
            self.failures.add(f"op {i} raised {exc!r}")
            return
        elapsed = perf_counter_ns() - start
        try:
            workload.check(i, result)
        except workloads.Failed as exc:
            self.failed += 1
            self.failures.add(str(exc))
            return
        except workloads.Incorrect as exc:
            self.incorrect.append(str(exc))
        times.append(elapsed)

    def round(self, workload, name, call, times) -> None:
        for i in range(workload.round_size):
            self.attempt(workload, name, i, call, times)


def describe(times: list[int]) -> str:
    """Operation count and the percentiles with at least ten operations beyond them."""
    ordered = sorted(times)
    parts = [f"{len(ordered)} timed operations", f"mean {statistics.fmean(ordered) / 1e6:.4f} ms"]
    for percent, needed in ((90, 100), (99, 1000)):
        if len(ordered) >= needed:
            parts.append(f"p{percent} {ordered[len(ordered) * percent // 100] / 1e6:.4f} ms")
    return ", ".join(parts)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not Path(fiberalg.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fiberalg imported from {fiberalg.__file__}, not from this checkout", file=sys.stderr)
        return 2

    name = args.workload
    workload = workloads.make(name, args.seed, ROOT)
    warmup = Tally()
    warmup.attempt(workload, name, 0, direct, [])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    tally.incorrect += warmup.incorrect
    deadline = perf_counter() + args.seconds
    if not args.trace:
        times: list[int] = []
        while True:
            tally.round(workload, name, direct, times)
            if perf_counter() >= deadline:
                break
        who = resource.RUSAGE_CHILDREN if name == "cli_calls" else resource.RUSAGE_SELF
        metrics = {
            "op_ms_p50": {"value": statistics.median(times) / 1e6, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
        }
        print(f"# {name}: {describe(times)}", flush=True)
    else:
        import layers

        tracer = Tracer()
        traced: list[int] = []
        untraced: list[int] = []
        # Traced and untraced rounds alternate, so both see the same host.
        while True:
            tally.round(workload, name, tracer.call, traced)
            tally.round(workload, name, direct, untraced)
            if perf_counter() >= deadline:
                break
        try:
            layers.probe_pass(tracer, args.seed, ROOT)
        except workloads.Incorrect as exc:
            tally.incorrect.append(str(exc))
        metrics = layers.per_layer_metrics(tracer)
        base = statistics.median(untraced)
        metrics["trace.overhead_pct"] = {"value": 100 * (statistics.median(traced) - base) / base, "unit": "%"}
        tracer.write(ROOT / "perfbench" / "out" / f"trace-{name}.tsv")

    try:
        workload.final_check()
    except workloads.Incorrect as exc:
        tally.incorrect.append(str(exc))
    for message in sorted(tally.failures):
        print(f"# failed: {message}", file=sys.stderr)
    for message in tally.incorrect[:5]:
        print(f"# incorrect: {message}", file=sys.stderr)
    result = {
        "correct": not tally.incorrect,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
