"""The library surface the benchmark in perfbench/ uses, exercised as it uses it.

A library change that would break ``perfbench/run.py --trace 1`` fails
here instead of in the benchmark, and each workload of ``BENCHMARK.json``
runs once through the entry point for one second.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fiberalg import FIBER_SIGNATURE, diagonal_projector

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_element_chain_and_probes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")

    chain = workloads.ElementChain(0)
    for i in range(32):
        chain.check(i, chain.op(i, tracing.direct))
    basis = layers._fresh_basis(FIBER_SIGNATURE)
    assert basis.components_batch(np.eye(16)).shape == (16, 10)
    diagonal_projector(FIBER_SIGNATURE, 0b01, 1)


def test_verify_sweeps_final_check(monkeypatch):
    # final_check compares Signature.sign_table with the benchmark's own
    # popcount parity table on every signature of a plan and its doubling.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for plan in (workloads.PAPER_PLAN, workloads.WIDE_PLAN):
        workloads.VerifySweeps(0, plan).final_check()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_entry_point_runs_each_workload(workload):
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert sorted(last["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
