"""Smoke tests for the scripts: each runs to completion as a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_env

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )


def test_run_verification_passes():
    result = run_script("run_verification.py", "--samples", "2000")
    assert result.returncode == 0, result.stderr
    assert result.stdout.rstrip().endswith("overall: pass")


def test_action_convergence_runs():
    result = run_script("action_convergence.py")
    assert result.returncode == 0, result.stderr
    assert "steps" in result.stdout


def test_run_verification_zero_samples_exits_2():
    result = run_script("run_verification.py", "--samples", "0")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["run_verification.py: error: samples must be at least 1, got 0"]


@pytest.mark.parametrize(
    "arg, message",
    [
        ("--seed=-1", "seed must be a non-negative integer, got -1"),
        ("--tol=-1e-10", "tol must be a finite number of at least 0, got -1e-10"),
        ("--tol=inf", "tol must be a finite number of at least 0, got inf"),
        ("--tol=nan", "tol must be a finite number of at least 0, got nan"),
    ],
)
def test_run_verification_bad_seed_or_tol_exits_2(arg, message):
    result = run_script("run_verification.py", arg)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"run_verification.py: error: {message}"]


def test_compare_reports_finds_its_own_tree_identical():
    result = run_script("compare_reports.py", str(ROOT))
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        "28 of 28 reports identical",
        "34 of 34 CLI calls identical",
        "46 of 46 library calls identical",
    ]


def test_ab_verify_finds_its_own_tree_identical():
    result = run_script("ab_verify.py", str(ROOT), "--pairs", "2", "--samples", "200")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "2 pairs of + ++ - -+ at 200 samples, seed 5: reports identical"
    assert lines[1].startswith("time this/other: median ")
    assert lines[1].endswith(" of 2")
    assert [line.split(":")[0] for line in lines[2:]] == [
        "peak RSS MB, caller",
        "peak RSS MB, sweep children",
        "minor faults per operation, caller",
        "minor faults per operation, sweep children",
    ]


@pytest.mark.skipif(hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2, reason="a sweep helper starts only on two CPUs or more")
def test_ab_verify_counts_the_sweep_helper():
    # 3000 samples are past one block of ++ and -+: the helper starts, and its figures show once it is reaped
    result = run_script("ab_verify.py", str(ROOT), "--pairs", "1", "--samples", "3000")
    assert result.returncode == 0, result.stdout + result.stderr
    children = [line for line in result.stdout.splitlines() if ", sweep children: " in line]
    assert len(children) == 2
    for line in children:
        this, other = (float(side.split()[1]) for side in line.split(": ")[1].split(", "))
        assert this > 0 and other > 0, line


@pytest.mark.parametrize("args", [(str(ROOT / "tests"),), (str(ROOT), "--pairs", "0"), (str(ROOT), "--seed", "-1")])
def test_ab_verify_bad_argument_exits_2(args):
    result = run_script("ab_verify.py", *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("ab_verify.py: error: ")


@pytest.mark.parametrize("args", [(), (str(ROOT / "tests"),)])
def test_compare_reports_bad_argument_exits_2(args):
    result = run_script("compare_reports.py", *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("compare_reports.py: error: ")
