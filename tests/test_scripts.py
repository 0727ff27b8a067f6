"""Smoke tests for the scripts: each runs to completion as a fresh process.

README's Scripts section lists every script, and no other.
"""

import re
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


def test_readme_lists_exactly_the_scripts_that_exist():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^python scripts/(\S+)", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(path.name for path in (ROOT / "scripts").glob("*.py"))
    # prose elsewhere names no script that is gone either
    for name in re.findall(r"\bscripts/(\w+\.py)", readme):
        assert (ROOT / "scripts" / name).is_file(), name


def test_compare_reports_finds_its_own_tree_identical():
    result = run_script("compare_reports.py", str(ROOT))
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        "28 of 28 reports identical",
        "36 of 36 CLI calls identical",
        "46 of 46 library calls identical",
    ]


@pytest.mark.parametrize("args", [(), (str(ROOT / "tests"),)])
def test_compare_reports_bad_argument_exits_2(args):
    result = run_script("compare_reports.py", *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("compare_reports.py: error: ")
