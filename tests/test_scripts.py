"""Tests of the scripts, each run as a fresh process.

README's Scripts section lists every script, and no other.  The replay
net prints the lines that ``tests/golden/replay.txt`` holds.
"""

import re
import subprocess
import sys
from pathlib import Path

from replay_net import REPLAY, labelled
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


def test_replay_prints_the_committed_lines():
    # A change that means to move a line regenerates the file: python scripts/replay.py > tests/golden/replay.txt
    result = run_script("replay.py")
    assert result.returncode == 0, result.stderr
    header, expected = labelled(REPLAY.read_text())
    _, got = labelled(result.stdout)
    for pairs in (expected, got):
        labels = [label for label, _ in pairs]
        assert len(set(labels)) == len(labels)
    expected, got = dict(expected), dict(got)
    problems = [f"differs: {label}" for label in expected if label in got and got[label] != expected[label]]
    problems += [f"missing: {label}" for label in expected if label not in got]
    problems += [f"extra: {label}" for label in got if label not in expected]
    assert problems == [], "\n".join([*header, *problems])
