"""Tests of the scripts, each run as a fresh process.

README's Scripts section lists every script, and no other.  The replay
net prints the lines that ``tests/golden/replay.txt`` holds, also with
numpy's SIMD dispatch held below AVX-512 and on two OpenBLAS kernels of
hosts without it.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from replay_net import differences
from test_cli import child_env

ROOT = Path(__file__).resolve().parent.parent
# What numpy picks on an x86-64 host without AVX-512
BELOW_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def run_script(name, *args, env=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={**child_env(), **(env or {})},
        timeout=120,
    )


def assert_prints_the_net(result):
    assert result.returncode == 0, result.stderr
    header, problems = differences(result.stdout)
    assert problems == [], "\n".join([*header, *problems])


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
    assert_prints_the_net(run_script("replay.py"))


@pytest.mark.parametrize(
    "env, core",
    [
        # numpy's own SIMD cosh and sinh round unlike libm's, so a transcendental in a sweep would move report bytes
        pytest.param(
            BELOW_AVX512,
            None,
            marks=[
                pytest.mark.skipif("X86_V4" not in __cpu_dispatch__, reason="numpy's dispatch does not list X86_V4"),
                pytest.mark.skipif(
                    not __cpu_features__.get("X86_V4"), reason="X86_V4 is off: the host lacks it or it is disabled"
                ),
            ],
            id="numpy",
        ),
        # OpenBLAS kernels of hosts without AVX-512 (an AMD Zen host runs Haswell's); OpenBLAS names its
        # Prescott kernel by Katmai, an alias that it lists first.
        pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, "Haswell", id="haswell"),
        pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, "Katmai", id="prescott"),
    ],
)
def test_replay_prints_the_committed_lines_below_avx512(env, core):
    result = run_script("replay.py", env=env)
    assert result.returncode == 0, result.stderr
    if core is not None and f"OpenBLAS {core}" not in result.stdout.partition("\n")[0]:
        pytest.skip(f"the header names no OpenBLAS {core}: this OpenBLAS is no DYNAMIC_ARCH build")
    assert_prints_the_net(result)
