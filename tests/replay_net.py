"""The replay net, ``tests/golden/replay.txt``: the one file of expected bytes.

``scripts/replay.py`` prints it, one ``label<TAB>value`` line per case;
``python scripts/replay.py > tests/golden/replay.txt`` regenerates it.
"""

import json
from functools import lru_cache
from pathlib import Path

REPLAY = Path(__file__).resolve().parent / "golden" / "replay.txt"


def labelled(text):
    """The ``#`` lines of a replay printout, and the (label, value) pair of each other line."""
    lines = text.splitlines()
    return [line for line in lines if line.startswith("#")], [
        tuple(line.split("\t", 1)) for line in lines if not line.startswith("#")
    ]


@lru_cache(maxsize=None)
def replay_lines() -> dict[str, str]:
    """The committed net's value of each label."""
    return dict(labelled(REPLAY.read_text())[1])


def golden(call: str) -> str:
    """The stdout that the net holds for ``fiberalg <call>``, a call that exits 0 with nothing on stderr."""
    code, out, err = json.loads(replay_lines()[f"fiberalg {call}"])
    assert (code, err) == (0, ""), (call, code, err)
    return out
