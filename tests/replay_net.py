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


def _parsed(label: str, value: str):
    """A value as JSON, a CLI line's stdout parsed inside its ``[code, stdout, stderr]``; ``None`` where it is no JSON."""
    try:
        value = json.loads(value)
    except ValueError:
        return None
    if label.startswith("fiberalg "):
        code, out, err = value
        try:
            out = json.loads(out)
        except ValueError:
            pass
        value = {"code": code, "stdout": out, "stderr": err}
    return value


def _field_diffs(path: str, old, new):
    """``path old -> new`` of each leaf where two parsed values differ.

    A list item with a name is keyed by it, and a stdout of several lines, csv or pretty, is a list of its lines.
    """
    if isinstance(old, str) and isinstance(new, str) and "\n" in old:
        old, new = old.splitlines(), new.splitlines()
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [line for key in old for line in _field_diffs(f"{path}.{key}".lstrip("."), old[key], new[key])]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        keys = [item.get("name", i) if isinstance(item, dict) else i for i, item in enumerate(old)]
        return [line for key, a, b in zip(keys, old, new) for line in _field_diffs(f"{path}[{key}]", a, b)]
    return [] if old == new else [f"{path} {json.dumps(old)} -> {json.dumps(new)}"]


def differences(printout: str) -> tuple[list[str], list[str]]:
    """The net's ``#`` lines, and what a replay printout changes against it: a line per label that differs, is
    missing or is extra.  Under a label that differs, each field that moves follows with its old and new value;
    a value that is no JSON, a ``sha256:`` or a ``repr``, follows whole.
    """
    header, expected = labelled(REPLAY.read_text())
    _, got = labelled(printout)
    for pairs in (expected, got):
        labels = [label for label, _ in pairs]
        assert len(set(labels)) == len(labels)
    expected, got = dict(expected), dict(got)
    problems = []
    for label in expected:
        if label in got and got[label] != expected[label]:
            old, new = _parsed(label, expected[label]), _parsed(label, got[label])
            if old is None or new is None:
                moved = [f"{expected[label]} -> {got[label]}"]
            else:
                moved = _field_diffs("", old, new)
            problems += [f"differs: {label}", *(f"  {line}" for line in moved)]
    problems += [f"missing: {label}" for label in expected if label not in got]
    problems += [f"extra: {label}" for label in got if label not in expected]
    return header, problems
