"""Byte-for-byte replay of recorded CLI runs.

``data/cli_goldens.json`` holds argv, exit code and standard output for
the README transcripts, ``normalize --dump-nf`` (text and JSON) in both
models on the README examples and on seeded random terms, ``eq``
witnesses for seeded unequal pairs, and ``simple``/``sumstar`` results.
The recording was made before the rational and complex normal forms were
merged into one type, so these outputs are pinned across that refactor.

``data/record_goldens.py`` makes the recording from the sources on
``PYTHONPATH``.
"""

import json
from pathlib import Path

import pytest

from data.record_goldens import run

DATA = Path(__file__).resolve().parent / "data" / "cli_goldens.json"


def _goldens() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("golden", _goldens(),
                         ids=lambda g: g["argv"][0])
def test_cli_output_matches_recording(golden):
    assert run(golden["argv"]) == (golden["code"], golden["stdout"])

