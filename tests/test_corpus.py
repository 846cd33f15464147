"""Replay the regression corpus through the differential harness.

Every JSON file under ``tests/corpus/`` is a shrunk repro of a bug once
found by ``repro fuzz`` (or a hand-built edge case worth pinning).
Plain pytest replays each through the naive plan, the rewritten plan
and the finite-window oracle; a regression
resurfaces as a ``divergent`` or ``error`` status here, with the case's
``note`` field explaining what it originally caught.
"""

from pathlib import Path

import pytest

from repro.fuzz.case import FORMAT, load_case
from repro.fuzz.diff import run_case

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_not_empty():
    assert CORPUS_FILES, f"no corpus cases found under {CORPUS_DIR}"


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_case_replays_clean(path):
    case = load_case(path)
    case.validate()
    result = run_case(case)
    assert not result.failing, (
        f"{path.name} regressed ({case.note or 'no note'}):\n"
        f"{result.summary()}"
    )


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_case_round_trips(path):
    case = load_case(path)
    again = case.dumps()
    assert case.to_dict()["format"] == FORMAT
    # Serialization is stable: dump(load(dump)) == dump.
    from repro.fuzz.case import case_from_dict
    import json

    assert case_from_dict(json.loads(again)).dumps() == again
