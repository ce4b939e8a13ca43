"""The CLI golden corpus (cli_corpus.py) against its committed records."""

import json

import pytest

from cli_corpus import GOLDEN, differences, run_corpus, versions


def _minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def test_cli_matches_the_golden_corpus(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    # help text and the sources' random streams may change across minor versions
    here = {name: _minor(version) for name, version in versions().items()}
    made = {name: _minor(version) for name, version in golden["versions"].items()}
    if made != here:
        pytest.skip(f"golden records made under {made}, running under {here}; "
                    "regenerate with tests/regen_cli_golden.py")
    changed = differences(golden["records"], run_corpus(tmp_path))
    assert not changed, f"{len(changed)} differences, the first: {changed[0]}"
