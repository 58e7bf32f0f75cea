"""Every entry of ``cli.json`` replayed through ``homdom.cli.main``: the
exit code, stderr and stdout (less ``timestamp`` and ``elapsed_s``) must
be the recorded bytes.  ``regenerate.py`` says how the corpus is kept."""

import json

import pytest

from regenerate import CORPUS, run

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_output_matches_the_corpus(entry):
    assert run(entry["argv"]) == entry
