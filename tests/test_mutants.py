"""The mutation ledger's entries still name code that ``src/`` holds.

``tests/mutants.py`` edits each old text in a copy of ``src/``; an edit of
the source that moved or duplicated one would make its mutant a no-op or
ambiguous, so each must occur exactly once, in the file the entry names.
"""

import pytest

import mutants
from mutants import MUTANTS
from test_source_size import SRC


@pytest.mark.parametrize("name,old", [m[:2] for m in MUTANTS],
                         ids=[f"{i}-{m[0]}" for i, m in enumerate(MUTANTS)])
def test_old_text_occurs_once_in_src(name, old):
    texts = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert texts[name].count(old) == 1
    assert sum(t.count(old) for t in texts.values()) == 1


@pytest.mark.parametrize("killed,status", [(len(MUTANTS), 0),
                                           (len(MUTANTS) - 1, 1)],
                         ids=["all-killed", "one-survived"])
def test_a_surviving_mutant_fails_the_run(killed, status, monkeypatch,
                                          capsys):
    monkeypatch.setattr(mutants, "failures", lambda src, args: set())
    monkeypatch.setattr(mutants, "mutated_failures", lambda mutant, args: (
        {"tests/test_capacity.py::t"} if MUTANTS.index(mutant) < killed
        else set()))
    assert mutants.main([]) == status
    out = capsys.readouterr().out
    assert out.count(": survived,") == len(MUTANTS) - killed
