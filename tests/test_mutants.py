"""The mutant corpus of ``mutants.py`` stays current: each mutant's old text
occurs exactly once in ``src/``, and each test file its selection names
exists, so a refactor that makes a mutant stale fails here.  Nothing is run;
``python tests/mutants.py`` runs the corpus."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_to_src(mutant):
    assert mutants.stale(mutant) == []


def test_mutant_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
