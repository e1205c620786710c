"""The mutant catalogue (``tests/mutants.py``) still fits the tree.

Running the mutants takes a minute, so CI runs ``python tests/mutants.py``
as a step of its own; this checks only that each entry could still be run:
its anchors occur exactly once, in order, and its tests exist.
"""

import re

import pytest

from mutants import MUTANTS, ROOT, applied


def test_catalogue_names_each_mutant_once():
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names)) >= 36


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_anchors_and_tests_exist(mutant):
    source = (ROOT / mutant.path).read_text()
    assert applied(source, mutant) != source  # raises unless each anchor occurs once
    for node in mutant.tests:
        path, *names = node.split("::")
        text = (ROOT / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(class|def) {re.escape(name)}\b", text, re.MULTILINE), node
