"""The mutation matrix's rows still fit the code they mutate.

``tests/mutation_matrix.py`` stops at a row whose old text no longer occurs exactly once, so a change that
rewrites mutated code learns it here, without running a row: this reads the files and starts no process.
"""

import os

import pytest

import mutation_matrix


@pytest.mark.parametrize("i", range(1, len(mutation_matrix.ROWS) + 1))
def test_each_rows_old_text_occurs_once_and_its_test_files_exist(i):
    row = mutation_matrix.ROWS[i - 1]
    with open(os.path.join(mutation_matrix.ROOT, row.path), encoding="utf-8") as fh:
        assert fh.read().count(row.old) == 1, (row.path, row.old)
    assert row.old != row.new and row.tests
    assert [t for t in row.tests if not os.path.isfile(os.path.join(mutation_matrix.ROOT, t))] == []
