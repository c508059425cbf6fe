"""The solved energies equal their closed forms (see `closed_form`)."""

import pytest

from closed_form import mismatches


@pytest.mark.parametrize("k", range(2, 13))
def test_solved_energies_equal_their_closed_forms(k):
    assert [line for p in range(2, 7) for line in mismatches(k, p)] == []
