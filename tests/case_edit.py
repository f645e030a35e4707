"""Edits to homdim.CASE_SPECS for the tests.

hom_vector compiles a group's staircase from CASE_SPECS when it plans a
descriptor list (homdim._targets), and serves that plan to every later
call over an equal list.  So an edit to the table reaches hom_vector only
through a list planned after the edit, while coeff_matrix and hom_dim read
the table at every call.  edited_case swaps in the edited entry and an
empty _targets cache for its with block, then puts both back, so that on
exit the unedited plans are served again.  Every test that edits
CASE_SPECS goes through it (test_homdim checks this), and it needs no
pytest, so ``python3 tests/test_acceptance.py`` runs it too.
"""

import contextlib
import functools

from fourspace import homdim


@contextlib.contextmanager
def edited_case(key, **parts):
    """CASE_SPECS[key] with the given parts ("head", "rep", ...) replaced,
    and hom_vector planning every list afresh, inside the with block."""
    original, targets = homdim.CASE_SPECS[key], homdim._targets
    homdim.CASE_SPECS[key] = dict(original, **parts)
    homdim._targets = functools.lru_cache(maxsize=homdim._TARGETS_CACHE_SIZE)(targets.__wrapped__)
    try:
        yield
    finally:
        homdim.CASE_SPECS[key] = original
        homdim._targets = targets


def flipped_sign(key, part, i, j):
    """edited_case with the coefficient of cell (i, j) of CASE_SPECS[key][part]
    negated."""
    pattern = [list(row) for row in homdim.CASE_SPECS[key][part]]
    letter, coeff = pattern[i][j]
    pattern[i][j] = (letter, -coeff)
    return edited_case(key, **{part: pattern})
