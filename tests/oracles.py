"""Scalar test oracles for the height sweep, and a reader for the anomalous
residue table.

iter_curves and enumerate_curves walk the height box pair by pair with the
scalar minimality predicate. The package counts the same family by residue
classes (iwastat.enumeration), and these walks are what it is checked
against on small boxes. anomalous_bool_table turns the rows of
anomalous_residue_table into the p-column bool table that the brute-force
point-count oracles produce.
"""

from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from iwastat.curves import is_minimal_pair
from iwastat.enumeration import box_bounds


def iter_curves(X: int) -> Iterator[Tuple[int, int]]:
    """Every minimal nonsingular pair in the box, A ascending then B."""
    amax, bmax = box_bounds(X)
    for A in range(-amax, amax + 1):
        for B in range(-bmax, bmax + 1):
            if 4 * A ** 3 + 27 * B ** 2 != 0 and is_minimal_pair(A, B):
                yield A, B


def enumerate_curves(X: int, visitor: Optional[Callable[[int, int], None]] = None) -> int:
    """Count of the curve family up to height X; visits each pair in order."""
    count = 0
    for A, B in iter_curves(X):
        if visitor is not None:
            visitor(A, B)
        count += 1
    return count


def anomalous_bool_table(rows, p: int) -> np.ndarray:
    """rows, each a tuple of b as anomalous_residue_table returns it, as the
    len(rows) x p bool table whose entry [i, b] is True for the b of row i.
    Checks that every row is strictly increasing inside [0, p)."""
    tab = np.zeros((len(rows), p), dtype=bool)
    for i, row in enumerate(rows):
        assert isinstance(row, tuple) and list(row) == sorted(set(row)), (i, row)
        assert all(0 <= b < p for b in row), (i, row)
        tab[i, list(row)] = True
    return tab
