"""Scalar test oracles for the height sweep.

iter_curves and enumerate_curves walk the height box pair by pair with the
scalar minimality predicate. The package counts the same family by residue
classes (iwastat.enumeration), and these walks are what it is checked
against on small boxes.
"""

from typing import Callable, Iterator, Optional, Tuple

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
