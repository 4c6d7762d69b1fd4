"""Brute-force test oracles, and a reader for the anomalous residue table.

iter_curves and enumerate_curves walk the height box pair by pair with the
scalar minimality predicate. The package counts the same family by residue
classes (iwastat.enumeration), and these walks are what it is checked
against on small boxes. anomalous_bool_table turns the rows of
anomalous_residue_table into the p-column bool table that the brute-force
point-count oracles produce. lifting_count_bruteforce counts the residue
pairs of the I_p locus that iwastat.enumeration.lifting_count gives in
closed form; poly_roots_mod finds the roots of a polynomial over F_l by
trying every element, against which the gcd root counts of Tate's
algorithm are checked; write_scan_results writes one record's scan with
the json encoder, the reference for the scan JSON writer.
"""

import json
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from iwastat.curves import is_minimal_pair
from iwastat.enumeration import box_bounds
from iwastat.errors import OutOfRange, TooLarge
from iwastat.io import scan_result_dict


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


def lifting_count_bruteforce(l: int, p: int, exclusion: str = "componentwise") -> int:
    """Count residue pairs (A, B) mod l^(p+1) with v_l(disc0) = p exactly.

    exclusion picks which pairs are admitted: "componentwise" keeps
    l coprime to A and to B (the literal locus definition); "pair" keeps
    everything except A = B = 0 mod l. The closed-form prediction for the
    count is l^p (l-1)^2, which brute force confirms for l >= 5 and
    refutes at l in {2, 3} (both conventions). The 2^32 guard on the
    number of pairs limits the check to l^(p+1) <= 2^16, so to small
    exponents: (5, 2), (7, 2), (5, 3), (7, 3) and (11, 2) all fit. At
    l = 2 and 3 the componentwise count is 0 at every exponent (B odd
    gives disc0 = 1 mod 2; 3 prime to A gives disc0 = A != 0 mod 3), and
    the pair count is 64, 8748 and 256 at (l, p) = (2, 5), (3, 5) and
    (2, 7), against the closed form's 32, 972 and 128. The componentwise
    count is the oracle for lifting_count.
    """
    if exclusion not in ("componentwise", "pair"):
        raise OutOfRange(f"exclusion must be 'componentwise' or 'pair', got {exclusion!r}")
    modulus = l ** (p + 1)
    if modulus * modulus > 2 ** 32:
        raise TooLarge(f"l^(2(p+1)) = {modulus * modulus} exceeds the 2^32 guard")
    B = np.arange(modulus, dtype=np.int64)
    B_ok_comp = (B % l) != 0
    Bsq27 = (27 * B * B) % modulus
    count = 0
    for A in range(modulus):
        a_unit = A % l != 0
        if exclusion == "componentwise":
            if not a_unit:
                continue
            keep = B_ok_comp
        else:
            keep = B_ok_comp | np.bool_(a_unit)  # broadcast: pair not (0,0) mod l
        disc = (4 * A ** 3 + Bsq27) % modulus
        count += int(np.count_nonzero(keep & (disc % l ** p == 0) & (disc % modulus != 0)))
    return count


def poly_roots_mod(coeffs, l):
    """Roots in F_l with multiplicities for sum(coeffs[i] * T^i).

    Returns a dict root -> multiplicity, by repeated synthetic division.
    Sound for splitting off every rational root; over a prime field any
    repeated factor of a cubic is linear, so for a cubic the multiplicities
    found this way settle separability.
    """
    cs = [c % l for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    roots = {}
    for t in range(l):
        while len(cs) > 1:
            # evaluate and divide by (T - t) in one Horner pass
            q = []
            acc = 0
            for c in reversed(cs):
                acc = (acc * t + c) % l
                q.append(acc)
            if acc != 0:
                break
            q.pop()
            cs = [c % l for c in reversed(q)]
            roots[t] = roots.get(t, 0) + 1
    return roots


def write_scan_results(results: List, path, label: str = "") -> None:
    payload = {"label": label, "results": [scan_result_dict(r) for r in results]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
