"""Brute-force test oracles, and a reader for the anomalous residue table.

iter_curves and enumerate_curves walk the height box pair by pair with the
scalar minimality predicate. The package counts the same family by residue
classes (iwastat.enumeration), and these walks are what it is checked
against on small boxes; lattice_class_count and lattice_density count one
residue class of the whole box. dp_census_bruteforce computes the mod-p
census by an O(p^3) sweep over F_p^2, against which the class-number census
and its dp_census assembly are checked. anomalous_bool_table turns the rows of
anomalous_residue_table into the p-column bool table that the brute-force
point-count oracles produce. lifting_count_bruteforce counts the residue
pairs of the I_p locus that iwastat.enumeration.lifting_count gives in
closed form; poly_roots_mod finds the roots of a polynomial over F_l by
trying every element, against which the gcd root counts of Tate's
algorithm are checked; write_scan_results writes one record's scan with
the json encoder, the reference for the scan JSON writer. trace_by_legendre
sums the Legendre symbol in pure Python, by Euler's criterion, the a_p
reference that shares no code with either a_p engine of iwastat.curves (the
point-count rows and the point orders by baby steps and giant steps).
tamagawa_table_by_factoring is the Tamagawa table as it was built by
factoring disc0, against which the trial-division table of
iwastat.local_data is checked; sympy factors it, since iwastat's primality
proof stops at psi_13 ~ 2^81 and the table answers larger cofactors.
refuse_factorize makes factorize raise in every iwastat module that binds
it, for the tests that pin a path which must never factor.
"""

import json
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np
import sympy

from iwastat.census import DpMode
from iwastat.curves import is_minimal_pair
from iwastat.enumeration import _axis_class_count, box_bounds, total_weq
from iwastat.errors import OutOfRange, TooLarge
from iwastat.io import scan_result_dict
from iwastat.primes import primes_up_to, require_prime


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


def lattice_class_count(kappa: Tuple[int, int], p: int, X: int) -> int:
    amax, bmax = box_bounds(X)
    return _axis_class_count(amax, kappa[0], p) * _axis_class_count(bmax, kappa[1], p)


def lattice_density(kappa: Tuple[int, int], p: int, X: int) -> float:
    """Fraction of the unconstrained box in one residue class mod p;
    tends to 1/p^2 as X grows."""
    return lattice_class_count(kappa, p, X) / total_weq(X)


def trace_by_legendre(A: int, B: int, p: int) -> int:
    """a_p = -sum_x legendre(x^3 + A x + B, p) at an odd prime p; at p | disc0
    that of the singular cubic."""
    a, b, half = A % p, B % p, (p - 1) // 2
    total = 0
    for x in range(p):
        v = (x * x * x + a * x + b) % p
        if v:
            total += 1 if pow(v, half, p) == 1 else -1
    return -total


def _affine_counts_row(a: int, p: int, xs, ys2) -> np.ndarray:
    """Affine point counts for all b at fixed a, via the histogram of
    b = y^2 - x^3 - a x over (x, y) in F_p^2."""
    fx = (xs * xs % p * xs + a * xs) % p
    b_of = (ys2[:, None] - fx[None, :]) % p
    return np.bincount(b_of.ravel(), minlength=p)


def dp_census_bruteforce(p: int) -> dict:
    """All three census counts at p in one O(p^3) sweep over F_p^2, in the
    dict iwastat.curves.dp_census returns.

    Returns {"p": p, "LiteralPairs": n1, "TraceOnePairs": n2,
    "TraceOneClasses": n3, "literal_pairs": [(a, b), ...]}.
    """
    require_prime(p, 5)
    xs = np.arange(p, dtype=np.int64)
    ys2 = (xs * xs) % p
    bs = np.arange(p, dtype=np.int64)
    literal = 0
    trace_one: List[Tuple[int, int]] = []
    literal_pairs: List[Tuple[int, int]] = []
    for a in range(p):
        n_row = _affine_counts_row(a, p, xs, ys2) + 1
        nonsing = (4 * a**3 + 27 * bs * bs) % p != 0
        lit_mask = (n_row % p == 0) & nonsing
        literal += int(lit_mask.sum())
        for b in np.flatnonzero(lit_mask):
            literal_pairs.append((a, int(b)))
        for b in np.flatnonzero((n_row == p) & nonsing):
            trace_one.append((a, int(b)))
    # orbit count under (a, b) -> (u^4 a, u^6 b)
    seen = set()
    classes = 0
    for (a, b) in trace_one:
        if (a, b) in seen:
            continue
        classes += 1
        for u in range(1, p):
            seen.add((pow(u, 4, p) * a % p, pow(u, 6, p) * b % p))
    assert literal >= len(trace_one) >= classes
    return {
        "p": p,
        DpMode.LITERAL_PAIRS.value: literal,
        DpMode.TRACE_ONE_PAIRS.value: len(trace_one),
        DpMode.TRACE_ONE_CLASSES.value: classes,
        "literal_pairs": literal_pairs,
    }


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


def tamagawa_table_by_factoring(curve, overrides, allow_23):
    """(product of the override c_l, {p: ((l, computable), ...)}).

    One factorization of disc0 (sympy.factorint) gives every bad l and
    v_l(Delta) (plus 4 at l = 2, from the 16 in Delta). c_l is known from
    the override items (a sorted tuple). Every other bad l is listed,
    ascending, under each prime p >= 5 whose p-part of c_l the v_l(Delta)
    certificate cannot clear (all of them divide a fibre index, so
    p <= v_l(Delta)). There Tate's algorithm may compute c_l (computable) at
    l >= 5 always and at l in {2, 3} when allow_23 is set.
    """
    given = dict(overrides)
    v_delta = sympy.factorint(abs(curve.disc0))
    v_delta[2] = v_delta.get(2, 0) + 4
    product, blocked = 1, {}
    for l in sorted(v_delta):
        if l in given:
            product *= given[l]
            continue
        for p in primes_up_to(v_delta[l]):
            # uncertifiable: some fibre index n = v - 12k > 0 is a multiple of p
            if p >= 5 and any(n % p == 0 for n in range(v_delta[l], 0, -12)):
                blocked.setdefault(p, []).append((l, l >= 5 or allow_23))
    return product, {p: tuple(ls) for p, ls in blocked.items()}


def refuse_factorize(monkeypatch) -> None:
    """Rebind factorize in iwastat.primes, .local_data and .curves to raise."""
    from iwastat import curves, local_data, primes

    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    for module in (primes, local_data, curves):
        monkeypatch.setattr(module, "factorize", refuse)
