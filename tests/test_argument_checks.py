"""One check per argument kind: no module of iwastat but primes pairs
is_prime with `raise InvalidPrime`, and no function but curves._as_curve
builds a CurveQ from a starred pair.

primes.require_prime is the one check that an argument is a prime >= some
least value, and curves._as_curve the one way an argument becomes a curve.
A hand-written copy of either can drift in its message or in what it
accepts, so a stdlib ast pass over src/iwastat looks at the module level
and at each function's own body (a nested function is a scope of its own).
local_data.bad_primes takes pairs that need not be minimal and builds no
CurveQ, so it is not a coercion.
"""

import ast

import pytest

from test_unused_imports import _FUNCTIONS, MODULES, _own_nodes


def _named(node, name):
    """Whether node is the name, bare or as a module attribute."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _hand_checks(source, module):
    """(line, kind) for each scope of the module's source that checks a
    prime or coerces a curve by hand."""
    tree = ast.parse(source)
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))]:
        nodes = list(_own_nodes(scope))
        calls = [n for n in nodes if isinstance(n, ast.Call)]
        raised = [n.exc.func if isinstance(n.exc, ast.Call) else n.exc
                  for n in nodes if isinstance(n, ast.Raise) and n.exc is not None]
        line = getattr(scope, "lineno", 1)
        if (module != "primes" and any(_named(c.func, "is_prime") for c in calls)
                and any(_named(e, "InvalidPrime") for e in raised)):
            found.append((line, "prime check"))
        if getattr(scope, "name", None) != "_as_curve" and any(
                _named(c.func, "CurveQ") and any(isinstance(a, ast.Starred) for a in c.args)
                for c in calls):
            found.append((line, "curve coercion"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_check_per_argument_kind(path):
    found = _hand_checks(path.read_text(encoding="utf-8"), path.stem)
    assert not found, (f"{path.name} checks an argument by hand (use primes.require_prime "
                       f"or curves._as_curve): {found}")


def test_checker_flags_hand_written_checks():
    source = (
        "def _require_odd_prime(p):\n"
        "    if p < 3 or not is_prime(p):\n"
        "        raise InvalidPrime(f'{p} is not an odd prime')\n"
        "def classify(curve, p):\n"
        "    if isinstance(curve, tuple):\n"
        "        curve = CurveQ(*curve)\n"
        "    def inner():\n"
        "        return primes.is_prime(p)\n"
        "    raise InvalidPrime\n"
        "def coerce(curve):\n"
        "    require_prime(5)\n"
        "    return iwastat.curves.CurveQ(*curve)\n"
        "def _as_curve(curve):\n"
        "    return curve if isinstance(curve, CurveQ) else CurveQ(*curve)\n"
        "def bad_primes(curve):\n"
        "    return disc0_of(*curve), CurveQ(1, 2)\n"
    )
    # classify raises InvalidPrime but asks is_prime only in inner, a scope
    # of its own
    assert _hand_checks(source, "curves") == [
        (1, "prime check"), (4, "curve coercion"), (10, "curve coercion")]
    assert _hand_checks(source, "primes") == [(4, "curve coercion"), (10, "curve coercion")]
