"""Command-line surface.

Commands: scan, enumerate, bounds, dp, invariants, ip-count. Exit codes:
0 success, 1 input error (bad flags, files, math inputs), 2 internal error
(any other exception is a bug). IWASTAT_THREADS sets the default worker
count; --workers wins when given.

Importing this module loads only argparse, json, sys and iwastat.errors.
Each handler imports the modules its command runs, so `dp` loads the census
and not the sweep, and `scan` never loads the sweep.
"""

import argparse
import json
import sys

from . import _bind_on_access
from .errors import IwastatError, ParseError

# Names a caller may rebind on this module: perfbench/tracing.py times
# parse_records, scan_result_dict, scan_primes and empirical_densities this
# way, and the tests replace scan_primes and fan_out. Each is bound on first
# access (__getattr__) and the handlers call it through _cli, so a rebinding
# is what runs, in the forked scan workers too.
_REBINDABLE = {
    "parse_records": "io",
    "scan_result_dict": "io",
    "scan_primes": "prime_scan",
    "empirical_densities": "enumeration",
    "fan_out": "parallel",
}
__getattr__ = _bind_on_access(__name__, _REBINDABLE)

_cli = sys.modules[__name__]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for bugs
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="iwastat", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan",
                       help="classify primes for each record in a CSV file")
    p.add_argument("records", help="ingest CSV (label,a,b,rank,...)")
    p.add_argument("--max-prime", type=int, default=100)
    p.add_argument("--label", default=None, help="restrict to one record label")
    p.add_argument("--allow-23", action="store_true",
                   help="run the full local algorithm at 2 and 3 when overrides are absent")
    p.add_argument("--workers", type=int, default=None,
                   help="fan the records out over this many processes")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("enumerate",
                       help="height-box sweep: counts, loci, bounds")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--strict", action="store_true",
                   help="skip curves whose 2,3 Tamagawa part cannot be certified")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("bounds",
                       help="density bounds at a prime, all census modes")
    p.add_argument("--prime", type=int, required=True)

    p = sub.add_parser("dp", help="order-p census count")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--mode", default="literal",
                   choices=["literal", "trace-pairs", "trace-classes"])

    p = sub.add_parser("invariants",
                       help="mu/lambda and leading-term data of a polynomial")
    p.add_argument("--poly", required=True,
                   help="comma-separated integer coefficients, constant term first")
    p.add_argument("--prime", type=int, required=True)

    p = sub.add_parser("ip-count",
                       help="exact multiplicative-locus count with sandwich bounds")
    p.add_argument("--l", dest="l", type=int, required=True)
    p.add_argument("--p", dest="p", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--workers", type=int, default=None)

    return top


def _scan_record(rec, max_prime, allow_23):
    """(exit code, text) for one record: 0 and its JSON entry, 1 and a
    message when a typed error stops its scan, or 2 and a message when a
    bug does, so that one record does not sink the batch."""
    from .io import scan_entry_text

    try:
        results = _cli.scan_primes(rec, max_prime, allow_23=allow_23)
    except IwastatError as e:
        return 1, f"record {rec.label}: {e}"
    except Exception as e:
        return 2, f"internal error in record {rec.label}: {e}"
    return 0, scan_entry_text(rec.label, results)


def _cmd_scan(args) -> int:
    from .io import scan_json_text
    from .parallel import default_workers

    records, errors = _cli.parse_records(args.records)
    for lineno, msg in errors:
        print(f"row {lineno}: {msg}", file=sys.stderr)
    if args.label is not None:
        records = [r for r in records if r.label == args.label]
        if not records:
            print(f"no record with label {args.label!r}", file=sys.stderr)
            return 1
    workers = args.workers if args.workers is not None else default_workers()
    jobs = [(rec, args.max_prime, args.allow_23) for rec in records]
    # every record's scan builds numpy arrays (frobenius_traces): loaded
    # here, before fan_out forks its pool, numpy is shared by the workers,
    # where each would otherwise import it again
    import numpy  # noqa: F401
    entries = []
    status = 1 if errors else 0
    for code, text in _cli.fan_out(_scan_record, jobs, workers):
        if code:
            print(text, file=sys.stderr)
            status = max(status, code)
        else:
            entries.append(text)
    text = scan_json_text(entries)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return status


def _cmd_enumerate(args) -> int:
    from .io import density_report_dict, write_density_report

    rep = _cli.empirical_densities(args.prime, args.height, strict=args.strict,
                                   workers=args.workers)
    if args.out:
        write_density_report(rep, args.out)
    else:
        print(json.dumps(density_report_dict(rep), indent=2, sort_keys=True))
    return 0


def _cmd_bounds(args) -> int:
    from .curves import DpMode, d_of_p
    from .enumeration import bound_dp2, bound_dp3

    # every value is computed before the first line is printed, so a bad
    # prime leaves stdout empty
    p = args.prime
    lines = [f"bound_dp2({p}) = {bound_dp2(p):.10g}"]
    for mode in DpMode:
        d = d_of_p(p, mode)
        lines.append(f"bound_dp3({p}, d={d} [{mode.value}]) = {bound_dp3(p, d):.10g}")
    print("\n".join(lines))
    return 0


def _cmd_dp(args) -> int:
    from .curves import d_of_p

    print(d_of_p(args.prime, args.mode))
    return 0


def _cmd_invariants(args) -> int:
    from .charpoly import CharPoly, iwasawa_invariants, truncated_chi_valuation, vanishing_order

    try:
        coeffs = [int(tok) for tok in args.poly.split(",")]
    except ValueError:
        raise ParseError(f"--poly {args.poly!r} is not a comma-separated integer list") from None
    f = CharPoly(args.prime, coeffs)
    mu, lam = iwasawa_invariants(f)
    print(f"mu = {mu}")
    print(f"lambda = {lam}")
    print(f"vanishing_order = {vanishing_order(f)}")
    print(f"truncated_chi_valuation = {truncated_chi_valuation(f)}")
    return 0


def _cmd_ip_count(args) -> int:
    from .enumeration import count_Ip, sadek_bounds

    n = count_Ip(args.l, args.p, args.height, workers=args.workers)
    lo, up = sadek_bounds(args.l, args.p, args.height) if args.height >= 4096 else (None, None)
    print(f"count = {n}")
    if lo is not None:
        print(f"lower = {lo:.6g}")
        print(f"upper = {up:.6g}")
        assert lo <= n <= up, "sandwich bound violated"
    return 0


_HANDLERS = {
    "scan": _cmd_scan,
    "enumerate": _cmd_enumerate,
    "bounds": _cmd_bounds,
    "dp": _cmd_dp,
    "invariants": _cmd_invariants,
    "ip-count": _cmd_ip_count,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (IwastatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2



if __name__ == "__main__":
    sys.exit(main())
