"""Seeded inputs, command plans and output checks for the four workloads.

A seed selects one of a finite set of input variants: seed % VARIANTS, or
the held-out variant "h" for HELD_OUT_SEED. Every variant has expected
outputs recorded in expected.json, so every seed's outputs are checked.
Keep HELD_OUT_SEED out of tuning; use it only to confirm a claim. Why each
workload exists is recorded in BENCHMARK.json and README.md.
"""

import hashlib
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
CENSUS_REPORT = ROOT / "dp_discrepancy_report.json"
EXPECTED = BENCH_DIR / "expected.json"

WORKLOADS = ("census", "sweep", "scan-wide", "scan-many")
VARIANTS = 16
HELD_OUT_SEED = 1000003

# the eight primes in [450, 500), paired low with high so that every pair
# costs about the same under an O(p^2)..O(p^3) census; a run covers a pair
CENSUS_PAIRS = ((457, 499), (461, 491), (463, 487), (467, 479))
CENSUS_HEIGHT = 10 ** 6
DP_MODES = {
    "literal": "LiteralPairs",
    "trace-pairs": "TraceOnePairs",
    "trace-classes": "TraceOneClasses",
}

SCAN_SIZES = {"scan-wide": (200, 500), "scan-many": (1000, 50)}
SCAN_KEYS = ("p", "class", "in_sigma", "in_sigma_prime", "in_upsilon", "in_pi",
             "conclusion", "conditional", "reason", "mu", "lam", "chi_valuation")
ENUM_KEYS = ("X", "p", "total", "total_weq", "good_at_p", "e2", "e3", "ip_counts",
             "d_literal", "bound_dp2", "bound_dp3", "brumer_estimate",
             "skipped_uncertified")

# short, metric-safe names for the scan's reason strings
REASONS = {
    "": "none",
    "p divides the discriminant": "bad_prime",
    "anomalous": "anomalous",
    "MissingSha": "MissingSha",
    "p divides the Sha order or a Tamagawa number": "sha_or_tamagawa",
    "missing regulator-excess valuation": "missing_regulator",
    "p divides the regulator excess": "regulator",
    "conditional on the signed leading-term conjecture": "conditional",
}
CONCLUSIONS = ("SelmerTrivial", "SignedSelmerTrivial", "CharElementIsTr",
               "Inconclusive", "BadPrime")


def variant_of(seed: int) -> str:
    return "h" if seed == HELD_OUT_SEED else str(seed % VARIANTS)


def _index(variant: str) -> int:
    return VARIANTS if variant == "h" else int(variant)


def workers2() -> int:
    """Two workers, but never more processes than the CPUs this run may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class Command:
    kind: str                 # dp, bounds, enumerate, enumerate_strict, scan, workers2
    argv: List[str]
    check: Callable[[str], Optional[str]]  # stdout -> error message or None
    serial: bool = True       # False for the --workers 2 reruns
    info: dict = field(default_factory=dict)   # the sweep's height X, for the stage split


@dataclass
class Workload:
    name: str
    seed: int
    variant: str
    commands: List[Command]


# ---------------------------------------------------------------------------
# output checks


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def load_census_report() -> dict:
    with open(CENSUS_REPORT, encoding="utf-8") as fh:
        return json.load(fh)


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    return got == want


def project_enumerate(text: str) -> dict:
    rep = json.loads(text)
    return {k: rep[k] for k in ENUM_KEYS if k in rep}


def project_scan(text: str) -> list:
    """The scan output restricted to the fields that exist today, so that
    added fields do not count as wrong output."""
    return [
        {"label": e["label"], "results": [{k: r.get(k) for k in SCAN_KEYS} for r in e["results"]]}
        for e in json.loads(text)
    ]


def scan_summary(projected: list) -> dict:
    conclusions = dict.fromkeys(CONCLUSIONS, 0)
    reasons = dict.fromkeys(list(REASONS.values()) + ["other"], 0)
    for e in projected:
        for r in e["results"]:
            conclusions[r["conclusion"]] = conclusions.get(r["conclusion"], 0) + 1
            reasons[REASONS.get(r["reason"], "other")] += 1
    blob = json.dumps(projected, sort_keys=True, separators=(",", ":")).encode()
    return {
        "sha256": hashlib.sha256(blob).hexdigest(),
        "records": len(projected),
        "results": sum(len(e["results"]) for e in projected),
        "conclusions": conclusions,
        "reasons": reasons,
    }


def check_dp(p: int, mode: str, census: dict):
    want = census[str(p)][DP_MODES[mode]]

    def check(out: str):
        got = out.strip()
        return None if got == str(want) else f"dp p={p} {mode}: got {got!r}, want {want}"
    return check


_BOUND3 = re.compile(r"bound_dp3\((\d+), d=(\d+) \[(\w+)\]\) = ")


def check_bounds(p: int, census: dict, expected_text: Optional[str]):
    def check(out: str):
        ds = {m.group(3): int(m.group(2)) for m in _BOUND3.finditer(out) if int(m.group(1)) == p}
        for mode in DP_MODES.values():
            if ds.get(mode) != census[str(p)][mode]:
                return f"bounds p={p} {mode}: d={ds.get(mode)}, census {census[str(p)][mode]}"
        if expected_text is None:
            return f"bounds p={p}: no recorded output"
        return None if out == expected_text else f"bounds p={p}: output differs from recorded"
    return check


def check_enumerate(p: int, X: int, census: dict, expected: Optional[dict]):
    def check(out: str):
        try:
            got = project_enumerate(out)
        except (ValueError, KeyError, TypeError) as e:
            return f"enumerate p={p} X={X}: unparsable output ({e})"
        if got.get("d_literal") != census[str(p)]["LiteralPairs"]:
            return f"enumerate p={p}: d_literal {got.get('d_literal')} disagrees with the census report"
        if expected is None:
            return f"enumerate p={p} X={X}: no recorded output"
        for k, want in expected.items():
            if not _same(got.get(k), want):
                return f"enumerate p={p} X={X}: {k} = {got.get(k)!r}, want {want!r}"
        return None
    return check


def check_scan(expected: Optional[dict], inputs_digest: str):
    def check(out: str):
        if expected is not None and expected["inputs_sha256"] != inputs_digest:
            return "scan: generated records differ from the recorded ones"
        try:
            got = scan_summary(project_scan(out))
        except (ValueError, KeyError, TypeError) as e:
            return f"scan: unparsable output ({e})"
        if expected is None:
            return "scan: no recorded output"
        if got["sha256"] != expected["sha256"]:
            diff = {k: (got[part].get(k), v) for part in ("conclusions", "reasons")
                    for k, v in expected[part].items() if got[part].get(k) != v}
            return f"scan: output differs from recorded (counts got/want {diff})"
        return None
    return check


# ---------------------------------------------------------------------------
# inputs


def census_choice(variant: str):
    rng = random.Random(f"census-{variant}")
    return {
        "dp": CENSUS_PAIRS[rng.randrange(4)],
        "mode": rng.choice(sorted(DP_MODES)),
        "bounds": CENSUS_PAIRS[rng.randrange(4)],
        "enumerate": CENSUS_PAIRS[rng.randrange(4)],
    }


def sweep_heights(variant: str):
    # a 1.6% band keeps the sweep cost within about 1.4% across variants
    i = _index(variant)
    return 10 ** 8 - 10 ** 5 * i, 3 * 10 ** 7 - 3 * 10 ** 4 * i


def _draw(kind: str, n: int, max_prime: int):
    """n draws from the workload's seeded stream: (A, B) uniform in the
    height-1e8 box, every pair that CurveQ accepts kept, with rank, Sha order
    and regulator data that reach every conclusion and every reason."""
    from iwastat import CurveQ
    from iwastat.errors import NonMinimalModel, SingularCurve
    from iwastat.primes import prime_range

    scan_ps = prime_range(5, max_prime + 1)
    rng = random.Random(f"{kind}-pool")
    draws = []
    while len(draws) < n:
        A = rng.randint(-464, 464)
        B = rng.randint(-10 ** 4, 10 ** 4)
        try:
            curve = CurveQ(A, B)
        except (SingularCurve, NonMinimalModel):
            continue
        rank = rng.choices((0, 1, 2), weights=(5, 4, 1))[0]
        sha = rng.choices((None, 1, 4, 9, 25, 49), weights=(1, 6, 1, 1, 1, 1))[0]
        reg = None
        if rank and rng.random() < 0.85:
            reg = {p: int(rng.random() < 0.1) for p in scan_ps if rng.random() < 0.9}
        draws.append((curve, rank, sha, reg))
    return draws


def _trial_division_reach(ns):
    """For each n, how far factorize's trial division runs on it: the larger
    of the second-largest prime factor and the square root of the largest."""
    import numpy as np
    from iwastat.primes import primes_up_to

    ps = np.array(primes_up_to(math.isqrt(max(ns)) + 1), dtype=np.int64)
    reach = []
    for lo in range(0, len(ns), 512):
        chunk = ns[lo:lo + 512]
        rows, cols = np.nonzero(np.array(chunk, dtype=np.int64)[:, None] % ps == 0)
        divisors = [[] for _ in chunk]
        for r, c in zip(rows.tolist(), cols.tolist()):
            divisors[r].append(int(ps[c]))
        for n, divs in zip(chunk, divisors):
            factors = []
            for p in divs:
                while n % p == 0:
                    n //= p
                    factors.append(p)
            if n > 1:
                factors.append(n)   # no divisor up to sqrt(max(ns)): a prime
            reach.append(max(factors[-2] if len(factors) > 1 else 1,
                             math.isqrt(factors[-1]) if factors else 1))
    return reach


def make_records(kind: str, variant: str):
    """The variant's records, dealt from one pool of draws shared by all
    variants. The scan factors disc0 again for every prime it visits, so a
    few hard discriminants would otherwise set a variant's time: the pool is
    dealt in order of trial-division reach, back and forth like cards, so
    every variant gets the same spread of factoring cost and every draw goes
    to exactly one variant. scan-many gets Tamagawa overrides at 2 and 3 from
    Tate's algorithm, so its scan never runs the local algorithm itself."""
    from iwastat import CurveRecord, local_reduction_raw

    n, max_prime = SCAN_SIZES[kind]
    slices = VARIANTS + 1
    pool = _draw(kind, n * slices, max_prime)
    reach = _trial_division_reach([abs(curve.disc0) for curve, *_ in pool])
    order = sorted(range(len(pool)), key=lambda i: (reach[i], i))
    rounds = [order[r:r + slices] for r in range(0, len(order), slices)]
    k = _index(variant)
    dealt = sorted(rnd[k] if j % 2 == 0 else rnd[-1 - k] for j, rnd in enumerate(rounds))
    records = []
    for i in dealt:
        curve, rank, sha, reg = pool[i]
        overrides = {}
        if kind == "scan-many":
            overrides[2] = local_reduction_raw(curve.A, curve.B, 2).tamagawa
            if curve.disc0 % 3 == 0:
                overrides[3] = local_reduction_raw(curve.A, curve.B, 3).tamagawa
        records.append(CurveRecord(
            curve=curve, rank=rank, sha_order=sha, torsion_order=1,
            tamagawa_overrides=overrides, regulator_valuations=reg, label=f"{kind}-{i}",
        ))
    return records


def records_digest(records) -> str:
    rows = [[r.label, r.curve.A, r.curve.B, r.rank, r.sha_order, r.torsion_order,
             sorted(r.tamagawa_overrides.items()),
             sorted((r.regulator_valuations or {}).items())] for r in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def write_scan_csv(kind: str, variant: str):
    from iwastat import write_records

    records = make_records(kind, variant)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / f"{kind}-{variant}.csv"
    write_records(records, path)
    return path, records_digest(records)


# ---------------------------------------------------------------------------
# plans


def build(name: str, seed: int, expected: dict) -> Workload:
    """The workload's commands, one pass, with their output checks."""
    variant = variant_of(seed)
    census = load_census_report()
    w2 = str(workers2())
    cmds: List[Command] = []
    if name == "census":
        ch = census_choice(variant)
        for p in ch["dp"]:
            cmds.append(Command("dp", ["dp", "--prime", str(p), "--mode", ch["mode"]],
                                check_dp(p, ch["mode"], census)))
        for p in ch["bounds"]:
            cmds.append(Command("bounds", ["bounds", "--prime", str(p)],
                                check_bounds(p, census, expected["census_bounds"].get(str(p)))))
        for p in ch["enumerate"]:
            want = expected["census_enumerate"].get(str(p))
            cmds.append(Command("enumerate",
                                ["enumerate", "--height", str(CENSUS_HEIGHT), "--prime", str(p)],
                                check_enumerate(p, CENSUS_HEIGHT, census, want)))
    elif name == "sweep":
        X5, X7 = sweep_heights(variant)
        want = expected["sweep"].get(variant, {})
        main = ["enumerate", "--height", str(X5), "--prime", "5"]
        cmds.append(Command("enumerate", main,
                            check_enumerate(5, X5, census, want.get("enumerate")),
                            info={"X": X5}))
        cmds.append(Command("enumerate_strict",
                            ["enumerate", "--height", str(X7), "--prime", "7", "--strict"],
                            check_enumerate(7, X7, census, want.get("enumerate_strict")),
                            info={"X": X7}))
        cmds.append(Command("workers2", main + ["--workers", w2],
                            check_enumerate(5, X5, census, want.get("enumerate")),
                            serial=False))
    elif name in SCAN_SIZES:
        path, digest = write_scan_csv(name, variant)
        want = expected[name].get(variant)
        _, max_prime = SCAN_SIZES[name]
        argv = ["scan", str(path), "--max-prime", str(max_prime)]
        if name == "scan-wide":
            argv.append("--allow-23")
        cmds.append(Command("scan", argv + ["--workers", "1"], check_scan(want, digest)))
        if name == "scan-wide":
            cmds.append(Command("workers2", argv + ["--workers", w2], check_scan(want, digest),
                                serial=False))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, seed, variant, cmds)
