"""CSV ingestion of curve records and report serialization.

Ingest schema (header names exact, lower-case):
    label,a,b,rank,sha_order,torsion_order,tamagawa_2,tamagawa_3,reg_excess
label, a, b, rank are required. reg_excess holds "p:v" pairs separated by
semicolons, e.g. "5:0;7:1". Unknown columns are ignored with a warning;
malformed rows are rejected with a per-row error, never silently fixed.

Importing the module loads neither iwastat.enumeration nor
iwastat.prime_scan: `enumerate` needs only the density-report writers
here, and the record reader and scan writers import prime_scan when called.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import asdict, fields
from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, TextIO, Tuple

from .curves import CurveQ
from .errors import HeaderMismatch, IwastatError, OutOfRange, ParseError, UnknownColumnWarning

if TYPE_CHECKING:
    from .enumeration import DensityReport
    from .prime_scan import CurveRecord, PrimeScanResult

__all__ = [
    "REQUIRED_COLUMNS",
    "KNOWN_COLUMNS",
    "parse_records",
    "write_records",
    "density_report_dict",
    "write_density_report",
    "scan_result_dict",
    "scan_entry_text",
    "write_scan_json",
]

REQUIRED_COLUMNS = ["label", "a", "b", "rank"]
KNOWN_COLUMNS = REQUIRED_COLUMNS + [
    "sha_order", "torsion_order", "tamagawa_2", "tamagawa_3", "reg_excess",
]


def _parse_int(raw: str, col: str) -> int:
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"column {col}: {raw!r} is not an integer") from None


def _parse_opt_int(raw: Optional[str], col: str) -> Optional[int]:
    if raw is None or raw.strip() == "":
        return None
    return _parse_int(raw, col)


def _parse_reg_excess(raw: Optional[str]) -> Optional[Dict[int, int]]:
    out = {}
    for part in (raw or "").split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ParseError(f"reg_excess entry {part!r} is not p:v")
        ps, vs = part.split(":", 1)
        out[_parse_int(ps, "reg_excess prime")] = _parse_int(vs, "reg_excess value")
    return out or None


def parse_records(path) -> Tuple[List[CurveRecord], List[Tuple[int, str]]]:
    """Read the ingest CSV. Returns (records, errors); errors carry
    (1-based line number, message) and leave the other rows intact.
    A file that is not UTF-8 text raises ParseError."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return _parse_rows(csv.DictReader(fh))
        except UnicodeDecodeError as e:
            raise ParseError(f"not UTF-8 text: {e}") from None


def _parse_rows(reader) -> Tuple[List[CurveRecord], List[Tuple[int, str]]]:
    from .prime_scan import CurveRecord

    header = reader.fieldnames
    if header is None:
        raise HeaderMismatch("empty file, header row required")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise HeaderMismatch(f"missing required columns: {missing}")
    unknown = [c for c in header if c not in KNOWN_COLUMNS]
    if unknown:
        warnings.warn(f"ignoring unknown columns: {unknown}", UnknownColumnWarning)

    records, errors = [], []
    for lineno, raw in enumerate(reader, start=2):
        try:
            # every column is parsed, in schema order, before the curve is
            # built, so the message names a row's first malformed column
            a, b, rank = (_parse_int(raw.get(c) or "", c) for c in ("a", "b", "rank"))
            sha, torsion, tam2, tam3 = (_parse_opt_int(raw.get(c), c) for c in (
                "sha_order", "torsion_order", "tamagawa_2", "tamagawa_3"))
            reg = _parse_reg_excess(raw.get("reg_excess"))
            records.append(CurveRecord(
                curve=CurveQ(a, b),
                rank=rank,
                sha_order=sha,
                torsion_order=1 if torsion is None else torsion,
                tamagawa_overrides={l: c for l, c in ((2, tam2), (3, tam3)) if c is not None},
                regulator_valuations=reg,
                label=(raw.get("label") or "").strip(),
            ))
        except IwastatError as e:
            errors.append((lineno, str(e) or type(e).__name__))
    return records, errors


def write_records(records: List[CurveRecord], path) -> None:
    """Emit records in the ingest schema; parse(write(records)) round-trips.

    The schema holds Tamagawa overrides at l = 2 and 3 only; a record with
    one at another l raises OutOfRange before the file is opened."""
    for r in records:
        unwritable = sorted(set(r.tamagawa_overrides) - {2, 3})
        if unwritable:
            raise OutOfRange(f"record {r.label!r}: the ingest schema has no column "
                             f"for a Tamagawa override at l={unwritable[0]}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(KNOWN_COLUMNS)
        for r in records:
            reg = ""
            if r.regulator_valuations:
                reg = ";".join(f"{p}:{v}" for p, v in sorted(r.regulator_valuations.items()))
            w.writerow([
                r.label, r.curve.A, r.curve.B, r.rank,
                "" if r.sha_order is None else r.sha_order,
                r.torsion_order,
                r.tamagawa_overrides.get(2, ""),
                r.tamagawa_overrides.get(3, ""),
                reg,
            ])


def density_report_dict(report: DensityReport) -> dict:
    d = asdict(report)
    if d.get("skipped_uncertified") is None:
        d.pop("skipped_uncertified", None)
    d["ip_counts"] = {str(l): n for l, n in sorted(report.ip_counts.items())}
    return d


def write_density_report(report: DensityReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(density_report_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def scan_result_dict(res: PrimeScanResult) -> dict:
    return {
        "p": res.p,
        "class": res.reduction_class.value,
        "in_sigma": res.in_sigma,
        "in_sigma_prime": res.in_sigma_prime,
        "in_upsilon": res.in_upsilon,
        "in_pi": res.in_pi,
        "conclusion": res.conclusion.value,
        "conditional": res.conditional,
        "reason": res.reason.value,
        "mu": res.mu,
        "lam": res.lam,
        "chi_valuation": res.chi_valuation,
    }


_ROW_INDENT = " " * 6
_P_KEY = '"p": '


@lru_cache(maxsize=1)
def _row_key():
    """The getter of every field of a result but p, in declaration order:
    the key of a row's text."""
    from .prime_scan import PrimeScanResult

    return attrgetter(*(f.name for f in fields(PrimeScanResult) if f.name != "p"))


@lru_cache(maxsize=256)
def _row_template(key) -> Tuple[str, str]:
    """The text of a result row in the scan JSON, cut where the value of p
    goes. Rows with equal keys differ only in p, so a scan renders a few
    dozen distinct rows with the json encoder and splices p into them."""
    from .prime_scan import PrimeScanResult

    text = json.dumps(scan_result_dict(PrimeScanResult(-1, *key)), indent=2, sort_keys=True)
    text = _ROW_INDENT + text.replace("\n", "\n" + _ROW_INDENT)
    head, mark, tail = text.partition(_P_KEY + "-1")
    assert mark, text
    return head + _P_KEY, tail


def scan_entry_text(label: str, results: List[PrimeScanResult]) -> str:
    """One record's entry of the scan JSON, as the text that
    json.dumps(payload, indent=2, sort_keys=True) gives the element
    {"label": label, "results": [scan_result_dict(r) for r in results]}
    of the payload list."""
    head = '  {\n    "label": ' + json.dumps(label) + ',\n    "results": '
    if not results:
        return head + "[]\n  }"
    row_key = _row_key()
    rows = []
    for res in results:
        row_head, row_tail = _row_template(row_key(res))
        rows.append(row_head + str(res.p) + row_tail)
    return head + "[\n" + ",\n".join(rows) + "\n    ]\n  }"


def write_scan_json(entries: Iterable[str], fh: TextIO) -> None:
    """Write the scan JSON from scan_entry_text entries to fh, each as it
    arrives: byte for byte json.dumps(payload, indent=2, sort_keys=True) of
    the payload list and a newline, without the pure-Python encoder that
    indent=2 falls back to, and without holding more than one entry."""
    sep = "[\n"
    for entry in entries:
        fh.write(sep)
        fh.write(entry)
        sep = ",\n"
    fh.write("[]\n" if sep == "[\n" else "\n]\n")
