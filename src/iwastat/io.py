"""CSV ingestion of curve records and report serialization.

Ingest schema (header names exact, lower-case):
    label,a,b,rank,sha_order,torsion_order,tamagawa_2,tamagawa_3,reg_excess
label, a, b, rank are required. reg_excess holds "p:v" pairs separated by
semicolons, e.g. "5:0;7:1". Unknown columns are ignored with a warning;
malformed rows are rejected with a per-row error, never silently fixed.
"""

import csv
import json
import warnings
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .curves import CurveQ
from .enumeration import DensityReport
from .errors import HeaderMismatch, IwastatError, ParseError, UnknownColumnWarning
from .prime_scan import CurveRecord, PrimeScanResult

__all__ = [
    "IngestRow",
    "REQUIRED_COLUMNS",
    "KNOWN_COLUMNS",
    "parse_records",
    "write_records",
    "density_report_dict",
    "write_density_report",
    "scan_result_dict",
    "scan_entry_text",
    "scan_json_text",
    "write_scan_results",
]

REQUIRED_COLUMNS = ["label", "a", "b", "rank"]
KNOWN_COLUMNS = REQUIRED_COLUMNS + [
    "sha_order", "torsion_order", "tamagawa_2", "tamagawa_3", "reg_excess",
]


@dataclass(frozen=True)
class IngestRow:
    label: str
    a: int
    b: int
    rank: int
    sha_order: Optional[int] = None
    torsion_order: Optional[int] = None
    tamagawa_2: Optional[int] = None
    tamagawa_3: Optional[int] = None
    reg_excess: Optional[Dict[int, int]] = None


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
    if raw is None or raw.strip() == "":
        return None
    out = {}
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ParseError(f"reg_excess entry {part!r} is not p:v")
        ps, vs = part.split(":", 1)
        out[_parse_int(ps, "reg_excess prime")] = _parse_int(vs, "reg_excess value")
    return out or None


def _row_to_record(row: IngestRow) -> CurveRecord:
    overrides = {}
    if row.tamagawa_2 is not None:
        overrides[2] = row.tamagawa_2
    if row.tamagawa_3 is not None:
        overrides[3] = row.tamagawa_3
    return CurveRecord(
        curve=CurveQ(row.a, row.b),
        rank=row.rank,
        sha_order=row.sha_order,
        torsion_order=row.torsion_order if row.torsion_order is not None else 1,
        tamagawa_overrides=overrides,
        regulator_valuations=row.reg_excess,
        label=row.label,
    )


def parse_records(path) -> Tuple[List[CurveRecord], List[Tuple[int, str]]]:
    """Read the ingest CSV. Returns (records, errors); errors carry
    (1-based line number, message) and leave the other rows intact."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
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
                row = IngestRow(
                    label=(raw.get("label") or "").strip(),
                    a=_parse_int(raw.get("a") or "", "a"),
                    b=_parse_int(raw.get("b") or "", "b"),
                    rank=_parse_int(raw.get("rank") or "", "rank"),
                    sha_order=_parse_opt_int(raw.get("sha_order"), "sha_order"),
                    torsion_order=_parse_opt_int(raw.get("torsion_order"), "torsion_order"),
                    tamagawa_2=_parse_opt_int(raw.get("tamagawa_2"), "tamagawa_2"),
                    tamagawa_3=_parse_opt_int(raw.get("tamagawa_3"), "tamagawa_3"),
                    reg_excess=_parse_reg_excess(raw.get("reg_excess")),
                )
                records.append(_row_to_record(row))
            except (IwastatError, ValueError) as e:
                errors.append((lineno, str(e) or type(e).__name__))
        return records, errors


def write_records(records: List[CurveRecord], path) -> None:
    """Emit records in the ingest schema; parse(write(records)) round-trips."""
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


# every field of a result but p, in declaration order: the key of a row's text
_row_key = attrgetter(*(f.name for f in fields(PrimeScanResult) if f.name != "p"))
_ROW_INDENT = " " * 6
_P_KEY = '"p": '


@lru_cache(maxsize=256)
def _row_template(key) -> Tuple[str, str]:
    """The text of a result row in the scan JSON, cut where the value of p
    goes. Rows with equal keys differ only in p, so a scan renders a few
    dozen distinct rows with the json encoder and splices p into them."""
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
    rows = []
    for res in results:
        row_head, row_tail = _row_template(_row_key(res))
        rows.append(row_head + str(res.p) + row_tail)
    return head + "[\n" + ",\n".join(rows) + "\n    ]\n  }"


def scan_json_text(entries: List[str]) -> str:
    """The scan JSON from scan_entry_text entries: byte for byte
    json.dumps(payload, indent=2, sort_keys=True) of the payload list,
    without the pure-Python encoder that indent=2 falls back to."""
    return "[\n" + ",\n".join(entries) + "\n]" if entries else "[]"


def write_scan_results(results: List[PrimeScanResult], path, label: str = "") -> None:
    payload = {"label": label, "results": [scan_result_dict(r) for r in results]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
