"""CSV ingestion of curve records and the scan's JSON output.

Ingest schema (header names exact, lower-case):
    label,a,b,rank,sha_order,torsion_order,tamagawa_2,tamagawa_3,reg_excess
label, a, b, rank are required. reg_excess holds "p:v" pairs separated by
semicolons, e.g. "5:0;7:1". Unknown columns are ignored with a warning;
malformed rows are rejected with a per-row error, never silently fixed.

The module serves the scan alone: its records and results are
prime_scan's CurveRecord and PrimeScanResult. The density report of
`enumerate` is written by enumeration.write_density_report.
"""

import csv
import json
import warnings
from functools import lru_cache
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, TextIO, Tuple

from .curves import CurveQ
from .errors import HeaderMismatch, IwastatError, OutOfRange, ParseError, UnknownColumnWarning
from .prime_scan import CurveRecord, PrimeScanResult

__all__ = [
    "REQUIRED_COLUMNS",
    "KNOWN_COLUMNS",
    "parse_records",
    "write_records",
    "scan_result_dict",
    "scan_entry_text",
    "write_scan_json",
]

REQUIRED_COLUMNS = ["label", "a", "b", "rank"]
KNOWN_COLUMNS = REQUIRED_COLUMNS + [
    "sha_order", "torsion_order", "tamagawa_2", "tamagawa_3", "reg_excess",
]


def _parse_int(raw: str, col: str) -> int:
    # int() skips the same surrounding whitespace that str.strip() removes
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"column {col}: {raw.strip()!r} is not an integer") from None


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
        ps, colon, vs = part.partition(":")
        if not colon:
            raise ParseError(f"reg_excess entry {part!r} is not p:v")
        p = _parse_int(ps, "reg_excess prime")
        if p in out:
            raise ParseError(f"reg_excess gives prime {p} more than once")
        out[p] = _parse_int(vs, "reg_excess value")
    return out or None


def parse_records(path) -> Tuple[List[CurveRecord], List[Tuple[int, str]]]:
    """Read the ingest CSV. Returns (records, errors); errors carry (line,
    message), the line of the file where the row ends (its last, where a
    quoted field holds a newline), and leave the other rows intact. A bad
    header raises HeaderMismatch, a file that is not UTF-8 text ParseError;
    a leading byte-order mark is skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            return _parse_rows(csv.DictReader(fh))
        except UnicodeDecodeError as e:
            raise ParseError(f"not UTF-8 text: {e}") from None


def _parse_rows(reader) -> Tuple[List[CurveRecord], List[Tuple[int, str]]]:
    header = reader.fieldnames
    if header is None:
        raise HeaderMismatch("empty file, header row required")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise HeaderMismatch(f"missing required columns: {missing}")
    repeated = [c for i, c in enumerate(header) if c in header[:i]]
    if repeated:
        raise HeaderMismatch(f"column {repeated[0]!r} appears more than once")
    unknown = [c for c in header if c not in KNOWN_COLUMNS]
    if unknown:
        warnings.warn(f"ignoring unknown columns: {unknown}", UnknownColumnWarning)

    records, errors = [], []
    for raw in reader:
        try:
            if None in raw:  # DictReader's key for the fields past the header
                raise ParseError(f"{len(header) + len(raw[None])} fields, "
                                 f"the header has {len(header)}")
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
            errors.append((reader.line_num, str(e) or type(e).__name__))
    return records, errors


def write_records(records: List[CurveRecord], path) -> None:
    """Emit records in the ingest schema; parse(write(records)) round-trips.

    The schema holds Tamagawa overrides at l = 2 and 3 only, and the parser
    strips each label; a record with an override at another l, or a label
    with leading or trailing whitespace, raises OutOfRange before the file
    is opened."""
    for r in records:
        unwritable = sorted(set(r.tamagawa_overrides) - {2, 3})
        if unwritable:
            raise OutOfRange(f"record {r.label!r}: the ingest schema has no column "
                             f"for a Tamagawa override at l={unwritable[0]}")
        if r.label != r.label.strip():
            raise OutOfRange(f"record {r.label!r}: the ingest schema strips a label's "
                             "leading and trailing whitespace")
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
# every field of a result but p (the first), in declaration order: the key
# of a row's text
_ROW_KEY = attrgetter(*PrimeScanResult.__slots__[1:])


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


# id(result) -> (result, head, tail): each distinct result's template,
# looked up once. Results are shared between records (prime_scan._result),
# so a scan meets each again and again; the entry holds its result, so the
# id stays that result's. Emptied when it reaches the size of that cache.
_TEMPLATES: Dict[int, Tuple[PrimeScanResult, str, str]] = {}
_TEMPLATE_LIMIT = 4096


def scan_entry_text(label: str, results: List[PrimeScanResult]) -> str:
    """One record's entry of the scan JSON, as the text that
    json.dumps(payload, indent=2, sort_keys=True) gives the element
    {"label": label, "results": [scan_result_dict(r) for r in results]}
    of the payload list."""
    head = '  {\n    "label": ' + json.dumps(label) + ',\n    "results": '
    if not results:
        return head + "[]\n  }"
    templates = _TEMPLATES
    if len(templates) >= _TEMPLATE_LIMIT:
        templates.clear()
    rows = []
    for res in results:
        known = templates.get(id(res))
        if known is None:
            known = templates[id(res)] = (res, *_row_template(_ROW_KEY(res)))
        rows.append(known[1] + str(res.p) + known[2])
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
