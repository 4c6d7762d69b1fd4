import io
import json
import warnings

import pytest

from iwastat.enumeration import density_report_dict, empirical_densities, write_density_report
from iwastat.errors import HeaderMismatch, OutOfRange, UnknownColumnWarning
from iwastat.io import (
    parse_records, scan_entry_text, scan_result_dict, write_records, write_scan_json,
)
from iwastat.prime_scan import CurveRecord, scan_primes
from oracles import write_scan_results

HEADER = "label,a,b,rank,sha_order,torsion_order,tamagawa_2,tamagawa_3,reg_excess"


def write_csv(tmp_path, *rows):
    path = tmp_path / "curves.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    return path


def test_parse_single_record(tmp_path):
    path = write_csv(tmp_path, "389a,-1,1,2,1,1,,,")
    records, errors = parse_records(path)
    assert errors == []
    (r,) = records
    assert r.label == "389a"
    assert (r.curve.A, r.curve.B) == (-1, 1)
    assert r.rank == 2 and r.sha_order == 1 and r.torsion_order == 1
    assert r.tamagawa_overrides == {}
    assert r.regulator_valuations is None


def test_parse_optional_fields(tmp_path):
    path = write_csv(
        tmp_path,
        "full,-1,0,0,1,4,4,,5:0;7:1",
        "bare,0,1,0,,,,,",
        " padded , -1 ,\t1 , 1 , 1 , 2 , , , 5 : 1 ; ;",
    )
    records, errors = parse_records(path)
    assert errors == []
    full, bare, padded = records
    assert full.tamagawa_overrides == {2: 4}
    assert full.regulator_valuations == {5: 0, 7: 1}
    assert full.torsion_order == 4
    assert bare.sha_order is None and bare.torsion_order == 1
    assert padded.label == "padded" and (padded.curve.A, padded.curve.B) == (-1, 1)
    assert (padded.rank, padded.sha_order, padded.torsion_order) == (1, 1, 2)
    assert padded.tamagawa_overrides == {} and padded.regulator_valuations == {5: 1}


def test_row_error_names_the_first_malformed_column(tmp_path):
    # columns are parsed in schema order, and all of them before the curve
    # is built, so a singular pair with a bad reg_excess is a parse error
    path = write_csv(
        tmp_path,
        "bq,-1,q,0,1,,z,,",
        "rank,0,0,zero,1,,,,5:x",
        "sing,0,0,0,1,,,,5:x",
        "tors,-1,0,0,1,0,,,",
        "pad,-1, q ,0,1,,,,",
        "padreg,-1,1,0,1,,,, 5 : x ;",
        "nocolon,-1,1,0,1,,,,5:0; 7 ",
    )
    records, errors = parse_records(path)
    assert records == []
    assert errors == [
        (2, "column b: 'q' is not an integer"),
        (3, "column rank: 'zero' is not an integer"),
        (4, "column reg_excess value: 'x' is not an integer"),
        (5, "torsion_order must be positive, got 0"),
        (6, "column b: 'q' is not an integer"),
        (7, "column reg_excess value: 'x' is not an integer"),
        (8, "reg_excess entry '7' is not p:v"),
    ]


def test_repeated_reg_excess_prime_is_a_row_error(tmp_path):
    # neither value of a prime given twice is kept, in either order, and the
    # other rows still parse
    path = write_csv(
        tmp_path,
        "first,-1,1,1,1,,,,5:0;5:1",
        "second,-1,1,1,1,,,,7:1;5:1;5:0",
        "ok,-1,1,1,1,,,,5:0;7:1",
    )
    records, errors = parse_records(path)
    assert [r.label for r in records] == ["ok"]
    assert records[0].regulator_valuations == {5: 0, 7: 1}
    assert errors == [
        (2, "reg_excess gives prime 5 more than once"),
        (3, "reg_excess gives prime 5 more than once"),
    ]


def test_round_trip(tmp_path):
    recs = [
        CurveRecord(curve=(-1, 0), rank=0, sha_order=1, torsion_order=4,
                    tamagawa_overrides={2: 4}, label="a"),
        CurveRecord(curve=(-1, 1), rank=1, regulator_valuations={5: 0},
                    label="b"),
    ]
    path = tmp_path / "out.csv"
    write_records(recs, path)
    back, errors = parse_records(path)
    assert errors == []
    assert back == recs


def test_write_refuses_an_override_the_schema_cannot_hold(tmp_path):
    # only tamagawa_2 and tamagawa_3 are columns; a c_5 would be dropped and
    # the file would not parse back to the records
    recs = [
        CurveRecord(curve=(-1, 0), rank=0, tamagawa_overrides={2: 4}, label="ok"),
        CurveRecord(curve=(0, 5), rank=0, tamagawa_overrides={5: 5, 2: 1}, label="c5"),
    ]
    path = tmp_path / "out.csv"
    with pytest.raises(OutOfRange, match=r"'c5'.*l=5"):
        write_records(recs, path)
    assert not path.exists()


@pytest.mark.parametrize("label", [" padded ", "trail\t", "\nline"])
def test_write_refuses_a_label_the_parser_would_strip(tmp_path, label):
    # the parser strips each label, so " padded " would come back "padded"
    recs = [
        CurveRecord(curve=(-1, 0), rank=0, label="in side"),
        CurveRecord(curve=(-1, 1), rank=1, label=label),
    ]
    path = tmp_path / "out.csv"
    write_records(recs[:1], path)
    assert parse_records(path) == (recs[:1], [])
    path.unlink()
    with pytest.raises(OutOfRange, match="strips a label's leading and trailing whitespace"):
        write_records(recs, path)
    assert not path.exists()


def test_a_byte_order_mark_reads_as_the_file_without_it(tmp_path):
    text = HEADER + "\n389a,-1,1,2,1,1,,,5:0\nbad,-1,0,zero,,,,,\nb,-1,0,0,,,4,,\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    want = parse_records(plain)
    assert [r.label for r in want[0]] == ["389a", "b"] and len(want[1]) == 1
    assert parse_records(marked) == want


def test_missing_required_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,a,b\nx,1,2\n")
    with pytest.raises(HeaderMismatch):
        parse_records(path)


def test_unknown_column_warns(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text("label,a,b,rank,color\nx,-1,0,0,blue\n")
    with pytest.warns(UnknownColumnWarning):
        records, errors = parse_records(path)
    assert len(records) == 1 and errors == []


def test_bad_rows_isolated(tmp_path):
    path = write_csv(
        tmp_path,
        "good1,-1,0,0,1,1,,,",
        "badrank,-1,0,zero,,,,,",
        "singular,0,0,0,,,,,",
        "good2,-1,1,1,,,,,",
        "goodprime,-1,0,0,,,,7,",  # tamagawa_3 on a curve good at 3
    )
    records, errors = parse_records(path)
    assert [r.label for r in records] == ["good1", "good2"]
    assert sorted(lineno for lineno, _ in errors) == [3, 4, 6]
    msgs = {lineno: msg for lineno, msg in errors}
    assert "rank" in msgs[3]
    assert "good prime" in msgs[6]


def test_row_errors_name_physical_lines(tmp_path):
    # a blank line counts, and a row whose quoted label holds a newline is
    # named by its last line
    path = write_csv(tmp_path, "good,-1,0,0,,,,,", "", "bad,-1,0,zero,,,,,")
    assert [n for n, _ in parse_records(path)[1]] == [4]
    path = write_csv(tmp_path, '"two\nlines",-1,0,zero,,,,,', "bad,-1,0,x,,,,,")
    records, errors = parse_records(path)
    assert records == [] and [n for n, _ in errors] == [3, 4]


def test_a_repeated_header_column_is_refused(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("label,a,b,rank,a\nx,1,1,0,5\n")
    with pytest.raises(HeaderMismatch, match="'a' appears more than once"):
        parse_records(path)


def test_a_row_with_more_fields_than_the_header_is_a_row_error(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("label,a,b,rank\nx,-1,0,0,7\ny,-1,1,1\nz,-1,0\n")
    records, errors = parse_records(path)
    assert [r.label for r in records] == ["y"]
    # a row with fewer fields reads the missing ones as empty
    assert errors == [(2, "5 fields, the header has 4"),
                      (4, "column rank: '' is not an integer")]


def test_density_report_serialization(tmp_path):
    r = empirical_densities(5, 10**4, ip_primes=[7])
    d = density_report_dict(r)
    assert set(d) == {
        "p", "X", "total", "total_weq", "good_at_p", "e2", "e3",
        "ip_counts", "brumer_estimate", "bound_dp2", "bound_dp3", "d_literal",
    }
    assert d["ip_counts"] == {"7": r.ip_counts[7]}
    path = tmp_path / "report.json"
    write_density_report(r, path)
    assert json.loads(path.read_text()) == d
    strict = empirical_densities(5, 10**4, strict=True)
    ds = density_report_dict(strict)
    assert "skipped_uncertified" in ds
    assert isinstance(ds["skipped_uncertified"], int)


def test_scan_result_serialization(tmp_path):
    rec = CurveRecord(curve=(-1, 0), rank=0, sha_order=1, label="x")
    results = scan_primes(rec, 20)
    d = scan_result_dict(results[0])
    assert set(d) == {
        "p", "class", "in_sigma", "in_sigma_prime", "in_upsilon", "in_pi",
        "conclusion", "conditional", "reason", "mu", "lam", "chi_valuation",
    }
    assert d["p"] == 5 and d["conclusion"] == "SelmerTrivial"
    path = tmp_path / "scan.json"
    write_scan_results(results, path, label="x")
    blob = json.loads(path.read_text())
    assert blob["label"] == "x"
    assert [row["p"] for row in blob["results"]] == [5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("label", [
    "", 'say "hi"', "back\\slash\\", "tab\tnew\nline", "caf\u00e9 \u2603 \U0001f600", "\x00\x7f",
])
def test_scan_json_writer_escapes_labels(label):
    rec = CurveRecord(curve=(-1, 1), rank=1, sha_order=1, regulator_valuations={5: 0})
    cases = [[(label, scan_primes(rec, 60))],
             [(label, []), ("next", scan_primes(rec, 7))],   # a record with no results
             []]                                              # an empty batch
    for scans in cases:
        payload = [{"label": lab, "results": [scan_result_dict(r) for r in results]}
                   for lab, results in scans]
        fh = io.StringIO()
        write_scan_json((scan_entry_text(lab, results) for lab, results in scans), fh)
        text = fh.getvalue()
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert text.isascii()
    fh = io.StringIO()
    write_scan_json(iter([]), fh)
    assert fh.getvalue() == "[]\n"


def test_scan_rows_render_each_result_object_as_its_own(monkeypatch):
    # the writer keeps each distinct result's template by object; results
    # built and dropped one by one (their ids are reused at once) and equal
    # results that are different objects must each render as json.dumps
    # does, and the templates kept stay bounded
    from iwastat import io as iwastat_io
    from iwastat.curves import ReductionClass
    from iwastat.prime_scan import Conclusion, PrimeScanResult, Reason

    monkeypatch.setattr(iwastat_io, "_TEMPLATE_LIMIT", 8)
    iwastat_io._TEMPLATES.clear()
    kinds = [
        (ReductionClass.GOOD_ORDINARY, False, False, False, None,
         Conclusion.SELMER_TRIVIAL, False, Reason.NONE, 0, 0, 0),
        (ReductionClass.GOOD_ORDINARY, True, False, False, None,
         Conclusion.INCONCLUSIVE, False, Reason.ANOMALOUS, None, None, None),
        (ReductionClass.GOOD_SUPERSINGULAR, False, None, None, True,
         Conclusion.INCONCLUSIVE, False, Reason.MISSING_SHA, None, None, None),
        (ReductionClass.BAD, False, None, None, None,
         Conclusion.BAD_PRIME, False, Reason.BAD_PRIME, None, None, None),
    ]
    for i in range(200):
        results = [PrimeScanResult(5 + 2 * j, *kinds[(i + j) % len(kinds)]) for j in range(i % 5)]
        want = json.dumps([{"label": "r", "results": [scan_result_dict(r) for r in results]}],
                          indent=2, sort_keys=True) + "\n"
        fh = io.StringIO()
        write_scan_json([scan_entry_text("r", results)], fh)
        assert fh.getvalue() == want, i
        # emptied once it reaches the limit, before a record adds its rows
        assert len(iwastat_io._TEMPLATES) < 8 + 4
