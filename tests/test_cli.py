import json

import pytest

from iwastat import cli

HEADER = "label,a,b,rank,sha_order,torsion_order,tamagawa_2,tamagawa_3,reg_excess"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants(capsys):
    code, out, _ = run(capsys, "invariants", "--poly", "25,5", "--prime", "5")
    assert code == 0
    assert "mu = 1" in out and "lambda = 1" in out
    assert "vanishing_order = 0" in out
    assert "truncated_chi_valuation = 2" in out


def test_invariants_bad_poly(capsys):
    code, _, err = run(capsys, "invariants", "--poly", "0,0", "--prime", "5")
    assert code == 1 and "error" in err.lower()


def test_dp_modes(capsys):
    assert run(capsys, "dp", "--prime", "5", "--mode", "literal")[1].strip() == "3"
    assert run(capsys, "dp", "--prime", "5", "--mode", "trace-pairs")[1].strip() == "2"
    assert run(capsys, "dp", "--prime", "5", "--mode", "trace-classes")[1].strip() == "1"


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--prime", "5")
    assert code == 0
    assert "bound_dp2(5)" in out and "0.009693875" in out
    assert "LiteralPairs" in out and "TraceOneClasses" in out


def test_enumerate_json(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "enumerate", "--height", "100", "--prime", "5", "--out", str(out_path)
    )
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert blob["total"] == 186 and blob["p"] == 5
    # stdout variant carries the same payload
    code, out, _ = run(capsys, "enumerate", "--height", "100", "--prime", "5")
    assert code == 0 and json.loads(out)["total"] == 186


def test_ip_count(capsys):
    code, out, _ = run(capsys, "ip-count", "--l", "7", "--p", "5", "--height", "1000000")
    assert code == 0
    assert "count = 16" in out and "lower" in out and "upper" in out
    # below the primorial cutoff only the exact count is printed
    code, out, _ = run(capsys, "ip-count", "--l", "7", "--p", "5", "--height", "2000")
    assert code == 0 and "count = " in out and "lower" not in out


def test_scan_csv(capsys, tmp_path):
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\n389a,-1,1,2,1,1,,,5:0\n")
    out_path = tmp_path / "scan.json"
    code, _, _ = run(
        capsys, "scan", str(path), "--max-prime", "20", "--out", str(out_path)
    )
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert blob[0]["label"] == "389a"
    rows = blob[0]["results"]
    assert [r["p"] for r in rows] == [5, 7, 11, 13, 17, 19]
    assert rows[0]["conclusion"] == "CharElementIsTr"


def test_scan_row_errors_return_nonzero(capsys, tmp_path):
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\nok,-1,0,0,1,,,,\nbad,-1,0,zero,,,,,\n")
    code, out, err = run(capsys, "scan", str(path), "--max-prime", "10")
    assert code == 1
    assert "row 3" in err
    assert json.loads(out)[0]["label"] == "ok"


def test_scan_label_filter(capsys, tmp_path):
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\na,-1,0,0,1,,,,\nb,-1,1,1,1,,,,\n")
    code, out, _ = run(capsys, "scan", str(path), "--max-prime", "10", "--label", "b")
    assert code == 0
    blob = json.loads(out)
    assert [r["label"] for r in blob] == ["b"]


def test_missing_file(capsys):
    code, _, err = run(capsys, "scan", "/nonexistent/file.csv", "--max-prime", "10")
    assert code == 1 and "error" in err.lower()


def test_usage_errors(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "dp")[0] == 1  # missing required --prime
    assert run(capsys)[0] == 1  # no subcommand


@pytest.mark.parametrize("argv", [
    ["bounds", "--prime", "3"],
    ["bounds", "--prime", "9"],
    ["enumerate", "--height", "0", "--prime", "5"],
    ["enumerate", "--height", "100000", "--prime", "3"],
])
def test_bad_census_input_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.strip() != "error:"


def test_assertion_maps_to_exit_2(capsys, monkeypatch):
    def boom(args):
        raise AssertionError("sandwich violated")

    monkeypatch.setitem(cli._HANDLERS, "dp", boom)
    code, _, err = run(capsys, "dp", "--prime", "5")
    assert code == 2 and "internal error" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_bad_record_does_not_sink_batch(capsys, tmp_path, workers):
    # v_2(Delta) = 10 for (5, 6): the 5-part of c_2 cannot be certified
    # without an override, so that record stops with UnknownLocalData
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\ngood,-1,0,0,1,4,,,\nbad,5,6,0,1,1,,,\n")
    code, out, err = run(capsys, "scan", str(path), "--max-prime", "20",
                         "--workers", workers)
    assert code == 1
    assert "record bad: cannot certify the 5-part of c_2" in err
    blob = json.loads(out)
    assert [r["label"] for r in blob] == ["good"]
    assert [r["p"] for r in blob[0]["results"]] == [5, 7, 11, 13, 17, 19]


def test_scan_workers_match_serial(capsys, tmp_path):
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\n" + "\n".join([
        "a,-1,0,0,1,4,,,",
        "b,-1,1,1,1,1,,,5:0;7:1;59:0",
        "c,3,0,0,,,,,",
        "d,28,-86,0,1,1,,,",
        "e,0,1,2,9,6,,,",
        "f,-7,6,1,1,1,2,,5:0;11:0",
        "g,5,6,0,1,1,1,,",
        "h,-2,3,0,25,1,,,",
    ]) + "\n")
    outs = []
    for workers in ("1", "2"):
        code, out, err = run(capsys, "scan", str(path), "--max-prime", "60",
                             "--allow-23", "--workers", workers)
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert [r["label"] for r in json.loads(outs[0])] == list("abcdefgh")


def test_scan_record_input_errors_exit_1(capsys, tmp_path, monkeypatch):
    # the typed record errors keep their messages and exit code 1
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\n" + "\n".join([
        "ok,-1,0,0,1,,,,",
        "nosha,-1,0,0,0,,,,",
        "zeroc2,-1,0,0,1,,0,,",
        "goodat3,-1,0,0,1,,,2,",
    ]) + "\n")
    code, out, err = run(capsys, "scan", str(path), "--max-prime", "10")
    assert code == 1
    assert err.splitlines() == [
        "row 3: sha_order must be positive, got 0",
        "row 4: Tamagawa override at 2 must be positive, got 0",
        "row 5: Tamagawa override at good prime 3 (bad set [2])",
    ]
    assert [r["label"] for r in json.loads(out)] == ["ok"]
    monkeypatch.setenv("IWASTAT_THREADS", "x")
    code, out, err = run(capsys, "scan", str(path), "--max-prime", "10", "--label", "ok")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "error: invalid literal for int() with base 10: 'x'"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_internal_error_does_not_hide_other_records(capsys, tmp_path, monkeypatch, workers):
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\na,-1,0,0,1,4,,,\nb,-1,1,1,1,1,,,\nc,3,0,0,1,,,,\n")
    code, want, _ = run(capsys, "scan", str(path), "--max-prime", "30", "--label", "a")
    assert code == 0
    code, want_c, _ = run(capsys, "scan", str(path), "--max-prime", "30", "--label", "c")
    real = cli.scan_primes

    def scan(rec, *args, **kwargs):
        if rec.label == "b":
            raise AssertionError("invariant broken")
        return real(rec, *args, **kwargs)

    # the pool forks, so its workers see the patched name too
    monkeypatch.setattr(cli, "scan_primes", scan)
    code, out, err = run(capsys, "scan", str(path), "--max-prime", "30", "--workers", workers)
    assert code == 2
    assert err == "internal error in record b: invariant broken\n"
    assert json.loads(out) == json.loads(want) + json.loads(want_c)


def test_scan_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\na,-1,0,0,1,4,,,\nb,-1,1,1,1,1,,,5:0\n")
    out_path = tmp_path / "scan.json"
    code, out, _ = run(capsys, "scan", str(path), "--max-prime", "40")
    assert code == 0 and out.endswith("]\n")
    code, nothing, _ = run(capsys, "scan", str(path), "--max-prime", "40", "--out", str(out_path))
    assert code == 0 and nothing == ""
    assert out_path.read_bytes() == out.encode()
