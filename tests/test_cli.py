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
