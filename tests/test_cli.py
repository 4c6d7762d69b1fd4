import json
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap

import pytest

import iwastat
from iwastat import cli
from iwastat.errors import UnknownLocalData

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


@pytest.mark.parametrize("p", ["0", "1", "4", "9"])
def test_ip_count_non_prime_exponent_exits_1(capsys, p):
    code, out, err = run(capsys, "ip-count", "--l", "7", "--p", p, "--height", "5000")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_invariants_bad_poly_is_an_input_error(capsys):
    code, out, err = run(capsys, "invariants", "--poly", "1,x", "--prime", "5")
    assert (code, out) == (1, "")
    assert err == "error: --poly '1,x' is not a comma-separated integer list\n"


def test_scan_non_utf8_csv_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "recs.csv"
    path.write_bytes(HEADER.encode() + b"\n\xff,-1,0,0,1,,,,\n")
    code, out, err = run(capsys, "scan", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


def test_os_errors_exit_1(capsys, tmp_path):
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\na,-1,0,0,1,4,,,\n")
    for argv in (["scan", str(tmp_path)], ["scan", str(path), "--out", str(tmp_path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


@pytest.mark.parametrize("exc", [TypeError, ValueError, KeyError])
def test_other_exceptions_map_to_exit_2(capsys, monkeypatch, exc):
    def boom(args):
        raise exc("boom")

    monkeypatch.setitem(cli._HANDLERS, "dp", boom)
    code, out, err = run(capsys, "dp", "--prime", "5")
    assert (code, out) == (2, "")
    assert err == f"internal error: {exc('boom')}\n"


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


def test_scan_rows_match_the_point_orders(capsys, tmp_path, monkeypatch):
    # a scan to the row bound reads every a_p from the point-count rows, a
    # scan to the next prime past it counts that prime by point orders; cut
    # the one row
    # past the bound from each of its entries and the two print the same
    # bytes. The records meet every coset of the fourth powers and primes
    # dividing disc0 (7 | disc0 of (1, 5), 23 of (-1, 1), 5 of (28, -86));
    # "big" has no Sha order, so its disc0 is never factored.
    from iwastat import curves
    from iwastat.primes import prime_range

    bound = curves._ROW_PRIME_BOUND
    past = next(p for p in prime_range(bound + 1, 2 * bound))
    rows = [f"r{a}_{b},{a},{b},{(a + b) % 2},1,1,,,"
            for a in range(-7, 8) for b in range(-7, 8, 3)
            if 4 * a ** 3 + 27 * b * b and not (a == 0 and b == 0)]
    rows += ["d,28,-86,0,1,1,,,", "big,123456789012345,-98765432109876543,1,,1,,,"]
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    order_counts = []
    real = curves._trace_by_point_orders
    monkeypatch.setattr(curves, "_trace_by_point_orders",
                        lambda *a: order_counts.append(a) or real(*a))
    runs = []
    for m in (bound, past):
        runs.append(run(capsys, "scan", str(path), "--max-prime", str(m), "--allow-23"))
        # every record: no point orders to the bound, one prime past it
        assert len(order_counts) == (m == past) * len(rows)
    (code, out, err), (past_code, past_out, past_err) = runs
    assert (code, err) == (past_code, past_err) == (0, "")
    cut = re.sub(r',\n      \{[^{}]*"p": %d,[^{}]*\}\n    \]' % past, "\n    ]", past_out)
    assert cut.count('"p": ') == past_out.count('"p": ') - len(rows)
    assert cut == out


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_record_bug_does_not_hide_other_records(capsys, tmp_path, monkeypatch, workers):
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\na,-1,0,0,1,4,,,\nb,-1,1,1,1,1,,,\nc,3,0,0,1,,,,\n")
    code, want, _ = run(capsys, "scan", str(path), "--max-prime", "30")
    real = cli.scan_primes

    def scan(rec, *args, **kwargs):
        if rec.label == "b":
            return real(rec, *args, **kwargs) + None
        return real(rec, *args, **kwargs)

    monkeypatch.setattr(cli, "scan_primes", scan)
    code, out, err = run(capsys, "scan", str(path), "--max-prime", "30", "--workers", workers)
    assert code == 2
    assert err.startswith("internal error in record b: can only concatenate list")
    assert json.loads(out) == [r for r in json.loads(want) if r["label"] != "b"]


def test_scan_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\na,-1,0,0,1,4,,,\nb,-1,1,1,1,1,,,5:0\n")
    out_path = tmp_path / "scan.json"
    code, out, _ = run(capsys, "scan", str(path), "--max-prime", "40")
    assert code == 0 and out.endswith("]\n")
    code, nothing, _ = run(capsys, "scan", str(path), "--max-prime", "40", "--out", str(out_path))
    assert code == 0 and nothing == ""
    assert out_path.read_bytes() == out.encode()


STREAM_ROWS = ["a,-1,0,0,1,4,,,", "b,-1,1,1,1,1,,,5:0", "c,3,0,0,1,,,,", "d,28,-86,0,1,1,,,"]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("rows, failing", [
    ([], set()),                                     # an empty batch
    (STREAM_ROWS, set()),
    (STREAM_ROWS, {"a", "b", "c", "d"}),             # every record fails
    (STREAM_ROWS, {"a"}),                            # the first
    (STREAM_ROWS, {"d"}),                            # the last
    (STREAM_ROWS, {"a", "d"}),
], ids=["empty", "none-fail", "all-fail", "first-fails", "last-fails", "ends-fail"])
def test_scan_streams_the_json_dumps_bytes(capsys, tmp_path, monkeypatch, workers, rows, failing):
    # the entries are written as they finish; the bytes are still those of
    # json.dumps over the batch, on stdout and in --out alike
    from iwastat.io import scan_result_dict
    from iwastat.prime_scan import scan_primes

    path = tmp_path / "recs.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    records, _ = cli.parse_records(str(path))
    payload = [{"label": rec.label, "results": [scan_result_dict(r) for r in scan_primes(rec, 40)]}
               for rec in records if rec.label not in failing]
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def scan(rec, *args, **kwargs):
        if rec.label in failing:
            raise UnknownLocalData(f"no data for {rec.label}")
        return scan_primes(rec, *args, **kwargs)

    # the pool forks, so its workers see the patched name too
    monkeypatch.setattr(cli, "scan_primes", scan)
    argv = ["scan", str(path), "--max-prime", "40", "--workers", workers]
    code, out, err = run(capsys, *argv)
    assert out == want
    assert code == (1 if failing else 0)
    assert err.splitlines() == [f"record {r.label}: no data for {r.label}"
                                for r in records if r.label in failing]
    out_path = tmp_path / "scan.json"
    assert run(capsys, *argv, "--out", str(out_path)) == (code, "", err)
    assert out_path.read_bytes() == want.encode()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_unwritable_out_exits_before_scanning(capsys, tmp_path, monkeypatch, workers):
    path = tmp_path / "recs.csv"
    path.write_text("\n".join([HEADER, *STREAM_ROWS]) + "\n")
    marker = tmp_path / "scanned"

    def scan(rec, *args, **kwargs):
        marker.touch()  # a file, so a forked worker's call shows too
        raise AssertionError("scan_primes called")

    monkeypatch.setattr(cli, "scan_primes", scan)
    out_path = tmp_path / "no-such-dir" / "scan.json"
    code, out, err = run(capsys, "scan", str(path), "--workers", workers, "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "no-such-dir" in err
    assert not marker.exists() and not out_path.parent.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_removes_partial_out_file(capsys, tmp_path, monkeypatch, workers):
    # an exception that escapes the scan after the first entry is written
    # takes the partial file with it
    path = tmp_path / "recs.csv"
    path.write_text("\n".join([HEADER, *STREAM_ROWS]) + "\n")
    real = cli.fan_out
    written = []

    def broken(fn, jobs, workers):
        results = real(fn, jobs, workers)
        try:
            yield next(results)
            written.append(out_path.exists())
            raise RuntimeError("pool lost")
        finally:
            results.close()

    monkeypatch.setattr(cli, "fan_out", broken)
    out_path = tmp_path / "scan.json"
    code, out, err = run(capsys, "scan", str(path), "--workers", workers, "--out", str(out_path))
    assert (code, out, err) == (2, "", "internal error: pool lost\n")
    assert written == [True]
    assert not out_path.exists()


def test_scan_out_memory_stays_below_the_output_size(capsys, tmp_path):
    # each entry is written and dropped as it finishes: the peak traced
    # allocation of a scan stays well below the JSON it writes (it was
    # about four times that while the batch's text was joined in memory)
    import tracemalloc

    rng = random.Random(20241019)
    rows = [f"r{i},{rng.randint(-10**6, 10**6)},{rng.randint(-10**8, 10**8)},"
            f"{i % 2},1,1,,,7:0" for i in range(60)]
    path = tmp_path / "recs.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    out_path = tmp_path / "scan.json"
    argv = ["scan", str(path), "--max-prime", "600", "--allow-23", "--out", str(out_path)]
    assert cli.main(argv) == 0  # warm the per-prime caches
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out_path.stat().st_size
    assert size > 2_000_000
    assert peak < size / 4, (peak, size)


def test_closed_form_commands_load_neither_numpy_nor_the_pool(tmp_path):
    # a fresh interpreter: this one has numpy loaded by the tests already
    script = textwrap.dedent("""
        import contextlib, io, sys
        import iwastat
        import iwastat.cli
        loaded = lambda: [m for m in ("numpy", "concurrent.futures") if m in sys.modules]
        print(*loaded())
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [iwastat.cli.main(argv) for argv in (
                ["dp", "--prime", "499"],
                ["bounds", "--prime", "499"],
                ["invariants", "--poly", "25,5", "--prime", "5"],
            )]
        print(*codes, *loaded())
    """)
    src = pathlib.Path(iwastat.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["", "0 0 0"]


def test_sweep_and_scan_commands_never_load_numpy(tmp_path):
    # a fresh interpreter: the sweep commands (serial, strict, ip-count and a
    # 2-worker fan-out) and a 2-worker scan up to the row bound and past it
    # never import numpy, in the main process or in the scan's workers
    (tmp_path / "recs.csv").write_text(HEADER + "\na,-1,0,0,1,4,,,\nb,-1,1,1,1,1,,,5:0\n")
    script = textwrap.dedent("""
        import contextlib, io, sys
        import iwastat.cli
        from iwastat.curves import _ROW_PRIME_BOUND
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["enumerate", "--height", "1000000", "--prime", "499"],
                ["enumerate", "--height", "1000000", "--prime", "7", "--strict"],
                ["ip-count", "--l", "7", "--p", "5", "--height", "100000000"],
                ["enumerate", "--height", "1000000", "--prime", "5", "--workers", "2"],
            ):
                codes.append(iwastat.cli.main(argv))
        print(*codes, "numpy" in sys.modules)

        def in_worker(fn, *job):
            return fn(*job), "numpy" in sys.modules

        fan_out, seen = iwastat.cli.fan_out, []
        def recording(fn, jobs, workers):
            seen.append("numpy" in sys.modules)
            out = list(fan_out(in_worker, [(fn, *job) for job in jobs], workers))
            seen.append(any(loaded for _, loaded in out))
            return [result for result, _ in out]
        iwastat.cli.fan_out = recording
        for max_prime in ("500", str(_ROW_PRIME_BOUND), str(_ROW_PRIME_BOUND + 1)):
            seen.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                code = iwastat.cli.main(["scan", "recs.csv", "--workers", "2",
                                         "--max-prime", max_prime])
            print(code, *seen, "numpy" in sys.modules)
    """)
    src = pathlib.Path(iwastat.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    # scan lines: whether numpy is loaded when the pool forks, in a worker,
    # after the scan
    assert out.stdout.splitlines() == [
        "0 0 0 0 False", "0 False False False", "0 False False False", "0 False False False",
    ]
