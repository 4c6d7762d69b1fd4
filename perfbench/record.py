"""Record the expected outputs in expected.json from the checkout's code.

    python3 perfbench/record.py [--jobs 2]

Covers every input variant of every workload, the held-out one included.
Re-record only in a change that alters the benchmark's inputs, never in a
change that claims a gain: the recorded outputs are the correctness contract
that later runs are checked against.
"""

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import workloads as wl
from run import SHIM


def cli(argv):
    env = dict(os.environ, PYTHONPATH=str(wl.ROOT / "src"))
    env.pop("IWASTAT_THREADS", None)
    got = subprocess.run([sys.executable, "-c", SHIM, *argv], cwd=wl.ROOT, env=env,
                         capture_output=True, text=True)
    if got.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {got.returncode}: {got.stderr}")
    return got.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args()
    sys.path.insert(0, str(wl.ROOT / "src"))

    variants = [str(i) for i in range(wl.VARIANTS)] + [wl.variant_of(wl.HELD_OUT_SEED)]
    primes = [p for pair in wl.CENSUS_PAIRS for p in pair]
    jobs = {}   # (section, key, field) -> (argv, finish)
    for p in primes:
        jobs["census_bounds", str(p), None] = (["bounds", "--prime", str(p)], str)
        jobs["census_enumerate", str(p), None] = (
            ["enumerate", "--height", str(wl.CENSUS_HEIGHT), "--prime", str(p)],
            wl.project_enumerate)
    for v in variants:
        X5, X7 = wl.sweep_heights(v)
        jobs["sweep", v, "enumerate"] = (
            ["enumerate", "--height", str(X5), "--prime", "5"], wl.project_enumerate)
        jobs["sweep", v, "enumerate_strict"] = (
            ["enumerate", "--height", str(X7), "--prime", "7", "--strict"], wl.project_enumerate)
    inputs = {}
    for kind, (_, max_prime) in wl.SCAN_SIZES.items():
        for v in variants:
            path, inputs[kind, v] = wl.write_scan_csv(kind, v)
            argv = ["scan", str(path), "--max-prime", str(max_prime)]
            if kind == "scan-wide":
                argv.append("--allow-23")
            jobs[kind, v, None] = (argv, lambda out: wl.scan_summary(wl.project_scan(out)))

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        outs = dict(zip(jobs, pool.map(cli, [argv for argv, _ in jobs.values()])))

    expected = {"census_bounds": {}, "census_enumerate": {}, "sweep": {},
                "scan-wide": {}, "scan-many": {}}
    for (section, key, field), (_, finish) in jobs.items():
        value = finish(outs[section, key, field])
        if field is not None:
            expected[section].setdefault(key, {})[field] = value
            continue
        if section in wl.SCAN_SIZES:
            value["inputs_sha256"] = inputs[section, key]
            absent = [n for n, c in {**value["conclusions"], **value["reasons"]}.items()
                      if c == 0 and n != "other"]
            if absent:
                raise SystemExit(f"{section} variant {key}: never reached {absent}")
        expected[section][key] = value
    with open(wl.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.EXPECTED.relative_to(wl.ROOT)}: {len(jobs)} outputs")


if __name__ == "__main__":
    main()
