"""iwastat benchmark: the CLI commands users run, end to end and per layer.

    python3 perfbench/run.py --workload census --seed 3 --seconds 25 --trace 0

Run it from a source checkout; it uses the checkout's src/ and builds
nothing. One client runs one command at a time (a closed loop), each in a
fresh interpreter through the console-script entry point iwastat.cli:main.
--trace 0 reports setup_s, pass_s and peak_rss_mb (see measure), with
times scaled to a reference speed measured beside them (speed.py);
--trace 1 reports the per-layer metrics of tracing.py. Every command's
output is checked (workloads.py); a non-zero exit or a wrong output counts
as failed. The last line of stdout is the JSON result. Workloads, metrics
and seeds are described in README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import workloads as wl

# the console-script entry point, plus a report of the process's own peak
# resident set (VmHWM belongs to the process image, so unlike ru_maxrss it
# does not carry over the benchmark's own memory across fork and exec)
SHIM = """import sys
from iwastat.cli import main
try:
    rc = main()
finally:
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = [ln.split()[1] for ln in fh if ln.startswith("VmHWM:")]
    print("perfbench-vmhwm-kb", *hwm, file=sys.stderr)
sys.exit(rc)
"""
RSS_MARK = "perfbench-vmhwm-kb"
SETUP_PROBES = 7
DEADLINE_S = 165          # every child is killed by then; the run must end within 180 s
BENCHMARK_JSON = wl.ROOT / "BENCHMARK.json"
E2E = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))

# Timed samples are scaled to a reference speed. On a shared host the speed
# of a CPU drifts by a third or more over tens of seconds and flips between
# fast and slow for seconds at a time, so raw times of the same work spread
# as widely from run to run. The probe in speed.py runs beside the timed
# commands, pinned to each CPU they may use, and times a fixed chunk of work
# every 50 ms. A sample's wall time w is reported as
#   w * REF_CHUNK_S / (mean chunk time on its CPUs while it ran):
# seconds of a machine on which the chunk takes REF_CHUNK_S, about what it
# takes on the 2-vCPU Xeon VM the benchmark was defined on when that machine
# is quiet. A probe takes about 4% of its CPU, in every run alike. Raw times
# are printed above the result line.
REF_CHUNK_S = 0.002
MIN_CHUNKS = 5            # a sample shorter than that many periods uses the nearest chunks


class Runner:
    """Runs program processes one at a time and counts attempts and failures."""

    def __init__(self):
        self.t0 = perf_counter()
        self.env = dict(os.environ)
        src = str(wl.ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.attempted = self.failed = 0
        self.errors = []
        self.expired = False

    def count(self, problem) -> bool:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.errors.append(problem)
        return not problem

    def spawn(self, code, argv, cpus=None):
        """(wall s, rc, stdout, stderr) of one child process, run on `cpus`
        if given."""
        pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
        t = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], cwd=wl.ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True, preexec_fn=pin)
        try:
            out, err = proc.communicate(timeout=max(1.0, DEADLINE_S - (t - self.t0)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            self.expired = True
            err = f"killed at the {DEADLINE_S} s deadline\n{err}"
        return perf_counter() - t, proc.returncode, out, err

    def _rss_mb(self, err):
        """The command's peak resident set from the SHIM's report, or None."""
        marks = [ln.split()[1:] for ln in err.splitlines() if ln.startswith(RSS_MARK)]
        return int(marks[-1][0]) / 1024 if marks and marks[-1] else None

    def probe(self, cpus=None) -> float:
        wall, rc, _, err = self.spawn("import iwastat.cli", [], cpus)
        self.count(f"import failed ({rc}): {err.strip()[-300:]}" if rc else None)
        return wall

    def run(self, cmd, cpus=None):
        """Run one command and check its output; returns (wall s, peak RSS
        MB or None, ok)."""
        wall, rc, out, err = self.spawn(SHIM, cmd.argv, cpus)
        problem = f"{' '.join(cmd.argv)}: exit {rc}: {err.strip()[-300:]}" if rc else cmd.check(out)
        return wall, self._rss_mb(err), self.count(problem)


class Speed:
    """One speed probe (speed.py) pinned to each of `cpus`, from start to stop."""

    def __init__(self, cpus):
        self.procs = {}
        self.chunks = {}
        try:
            for cpu in cpus:
                self.procs[cpu] = subprocess.Popen(
                    [sys.executable, str(wl.BENCH_DIR / "speed.py")],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True, preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}))
            for cpu, proc in self.procs.items():
                if proc.stdout.readline() != "ready\n":   # its own start-up is over
                    raise RuntimeError(f"speed probe on CPU {cpu} did not start")
        except BaseException:
            self.stop()
            raise

    def stop(self):
        """Stop the probes and keep their chunks: (start, CPU s) pairs per CPU."""
        failed = []
        for cpu, proc in self.procs.items():
            try:
                out, err = proc.communicate(timeout=10)   # closes its stdin
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
            if proc.returncode or not out:
                failed.append(f"CPU {cpu}: exit {proc.returncode}: {err.strip()[-300:]}")
            else:
                self.chunks[cpu] = json.loads(out)
        if failed:
            raise RuntimeError(f"speed probe failed: {failed}")

    def scale(self, t0: float, wall: float, cpus) -> float:
        """A sample's wall time scaled to REF_CHUNK_S, from the chunks that
        started on `cpus` while it ran, or on each the MIN_CHUNKS nearest to it."""
        mid = t0 + wall / 2
        during = []
        for cpu in cpus:
            got = [c for t, c in self.chunks[cpu] if t0 <= t <= t0 + wall]
            if len(got) < MIN_CHUNKS:
                near = sorted(self.chunks[cpu], key=lambda tc: abs(tc[0] - mid))
                got = [c for _, c in near[:MIN_CHUNKS]]
            during += got
        return wall * REF_CHUNK_S / statistics.mean(during)


def measure(workload, seconds, runner):
    """Cycle through the workload's commands; after the first pass, run the
    next command (in order) that is expected to end within `seconds`, judged
    by its last duration, and stop when none would. Probes and serial
    commands run pinned to one CPU, the --workers 2 reruns to that CPU and
    one more, each CPU with a speed probe beside it. Every time is scaled to
    the reference speed (see REF_CHUNK_S). Reports
      setup_s      interpreter start plus `import iwastat.cli`, median of 7
      pass_s       the sum over the workload's commands of each command's
                   median time: one pass, as a user would run it
      peak_rss_mb  the largest peak resident set (VmHWM) of any command's
                   main process; pool workers are not included
    and, for the lines printed above the result, each command kind's raw and
    scaled samples and the probe's chunk times."""
    cpus = sorted(os.sched_getaffinity(0))
    pinned, pair = {cpus[-1]}, set(cpus[-2:])   # workloads.workers2() uses at most 2
    runner.probe(pinned)   # untimed warm-up: bytecode compilation and page cache
    speed = Speed(pair)
    try:
        start = perf_counter()
        setup = []
        for _ in range(SETUP_PROBES):
            t0 = perf_counter()
            setup.append((t0, runner.probe(pinned), pinned))
        cmds = workload.commands
        raws = [[] for _ in cmds]
        rss = []
        k = 0
        while not runner.expired:
            if all(raws):
                left = seconds - (perf_counter() - start)
                fits = [j % len(cmds) for j in range(k, k + len(cmds))
                        if raws[j % len(cmds)][-1][1] <= left]
                if not fits:
                    break
                k = fits[0]
            on = pinned if cmds[k].serial else pair
            t0 = perf_counter()
            wall, peak, _ = runner.run(cmds[k], on)
            raws[k].append((t0, wall, on))
            if peak is not None:
                rss.append(peak)
            k = (k + 1) % len(cmds)
    finally:
        speed.stop()

    def scaled(got):
        return [speed.scale(*sample) for sample in got]

    walls = [scaled(r) for r in raws]
    samples = {"setup_s": ([w for _, w, _ in setup], scaled(setup))}
    for cmd, r, w in zip(cmds, raws, walls):
        got = samples.setdefault(f"{cmd.kind}_s", ([], []))
        got[0].extend(wall for _, wall, _ in r)
        got[1].extend(w)
    metrics = {
        "setup_s": statistics.median(samples["setup_s"][1]),
        "pass_s": sum(statistics.median(w) for w in walls if w),
        "peak_rss_mb": max(rss, default=0.0),
    }
    counts = {"setup_s": len(setup), "pass_s": sum(map(len, walls)), "peak_rss_mb": len(rss)}
    return metrics, counts, samples, [c for got in speed.chunks.values() for _, c in got]


def provenance(workload):
    commit = "none (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((wl.ROOT / "src" / "iwastat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workload": workload.name,
        "seed": workload.seed,
        "variant": workload.variant,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None without the file."""
    if not BENCHMARK_JSON.is_file():
        return None
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    needed = [wl.ROOT / "src" / "iwastat" / "cli.py", wl.CENSUS_REPORT, wl.EXPECTED]
    missing = [str(p.relative_to(wl.ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not an iwastat checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.ROOT / "src"))
    import iwastat

    if not iwastat.__file__.startswith(str(wl.ROOT / "src")):
        print(f"perfbench: imported iwastat from {iwastat.__file__}", file=sys.stderr)
        return 2
    os.environ.pop("IWASTAT_THREADS", None)   # the CLI default: one worker

    workload = wl.build(args.workload, args.seed, wl.load_expected())
    prov = provenance(workload)
    runner = Runner()
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items()))
    if args.trace:
        import tracing

        metrics, payload = tracing.traced_run(workload, args.seconds, runner)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        wl.WORK_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = wl.WORK_DIR / f"spans-{workload.name}-{workload.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"provenance": prov, **payload}, fh)
        print(f"# spans: {spans_path.relative_to(wl.ROOT)} ({len(payload['spans'])} spans)")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
    else:
        metrics, counts, samples, chunks = measure(workload, args.seconds, runner)
        units = dict(E2E)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]} (n={counts[name]})")
        print(f"speed chunk = {statistics.median(chunks) * 1e3:.4g} ms (median, n={len(chunks)}), "
              f"scaled to {REF_CHUNK_S * 1e3:g} ms")
        for name, (raw, got) in samples.items():
            print(f"{name} = {statistics.median(got):.6g} s scaled, {statistics.median(raw):.6g} s raw "
                  f"(medians, n={len(got)}; scaled: {' '.join(f'{x:.4g}' for x in got)}; "
                  f"raw: {' '.join(f'{x:.4g}' for x in raw)})")
    print(f"fail_ratio = {runner.failed / max(runner.attempted, 1):.6g} "
          f"({runner.failed} of {runner.attempted} attempted)")
    for e in runner.errors[:20]:
        print(f"# FAILED: {e}")

    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared) ^ set(metrics))}", file=sys.stderr)
        return 3
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
