"""The traced run: each serial command through cli.main, with spans.

Every traced command runs in its own fresh interpreter, as the untraced
commands do, and calls iwastat.cli.main(argv) in-process there. Spans are
recorded from this file only: each traced function is rebound at the module
attribute the program looks it up by (for example
iwastat.local_data.factorize), so the program itself is unchanged. A span is
(name, start, end, parent span index, command id, key); spans stay in memory
until the child ends and are written out once the run ends. Self time is a
span's duration minus the durations of its child spans.
"""

import dataclasses
import functools
import importlib
import io
import json
import statistics
import sys
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from time import perf_counter

import workloads as wl


def _first_arg(*args, **kwargs):
    return args[0]


# (module, attribute the program looks up, span name, key for distinct_ratio)
PATCHES = (
    ("iwastat.cli", "parse_records", "io.parse_records", None),
    ("iwastat.cli", "scan_result_dict", "io.scan_result_dict", None),
    ("iwastat.cli", "scan_primes", "prime_scan.scan_primes", None),
    ("iwastat.cli", "empirical_densities", "enumeration.empirical_densities", None),
    ("iwastat.curves", "dp_census", "curves.dp_census", _first_arg),
    ("iwastat.enumeration", "anomalous_residue_table", "curves.anomalous_residue_table", None),
    ("iwastat.prime_scan", "classify_reduction", "curves.classify_reduction", None),
    ("iwastat.curves", "count_points", "curves.count_points", None),
    ("iwastat.prime_scan", "tamagawa_p_part", "local_data.tamagawa_p_part", None),
    ("iwastat.prime_scan", "bad_primes", "local_data.bad_primes", None),
    ("iwastat.local_data", "bad_primes", "local_data.bad_primes", None),
    ("iwastat.local_data", "kodaira_tamagawa", "local_data.kodaira_tamagawa", None),
    ("iwastat.local_data", "local_reduction_raw", "local_data.local_reduction_raw", None),
    ("iwastat.local_data", "factorize", "primes.factorize", _first_arg),
    ("iwastat.prime_scan", "is_trivial_shape", "charpoly.is_trivial_shape", None),
)


def _count_parsed(counts, out):
    records, errors = out
    counts["rows"] += len(records)
    counts["errors"] += len(errors)


ON_RESULT = {"io.parse_records": _count_parsed}

# every per-layer metric, in report order: (name, unit, better)
_TIMED = ("primes.factorize", "local_data.bad_primes", "local_data.tamagawa_p_part",
          "local_data.kodaira_tamagawa", "local_data.local_reduction_raw",
          "curves.classify_reduction", "curves.count_points", "curves.dp_census",
          "curves.anomalous_residue_table", "prime_scan.scan_primes",
          "charpoly.is_trivial_shape", "io.scan_result_dict", "enumeration.count_Ip")
PER_LAYER = (
    [(f"{n}.{k}", u, "lower") for n in _TIMED for k, u in (("calls", "count"), ("s", "s"))]
    + [
        ("primes.factorize.distinct_ratio", "ratio", "higher"),
        ("curves.dp_census.distinct_ratio", "ratio", "higher"),
        ("local_data.tamagawa_p_part.failed", "count", "lower"),
        ("enumeration.empirical_densities.s", "s", "lower"),
        ("enumeration.stage.base_s", "s", "lower"),
        ("enumeration.stage.ip_s", "s", "lower"),
        ("enumeration.stage.strict_s", "s", "lower"),
        ("enumeration.pairs_swept", "count", "lower"),
        ("enumeration.family_total", "count", "lower"),
    ]
    + [(f"enumeration.hits.{h}", "count", "lower")
       for h in ("good_at_p", "e2", "e3", "ip", "skipped")]
    + [("prime_scan.decision.self_s", "s", "lower")]
    + [(f"prime_scan.conclusion.{c}", "count", "lower") for c in wl.CONCLUSIONS]
    + [(f"prime_scan.reason.{r}", "count", "lower")
       for r in list(wl.REASONS.values()) + ["other"]]
    + [
        ("io.parse_records.s", "s", "lower"),
        ("io.parse_records.rows", "count", "lower"),
        ("io.parse_records.errors", "count", "lower"),
        ("cli.json_dumps.s", "s", "lower"),
        ("io.output_bytes", "bytes", "lower"),
        ("cli.main.s", "s", "lower"),
        ("tracing.overhead_ratio", "ratio", "lower"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans = []   # (name, start, end, parent index or -1, command id, key)
        self.stack = []
        self.cmd = None
        self.failed = Counter()   # span name -> calls that raised
        self.counts = Counter()   # counts taken from return values

    def wrap(self, name, fn, key=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer.counts, out)
                return out
            except BaseException:
                tracer.failed[name] += 1
                raise
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.cmd,
                              key(*args, **kwargs) if key else None)
        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def durations(self, name, cmd):
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[4] == cmd]

    def absorb(self, child):
        """Append a child process's spans and counts (see child_main)."""
        base = len(self.spans)
        for name, t0, t1, parent, cmd, key in child["spans"]:
            self.spans.append((name, t0, t1, parent + base if parent >= 0 else -1, cmd, key))
        self.failed.update(child["failed"])
        self.counts.update(child["counts"])


class _JsonShim:
    """Stands in for the json module inside iwastat.cli so that dumps is timed."""

    def __init__(self, tracer):
        self.dumps = tracer.wrap("cli.json_dumps", json.dumps)

    def __getattr__(self, attr):
        return getattr(json, attr)


@contextmanager
def installed(tracer):
    saved = []
    try:
        for mod_name, attr, name, key in PATCHES:
            mod = importlib.import_module(mod_name)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), key, ON_RESULT.get(name)))
        cli = importlib.import_module("iwastat.cli")
        saved.append((cli, "json", cli.json))
        cli.json = _JsonShim(tracer)
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def child_main(job_text):
    """Entry point of a traced child: one job, the result as JSON on stdout.
    A job is {"id", "argv"} for cli.main(argv), or {"id", "call", "args",
    "kwargs"} for one call into iwastat.enumeration (the stage split)."""
    job = json.loads(job_text)
    tracer = Tracer()
    tracer.cmd = job["id"]
    real_stdout = sys.stdout
    result = {}
    with installed(tracer):
        if "argv" in job:
            from iwastat import cli

            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    result["rc"] = tracer.call("cli.main", cli.main, job["argv"])
                except Exception as e:  # the program crashed: a failed command
                    result["rc"] = f"{type(e).__name__}: {e}"
            result.update(stdout=out.getvalue(), stderr=err.getvalue()[-2000:])
        else:
            from iwastat import enumeration

            fn = getattr(enumeration, job["call"])
            value = tracer.call(f"enumeration.{job['call']}", fn, *job["args"], **job["kwargs"])
            result["value"] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    result.update(spans=tracer.spans, failed=tracer.failed, counts=tracer.counts)
    json.dump(result, real_stdout)


_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import tracing; tracing.child_main(sys.argv[2])"


def run_child(runner, tracer, job):
    """Run one job in a fresh interpreter and absorb its spans; returns the
    child's result, or None when the child itself failed (counted)."""
    _, rc, out, err = runner.spawn(_CHILD, [str(wl.BENCH_DIR), json.dumps(job)])
    if rc:
        runner.count(f"traced {job}: exit {rc}: {err.strip()[-300:]}")
        return None
    result = json.loads(out)
    tracer.absorb(result)
    return result


def stage_split(runner, tracer, workload, outputs):
    """Sweep stages from public calls, each in its own fresh interpreter:
    base = empirical_densities with no I_p primes, ip = full - base,
    strict = strict - non-strict; plus one count_Ip call. Each call's counts
    are checked against the CLI reports."""
    by_kind = {c.kind: (i, c) for i, c in enumerate(workload.commands) if c.serial}
    i5, c5 = by_kind["enumerate"]
    i7, c7 = by_kind["enumerate_strict"]
    full5 = json.loads(outputs[i5])
    strict7 = json.loads(outputs[i7])
    l0 = min(int(l) for l in full5["ip_counts"])
    jobs = (
        ("stage.base", "empirical_densities", [5, c5.info["X"]], {"ip_primes": []},
         full5, ("total", "good_at_p", "e2", "e3")),
        ("stage.nonstrict", "empirical_densities", [7, c7.info["X"]], {},
         strict7, ("total", "good_at_p", "e3")),
        ("stage.count_Ip", "count_Ip", [l0, 5, c5.info["X"]], {}, None, ()),
    )
    for cmd, call, args, kwargs, want, keys in jobs:
        got = run_child(runner, tracer, {"id": cmd, "call": call, "args": args, "kwargs": kwargs})
        if got is None:
            return {}
        value = got["value"]
        if want is None:
            want_n = full5["ip_counts"][str(l0)]
            runner.count(None if value == want_n else f"count_Ip({l0}, 5) = {value}, CLI {want_n}")
        else:
            bad = [k for k in keys if value[k] != want[k]]
            runner.count(f"{cmd}: {bad[0]} = {value[bad[0]]}, CLI {want[bad[0]]}" if bad else None)

    def seconds(cmd):
        return tracer.durations("enumeration.empirical_densities", cmd)[0]

    return {
        "enumeration.stage.base_s": seconds("stage.base"),
        "enumeration.stage.ip_s": seconds(i5) - seconds("stage.base"),
        "enumeration.stage.strict_s": seconds(i7) - seconds("stage.nonstrict"),
    }


def layer_metrics(tracer, workload, outputs, stages, main_s, overhead_ratio):
    """Every PER_LAYER metric, from the spans of the workload's CLI commands
    (stage-split calls are kept apart) and from the commands' outputs."""
    cli_cmds = set(range(len(workload.commands)))
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, t0, t1, parent, cmd, key in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, total, self_s, keys = Counter(), Counter(), Counter(), {}
    for idx, (name, t0, t1, parent, cmd, key) in enumerate(spans):
        if cmd in cli_cmds or (name == "enumeration.count_Ip" and cmd == "stage.count_Ip"):
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - child[idx]
            if key is not None:
                keys.setdefault(name, set()).add(key)

    m = {}
    for name in _TIMED:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
    for name in ("primes.factorize", "curves.dp_census"):
        m[f"{name}.distinct_ratio"] = len(keys.get(name, ())) / calls[name] if calls[name] else 0.0
    m["local_data.tamagawa_p_part.failed"] = tracer.failed["local_data.tamagawa_p_part"]
    m["enumeration.empirical_densities.s"] = total["enumeration.empirical_densities"]
    for k in ("base_s", "ip_s", "strict_s"):
        m[f"enumeration.stage.{k}"] = stages.get(f"enumeration.stage.{k}", 0.0)

    hits = Counter()
    scans = []
    for cmd, out in zip(workload.commands, outputs):
        if out is None:
            continue
        if cmd.kind in ("enumerate", "enumerate_strict"):
            rep = json.loads(out)
            hits["pairs_swept"] += rep["total_weq"]
            hits["family_total"] += rep["total"]
            for h in ("good_at_p", "e2", "e3"):
                hits[h] += rep[h]
            hits["ip"] += sum(rep["ip_counts"].values())
            hits["skipped"] += rep.get("skipped_uncertified") or 0
        elif cmd.kind == "scan":
            scans.extend(wl.project_scan(out))
    m["enumeration.pairs_swept"] = hits["pairs_swept"]
    m["enumeration.family_total"] = hits["family_total"]
    for h in ("good_at_p", "e2", "e3", "ip", "skipped"):
        m[f"enumeration.hits.{h}"] = hits[h]

    m["prime_scan.decision.self_s"] = self_s["prime_scan.scan_primes"]
    summary = wl.scan_summary(scans)
    for c, n in summary["conclusions"].items():
        m[f"prime_scan.conclusion.{c}"] = n
    for r, n in summary["reasons"].items():
        m[f"prime_scan.reason.{r}"] = n

    m["io.parse_records.s"] = total["io.parse_records"]
    m["io.parse_records.rows"] = tracer.counts["rows"]
    m["io.parse_records.errors"] = tracer.counts["errors"]
    m["cli.json_dumps.s"] = total["cli.json_dumps"]
    m["io.output_bytes"] = sum(len(o.encode()) for o in outputs if o is not None)
    m["cli.main.s"] = main_s
    m["tracing.overhead_ratio"] = overhead_ratio
    return m


def traced_run(workload, seconds, runner):
    """One traced pass over the workload's serial commands, then untraced runs
    of the same commands, in order and while time remains (at least one), as
    the reference for tracing.overhead_ratio. Returns (per-layer metrics,
    spans file payload)."""
    tracer = Tracer()
    start = perf_counter()
    serial = [(i, c) for i, c in enumerate(workload.commands) if c.serial]
    outputs = [None] * len(workload.commands)
    main_s = {}
    for i, cmd in serial:
        got = run_child(runner, tracer, {"id": i, "argv": cmd.argv})
        if got is None:
            continue
        main_s[i] = tracer.durations("cli.main", i)[0]
        rc = got["rc"]
        if runner.count(f"exit {rc}: {got['stderr'].strip()[-300:]}" if rc != 0 else cmd.check(got["stdout"])):
            outputs[i] = got["stdout"]
    stages = {}
    if workload.name == "sweep" and all(outputs[i] is not None for i, _ in serial):
        stages = stage_split(runner, tracer, workload, outputs)

    setup = statistics.median(runner.probe() for _ in range(3))
    traced = untraced = 0.0
    for n, (i, cmd) in enumerate(serial):
        if n and perf_counter() - start > seconds:
            break
        wall, _, _ = runner.run(cmd)
        if i in main_s:
            traced += main_s[i]
            untraced += wall - setup
    overhead = traced / untraced if untraced > 0 else 0.0
    metrics = layer_metrics(tracer, workload, outputs, stages, sum(main_s.values()), overhead)
    t_base = min((s[1] for s in tracer.spans), default=0.0)
    payload = {
        "commands": {i: c.argv for i, c in serial},
        "span_fields": ["name", "start_s", "end_s", "parent", "command"],
        "spans": [[name, round(t0 - t_base, 7), round(t1 - t_base, 7), parent, cmd]
                  for name, t0, t1, parent, cmd, _ in tracer.spans],
    }
    return metrics, payload
