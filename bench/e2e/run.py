#!/usr/bin/env python3
"""End-to-end benchmark: builds mg_bench, runs workloads, reports metrics.

Full run (5 interleaved rounds over all workloads, writes a results file):

    python3 bench/e2e/run.py --seed 1 [--trace]

One workload measured for a fixed time, ending in a one-line JSON result:

    python3 bench/e2e/run.py --workload rpc_open --seed 1 --seconds 20 --trace 0

Both first configure and build a Release build of ../../src plus mg_bench in
build/e2e. Every mg_bench process is one operation of one (workload, shard
count) pair. A process fails on a non-zero exit, a failed conservation
identity or health check, or a digest that differs from the workload's other
processes (the digest hashes virtual-time results only, so it is the same at
every shard count and in traced runs).

A measurement of one workload alternates 1-shard and 4-shard processes,
giving each shard count about half of the measuring time. On a shared host
interference from other tenants only ever adds time: in bursts, which a
1-shard process often escapes, so wall_per_sim_s.sh1 is the minimum over the
measurement's processes; and in phases of minutes, which slow 1- and 4-shard
processes alike, so the 4-shard metrics are ratios to the 1-shard run taken
in the same measurement, from medians (README.md has the measurements behind
this). With --trace 0 the last stdout line carries every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "e2e"
OUT = BUILD / "out"
MG_BENCH = BUILD / "mg_bench"
SCHEMA = "moongen-bench-e2e-v1"
TRACE_SCHEMA = "moongen-bench-trace-v1"
WORKLOADS = ["l2_forward", "ddos_vswitch", "rpc_open", "hwpaced_4x40g", "script_fastpath"]
# The plane each workload can run without (mg_bench --without), to price it.
WITHOUT = {
    "l2_forward": ("stream", "telemetry.stream_overhead_pct"),
    "ddos_vswitch": ("health", "health.overhead_pct"),
}
# Processes of each kind a measurement runs at least, however short.
MIN_PROCS = 3
# Rounds of the full run.
ROUNDS = 5
PROCESS_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build --------------------------------------------------------------------


def build():
    """Configures (once) and builds mg_bench; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"run.py: {ROOT / 'src'} is missing; run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "mg_bench"],
                   check=True, stdout=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)


# --- operations ---------------------------------------------------------------

# kind -> (shards, traced, without plane)
KINDS = {"u1": (1, False, False), "u4": (4, False, False),
         "t1": (1, True, False), "t4": (4, True, False), "w1": (1, False, True)}


def run_one(workload, kind, seed):
    """Runs one mg_bench process; returns its JSON object plus kind, rc and
    the process's elapsed seconds."""
    shards, traced, without = KINDS[kind]
    cmd = [str(MG_BENCH), workload, "--shards", str(shards), "--seed", str(seed), "--out", str(OUT)]
    if traced:
        cmd.append("--trace")
    if without:
        cmd += ["--without", WITHOUT[workload][0]]
    t0 = time.monotonic()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        rc, stdout, stderr = p.returncode, p.stdout, p.stderr
    except subprocess.TimeoutExpired:
        rc, stdout, stderr = None, "", "timed out"
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        out = {}
    if not out:
        out = {"ok": False, "errors": [stderr.strip()[-400:]], "workload": workload,
               "shards": shards}
    out.update(kind=kind, rc=rc, elapsed_s=time.monotonic() - t0)
    return out


def measure(workload, seed, seconds, trace):
    """One measurement: mg_bench processes of `workload` for `seconds`.

    Untraced, the 1- and 4-shard processes share the time about equally.
    Traced, rounds of every kind run in rotating order."""
    procs = []
    deadline = time.monotonic() + seconds
    if trace:
        kinds = ["u1", "u4", "t1", "t4"] + (["w1"] if workload in WITHOUT else [])
        rounds = 0
        while rounds < MIN_PROCS or time.monotonic() < deadline:
            k = rounds % len(kinds)
            for kind in kinds[k:] + kinds[:k]:
                procs.append(run_one(workload, kind, seed))
            rounds += 1
        return procs
    spent = {"u1": 0.0, "u4": 0.0}
    count = {"u1": 0, "u4": 0}
    while min(count.values()) < MIN_PROCS or time.monotonic() < deadline:
        kind = min(spent, key=lambda k: (count[k] >= MIN_PROCS, spent[k]))
        p = run_one(workload, kind, seed)
        spent[kind] += p["elapsed_s"]
        count[kind] += 1
        procs.append(p)
    return procs


def check_ops(procs):
    """(attempted, failed, reference digest, failure messages)."""
    reference = next((p["digest"] for p in procs if p.get("ok") and p.get("rc") == 0), None)
    failed, messages = 0, []
    for p in procs:
        why = None
        if p.get("rc") != 0 or not p.get("ok"):
            why = "; ".join(p.get("errors") or []) or "exit code %s" % p.get("rc")
        elif p.get("digest") != reference:
            why = "digest %s != %s" % (p.get("digest"), reference)
        if why:
            failed += 1
            messages.append("%s %s: %s" % (p.get("workload"), p.get("kind"), why))
    return len(procs), failed, reference, messages


def good(procs, kind):
    return [p for p in procs if p.get("kind") == kind and p.get("ok") and p.get("rc") == 0]


# --- metrics ------------------------------------------------------------------


def e2e_metrics(procs, bench):
    """Every end-to-end metric of one measurement (see the module docstring
    for the choice of minima and medians)."""
    u1, u4 = good(procs, "u1"), good(procs, "u4")
    if not u1 or not u4:
        return {}
    median = statistics.median
    wall1 = [p["wall_s"] / p["sim_s"] for p in u1]
    wall4 = [p["wall_s"] / p["sim_s"] for p in u4]
    cpu4 = [p["cpu_s"] / p["sim_s"] for p in u4]
    known = {
        "setup_s": lambda: median(p["setup_s"] for p in u1 + u4),
        "wall_per_sim_s.sh1": lambda: min(wall1),
        "speedup.sh4": lambda: median(wall1) / median(wall4),
        "cpu_cost.sh4": lambda: median(cpu4) / median(wall1),
        "mpps": lambda: max(p["packets"] / p["wall_s"] for p in u1) / 1e6,
        "peak_rss_mb": lambda: max(median(p["peak_rss_mb"] for p in u1),
                                   median(p["peak_rss_mb"] for p in u4)),
    }
    return {m["name"]: known[m["name"]]() for m in bench["end_to_end"]}


def layer_metrics(procs, workload, bench):
    """Every per-layer metric of one traced measurement: counts (and the
    timings every run has) from untraced processes, probe and trace timings
    from traced ones, 0 for a layer the workload bypasses."""
    def wall_per_sim(kind):
        ps = good(procs, kind)
        return min(p["wall_s"] / p["sim_s"] for p in ps) if ps else None

    def pct_over(slow, fast):
        return (slow / fast - 1.0) * 100.0 if slow and fast else 0.0

    def median_layer(kind, key):
        vals = [p["layers"][key] for p in good(procs, kind) if key in p.get("layers", {})]
        return statistics.median(vals) if vals else None

    out = {}
    for m in bench["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_pct":
            out[name] = pct_over(wall_per_sim("t1"), wall_per_sim("u1"))
        elif workload in WITHOUT and name == WITHOUT[workload][1]:
            out[name] = pct_over(wall_per_sim("u1"), wall_per_sim("w1"))
        else:
            shards = 4 if name.endswith(".sh4") else 1
            base = name[:-len(".sh4")] if shards == 4 else name
            value = median_layer("u%d" % shards, base)
            if value is None:
                value = median_layer("t%d" % shards, base)
            out[name] = value if value is not None else 0.0
    return out


def effective_shards(procs):
    return {str(p["shards"]): p["effective_shards"] for p in procs if "effective_shards" in p}


# --- provenance and trace file ------------------------------------------------


def provenance(seed, rounds):
    cache = {}
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, _, value = line.partition("=")
                cache[key.split(":")[0]] = value
    except OSError:
        pass
    try:
        version = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"],
                                 capture_output=True, text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    try:
        # The ceiling keeps git from describing a repository that merely
        # contains this checkout.
        git = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                             capture_output=True, text=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        describe = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except OSError:
        describe = "unknown (git not found)"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    build_type = cache.get("CMAKE_BUILD_TYPE", "unknown")
    flags = [cache.get("CMAKE_CXX_FLAGS", ""), cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")]
    if cache.get("MG_E2E_LTO") == "ON":
        flags.append("-flto")
    return {
        "schema": SCHEMA,
        "git": describe,
        "build_type": build_type,
        "compiler": version,
        "flags": " ".join(f for f in flags if f),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "rounds": rounds,
    }


def spans_of(proc):
    """workload -> setup / run_until -> slice[k] spans of one traced process."""
    t = proc["trace"]
    spans = [
        {"id": 0, "name": "workload", "parent": None, "start_ns": t["start_ns"],
         "end_ns": t["run_end_ns"]},
        {"id": 1, "name": "setup", "parent": 0, "start_ns": t["start_ns"],
         "end_ns": t["setup_end_ns"]},
        {"id": 2, "name": "run_until", "parent": 0, "start_ns": t["run_start_ns"],
         "end_ns": t["run_end_ns"]},
    ]
    for k, s in enumerate(t.get("slices", [])):
        spans.append(dict(s, id=3 + k, name=f"slice[{k}]", parent=2))
    return spans


def trace_entry(procs, layers):
    """The last traced process of each shard count plus the per-layer metrics."""
    out = []
    for kind in ("t1", "t4"):
        ps = [p for p in good(procs, kind) if "trace" in p]
        if ps:
            p = ps[-1]
            out.append({"shards": p["shards"], "effective_shards": p["effective_shards"],
                        "tsc_ghz": p["trace"].get("tsc_ghz"), "spans": spans_of(p),
                        "worker_ns": p["trace"].get("worker_ns", []),
                        "histograms": p["trace"].get("histograms", {})})
    return {"processes": out, "metrics": layers}


def write_json(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj, indent=1) + "\n")
    tmp.replace(path)
    log(f"wrote {path}")


# --- modes --------------------------------------------------------------------


def units_of(bench):
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def report_failures(workload, procs):
    attempted, failed, digest, messages = check_ops(procs)
    for msg in messages:
        log("FAILED " + msg)
    return attempted, failed, digest


def single_workload(args, bench):
    """Measures one workload for --seconds and prints the one-line result."""
    if args.workload not in WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload}; choose from {WORKLOADS}")
    trace = bool(args.trace)
    procs = measure(args.workload, args.seed, args.seconds, trace)
    attempted, failed, _ = report_failures(args.workload, procs)
    units = units_of(bench)
    if trace:
        values = layer_metrics(procs, args.workload, bench)
        write_json(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                   {"schema": TRACE_SCHEMA, "provenance": provenance(args.seed, 1),
                    "workloads": {args.workload: trace_entry(procs, values)}})
        expected = bench["per_layer"]
    else:
        values = e2e_metrics(procs, bench)
        expected = bench["end_to_end"]
    for name, v in values.items():
        print(f"{args.workload:16s} {name:34s} {v:14.6g} {units[name]}")
    correct = failed == 0 and len(values) == len(expected)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0 if correct else 1


def summary(samples, unit):
    if len(samples) == 1:
        p25 = med = p75 = samples[0]
    else:
        p25, med, p75 = statistics.quantiles(samples, n=4)
    return {"unit": unit, "median": med, "p25": p25, "p75": p75, "n": len(samples),
            "samples": samples}


def full_run(args, bench):
    """ROUNDS rounds over all workloads (rotating order), each a measurement
    of --seconds; then, with --trace, one traced measurement per workload."""
    procs = {w: [] for w in WORKLOADS}
    samples = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in WORKLOADS}
    for i in range(ROUNDS):
        for w in WORKLOADS[i % len(WORKLOADS):] + WORKLOADS[:i % len(WORKLOADS)]:
            ps = measure(w, args.seed, args.seconds, False)
            procs[w] += ps
            for name, v in e2e_metrics(ps, bench).items():
                samples[w][name].append(v)
        log(f"round {i + 1}/{ROUNDS} done")
    units = units_of(bench)
    prov = provenance(args.seed, ROUNDS)
    results = {"schema": SCHEMA, "provenance": prov, "workloads": {}}
    trace_file = {"schema": TRACE_SCHEMA, "provenance": prov, "workloads": {}}
    total_failed = 0
    for w in WORKLOADS:
        traced = measure(w, args.seed, args.seconds, True) if args.trace else []
        attempted, failed, digest = report_failures(w, procs[w] + traced)
        total_failed += failed
        entry = {"digest": digest, "effective_shards": effective_shards(procs[w]),
                 "ops_total": attempted, "ops_failed": failed, "metrics": {}}
        for name, vals in samples[w].items():
            if vals:
                s = entry["metrics"][name] = summary(vals, units[name])
                spread = (s["p75"] - s["p25"]) / s["median"] * 100.0 if s["median"] else 0.0
                print(f"{w:16s} {name:34s} {s['median']:14.6g} {s['unit']:8s} "
                      f"p25 {s['p25']:.6g} p75 {s['p75']:.6g} IQR {spread:4.1f}% n={s['n']}")
        if traced:
            layers = layer_metrics(traced, w, bench)
            entry["layers"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
            trace_file["workloads"][w] = trace_entry(traced, layers)
            for name, v in layers.items():
                print(f"{w:16s} {name:34s} {v:14.6g} {units[name]}")
        print(f"{w:16s} ops_failed {failed}/{attempted} digest {digest}")
        results["workloads"][w] = entry
    write_json(Path(args.results) if args.results else BUILD / f"results-seed{args.seed}.json",
               results)
    if args.trace:
        write_json(OUT / f"trace-seed{args.seed}.json", trace_file)
    return 0 if total_failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="measure one workload (default: the full run)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time of one measurement (default 20; 10 per workload and "
                    "round of the full run)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="report per-layer metrics from traced runs")
    ap.add_argument("--results", help="results file of the full run "
                    "(default build/e2e/results-seed<N>.json)")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = 20.0 if args.workload else 10.0
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    build()
    return single_workload(args, bench) if args.workload else full_run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
