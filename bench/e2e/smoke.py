#!/usr/bin/env python3
"""bench_e2e_smoke: bitrot guard for mg_bench and compare.py.

    python3 bench/e2e/smoke.py --mg-bench build/e2e/mg_bench

Runs short passes of rpc_open at 1 and 2 shards and of script_fastpath,
checks their correctness gates and that the rpc digests agree across shard
counts, then checks that compare.py accepts an identical results file and
rejects one that is 20% worse, one with a failed operation and one from a
host with another core count. It never checks a timing.
"""
import argparse
import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent.parent / "BENCHMARK.json"
sys.dont_write_bytecode = True  # keep the source tree clean under ctest
sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def run_mg_bench(binary, workload, shards, scale):
    cmd = [binary, workload, "--shards", str(shards), "--scale", str(scale)]
    with tempfile.TemporaryDirectory(dir=".") as out:
        p = subprocess.run(cmd + ["--out", out], capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited {p.returncode}: {p.stderr}{p.stdout}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["ok"] or result["errors"]:
        raise SystemExit(f"FAIL: {' '.join(cmd)}: {result['errors']}")
    print(f"ok   {workload} shards={shards}: digest {result['digest']}")
    return result


def synthetic_results(bench, nproc=4, scale=1.0, failed=0):
    """A results file whose every metric sits at 1.0 (times `scale` in the
    metric's worse direction) with a 1% spread."""
    metrics = {}
    for m in bench["end_to_end"]:
        worse = scale if m["better"] == "lower" else 2.0 - scale
        samples = [worse * x for x in (0.99, 1.0, 1.0, 1.0, 1.01)]
        metrics[m["name"]] = {"unit": m["unit"], "median": worse, "p25": 0.995 * worse,
                              "p75": 1.005 * worse, "n": 5, "samples": samples}
    entry = {"digest": "0", "effective_shards": {"1": 1, "4": 4}, "ops_total": 10,
             "ops_failed": failed, "metrics": metrics}
    return {"schema": compare.SCHEMA,
            "provenance": {"schema": compare.SCHEMA, "nproc": nproc, "build_type": "Release"},
            "workloads": {w["name"]: copy.deepcopy(entry) for w in bench["workloads"]}}


def check_compare(bench):
    parent = synthetic_results(bench)
    cases = [
        ("identical results", synthetic_results(bench), 0),
        ("20% worse on every metric", synthetic_results(bench, scale=1.2), 1),
        ("one failed operation", synthetic_results(bench, failed=1), 1),
        ("another core count", synthetic_results(bench, nproc=8), 2),
    ]
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        parent_path = Path(tmp) / "parent.json"
        parent_path.write_text(json.dumps(parent))
        for label, change, want in cases:
            change_path = Path(tmp) / "change.json"
            change_path.write_text(json.dumps(change))
            p = subprocess.run([sys.executable, str(HERE / "compare.py"), str(parent_path),
                                str(change_path), "--benchmark", str(BENCHMARK)],
                               capture_output=True, text=True)
            if p.returncode != want:
                raise SystemExit(f"FAIL: compare.py on {label}: exit {p.returncode}, want {want}\n"
                                 f"{p.stdout}{p.stderr}")
            print(f"ok   compare.py on {label}: exit {want}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--mg-bench", required=True, help="path of the mg_bench binary")
    args = ap.parse_args()
    rpc = [run_mg_bench(args.mg_bench, "rpc_open", s, 0.1) for s in (1, 2)]
    if rpc[0]["digest"] != rpc[1]["digest"]:
        raise SystemExit(f"FAIL: rpc_open digests differ across shard counts: "
                         f"{rpc[0]['digest']} vs {rpc[1]['digest']}")
    print("ok   rpc_open digest equal at 1 and 2 shards")
    run_mg_bench(args.mg_bench, "script_fastpath", 1, 1.0 / 64)
    with open(BENCHMARK) as f:
        check_compare(json.load(f))
    print("bench_e2e_smoke passed")


if __name__ == "__main__":
    main()
