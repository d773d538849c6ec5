#!/usr/bin/env python3
"""Diffs two results files of run.py using the bounds in BENCHMARK.json.

    python3 bench/e2e/compare.py PARENT.json CHANGE.json

Prints one row per workload and end-to-end metric: the parent's and the
change's median and IQR (as a share of the median), the metric's bound and a
verdict:

  better      every change sample beats every parent sample, or the change's
              median is better than the parent's by more than the bound
  worse       the change's median is worse than the parent's by more than the
              bound
  unchanged   the medians differ by no more than the bound
  unresolved  the parent's own IQR exceeds the bound, so a difference within
              it cannot be told from noise (unless every change sample beats
              every parent sample)

A higher share of failed operations is flagged too. Exit status: 0 without
a regression, 1 with one, 2 when the files cannot be compared (a different
schema, core count or build type).
"""
import argparse
import json
import sys
from pathlib import Path

SCHEMA = "moongen-bench-e2e-v1"
ROOT = Path(__file__).resolve().parent.parent.parent
# Provenance fields that must match for two results to be comparable.
SAME_PROVENANCE = ("schema", "nproc", "build_type")


def verdict(parent, change, better, bound):
    """Verdict and the relative change of the median."""
    rel = (change["median"] - parent["median"]) / parent["median"]
    worse_by = rel if better == "lower" else -rel
    if better == "lower":
        all_beat = max(change["samples"]) < min(parent["samples"])
    else:
        all_beat = min(change["samples"]) > max(parent["samples"])
    if all_beat:
        return "better", rel
    if iqr(parent) > bound:
        return "unresolved", rel
    if worse_by > bound:
        return "worse", rel
    if worse_by < -bound:
        return "better", rel
    return "unchanged", rel


def iqr(s):
    return (s["p75"] - s["p25"]) / s["median"] if s["median"] else 0.0


def compare(parent, change, bench):
    """Returns (rows, regressions, errors); errors mean incomparable inputs."""
    errors = []
    for key in SAME_PROVENANCE:
        a = parent.get("provenance", {}).get(key)
        b = change.get("provenance", {}).get(key)
        if a != b:
            errors.append(f"provenance differs in {key}: {a!r} vs {b!r}")
    if parent.get("schema") != SCHEMA or change.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA}")
    if errors:
        return [], 0, errors

    rows, regressions = [], 0
    for w, p_entry in parent["workloads"].items():
        c_entry = change["workloads"].get(w)
        if c_entry is None:
            rows.append((w, "(missing from change)", "", "", "", "worse"))
            regressions += 1
            continue
        for m in bench["end_to_end"]:
            p, c = p_entry["metrics"].get(m["name"]), c_entry["metrics"].get(m["name"])
            if p is None or c is None:
                # A metric the change stopped reporting counts as a regression.
                v = "worse" if p is not None else "unresolved"
                rows.append((w, m["name"], "", "", "", v))
                regressions += v == "worse"
                continue
            v, rel = verdict(p, c, m["better"], m["bound"])
            regressions += v == "worse"
            rows.append((w, m["name"],
                         f"{p['median']:.5g} ({iqr(p) * 100:.1f}%)",
                         f"{c['median']:.5g} ({iqr(c) * 100:.1f}%) {rel * 100:+.1f}%",
                         f"{m['bound'] * 100:.0f}%", v))
        p_fail = p_entry["ops_failed"] / max(1, p_entry["ops_total"])
        c_fail = c_entry["ops_failed"] / max(1, c_entry["ops_total"])
        if c_fail > p_fail:
            regressions += 1
        rows.append((w, "ops_failed", f"{p_entry['ops_failed']}/{p_entry['ops_total']}",
                     f"{c_entry['ops_failed']}/{c_entry['ops_total']}", "",
                     "worse" if c_fail > p_fail else "unchanged"))
        if p_entry.get("digest") != c_entry.get("digest"):
            rows.append((w, "digest", p_entry.get("digest"), c_entry.get("digest"), "",
                         "changed (simulated results differ)"))
    return rows, regressions, []


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="results of the parent commit")
    ap.add_argument("change", help="results of the change")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                    help="file with the metrics and bounds (default: the repo's BENCHMARK.json)")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    rows, regressions, errors = compare(parent, change, bench)
    if errors:
        for e in errors:
            print(f"compare.py: refusing to compare: {e}", file=sys.stderr)
        return 2
    header = ("workload", "metric", "parent median (IQR)", "change median (IQR) diff", "bound",
              "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(x).ljust(wd) for x, wd in zip(r, widths)).rstrip())
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
