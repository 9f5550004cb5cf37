#!/usr/bin/env python3
"""The committed wall-clock performance trajectory (bench/trajectory.jsonl).

Each row of bench/trajectory.jsonl is one (PR, side, workload, metric)
summary of `perfbench/run.py` runs: the median, first and third quartile
(null when only medians are known), the number of runs, their seeds
(empty when not recorded), the run length, the git SHA measured (for a
change measured before it was committed, its parent's SHA and a trailing
"+"), a host label and its hardware threads (null when not recorded).
`side` is "parent" (the tree the change started from) or "change".

  python3 tools/perf_trajectory.py append --pr N --side change \\
      --workload invoke_orb --sha SHA --host LABEL --seeds S1,S2,... \\
      RUN_OUTPUT...
  python3 tools/perf_trajectory.py compare --workload invoke_orb \\
      --host LABEL RUN_OUTPUT...
  python3 tools/perf_trajectory.py --self-test

RUN_OUTPUT files hold what `perfbench/run.py --workload W --seed S` printed
to stdout; its last line is the JSON result.

`compare` summarises the new runs the same way and sets each end-to-end
metric against the last row for the same workload and host, with the
regression bounds of BENCHMARK.json:
  regressed   worse than the old median by more than the metric's bound;
  improved    better by more than both sides' quartile spreads (by more
              than the bound when either side has no quartiles);
  unresolved  neither, and either side's quartile spread exceeds the bound
              or is unknown;
  unchanged   otherwise.
It exits 1 if any metric regressed.

Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(ROOT, "bench", "trajectory.jsonl")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

FIELDS = {
    "pr": int, "side": str, "workload": str, "metric": str, "unit": str,
    "median": (int, float), "q1": (int, float, type(None)),
    "q3": (int, float, type(None)), "runs": int, "seeds": list,
    "run_seconds": (int, float), "sha": str, "host": str,
    "hw_threads": (int, type(None)),
}
SIDES = ("parent", "change")


def load_manifest():
    with open(MANIFEST) as f:
        return json.load(f)


def load_rows():
    rows = []
    if not os.path.exists(TRAJECTORY):
        return rows
    with open(TRAJECTORY) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if line:
                try:
                    rows.append(json.loads(line))
                except ValueError as e:
                    raise SystemExit("%s:%d: not JSON: %s" % (TRAJECTORY, n, e))
    return rows


def quartiles(values):
    """(q1, median, q3); the quartiles are None for fewer than two runs."""
    values = sorted(values)
    if len(values) < 2:
        return None, values[0], None
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def read_results(paths):
    """run.py result objects: the last line of each file."""
    out = []
    for path in paths:
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            raise SystemExit("%s: empty run output" % path)
        out.append(json.loads(lines[-1]))
    for r in out:
        if "metrics" not in r:
            raise SystemExit("not a perfbench/run.py result line: %r" % r)
    return out


def summarise(results):
    """{metric: (unit, q1, median, q3, runs)} over every metric all runs report."""
    names = set(results[0]["metrics"])
    for r in results[1:]:
        names &= set(r["metrics"])
    out = {}
    for name in sorted(names):
        unit = results[0]["metrics"][name]["unit"]
        q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in results])
        out[name] = (unit, q1, med, q3, len(results))
    return out


def validate(rows, manifest):
    """Schema and name problems, as a list of strings."""
    problems = []
    workloads = {w["name"] for w in manifest["workloads"]}
    metrics = {m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    for i, row in enumerate(rows, 1):
        where = "row %d" % i
        for key, typ in FIELDS.items():
            if key not in row:
                problems.append("%s: missing %s" % (where, key))
            elif not isinstance(row[key], typ) or isinstance(row[key], bool):
                problems.append("%s: %s has type %s" % (where, key, type(row[key]).__name__))
        extra = set(row) - set(FIELDS)
        if extra:
            problems.append("%s: unknown fields %s" % (where, sorted(extra)))
        if problems and problems[-1].startswith(where):
            continue
        if row["side"] not in SIDES:
            problems.append("%s: side %r is not one of %s" % (where, row["side"], SIDES))
        if row["workload"] not in workloads:
            problems.append("%s: workload %r is not in BENCHMARK.json" % (where, row["workload"]))
        if row["metric"] not in metrics:
            problems.append("%s: metric %r is not in BENCHMARK.json" % (where, row["metric"]))
        if (row["q1"] is None) != (row["q3"] is None):
            problems.append("%s: q1 and q3 must both be set or both be null" % where)
        elif row["q1"] is not None and not row["q1"] <= row["median"] <= row["q3"]:
            problems.append("%s: quartiles out of order" % where)
        if row["runs"] < 1 or row["run_seconds"] <= 0 or (row["hw_threads"] or 1) < 1:
            problems.append("%s: runs, hw_threads and run_seconds must be positive" % where)
        if not all(isinstance(s, int) for s in row["seeds"]):
            problems.append("%s: seeds must be integers" % where)
    return problems


def classify(old, new, bound, better):
    """improved / unchanged / regressed / unresolved for one metric; `old`
    and `new` are (q1, median, q3)."""
    sign = 1.0 if better == "higher" else -1.0
    o1, om, o3 = old
    n1, nm, n3 = new
    gain = sign * (nm - om)  # > 0: better
    limit = bound * abs(om)
    if gain < -limit:
        return "regressed"
    if o1 is None or n1 is None:
        return "improved" if gain > limit else "unresolved"
    spread = max(o3 - o1, n3 - n1)
    if gain > spread:
        return "improved"
    if spread > limit:
        return "unresolved"
    return "unchanged"


def cmd_append(args):
    results = read_results(args.runs)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else []
    if seeds and len(seeds) != len(results):
        raise SystemExit("%d seeds for %d runs" % (len(seeds), len(results)))
    rows = []
    for name, (unit, q1, med, q3, n) in summarise(results).items():
        rows.append({
            "pr": args.pr, "side": args.side, "workload": args.workload,
            "metric": name, "unit": unit, "median": med, "q1": q1, "q3": q3,
            "runs": n, "seeds": seeds, "run_seconds": args.run_seconds,
            "sha": args.sha, "host": args.host, "hw_threads": args.hw_threads,
        })
    problems = validate(rows, load_manifest())
    if problems:
        raise SystemExit("\n".join(problems))
    with open(TRAJECTORY, "a") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    print("appended %d rows to %s" % (len(rows), TRAJECTORY))
    return 0


def cmd_compare(args):
    manifest = load_manifest()
    new = summarise(read_results(args.runs))
    last = {}
    for row in load_rows():
        if row["workload"] == args.workload and row["host"] == args.host:
            last[row["metric"]] = row  # later rows win
    if not last:
        raise SystemExit("no %s rows for host %r in %s" % (args.workload, args.host, TRAJECTORY))
    regressed = False
    for m in manifest["end_to_end"]:
        name = m["name"]
        if name not in new or name not in last:
            print("%-18s missing" % name)
            continue
        old = last[name]
        _, q1, med, q3, _ = new[name]
        verdict = classify((old["q1"], old["median"], old["q3"]), (q1, med, q3),
                           m["bound"], m["better"])
        regressed |= verdict == "regressed"
        print("%-18s %-10s %.6g -> %.6g %s (PR %d %s)" % (
            name, verdict, old["median"], med, m["unit"], old["pr"], old["side"]))
    return 1 if regressed else 0


def self_test():
    problems = []
    manifest = load_manifest()
    rows = load_rows()
    if not rows:
        problems.append("%s has no rows" % TRAJECTORY)
    problems += validate(rows, manifest)
    # The classifier on synthetic summaries (lower is better, 10 % bound).
    cases = [
        (((9.0, 10.0, 11.0), (1.6, 1.7, 1.8)), "improved"),
        (((9.8, 10.0, 10.2), (9.9, 10.1, 10.3)), "unchanged"),
        (((9.9, 10.0, 10.1), (11.5, 11.6, 11.7)), "regressed"),
        (((5.0, 10.0, 15.0), (9.0, 10.0, 11.0)), "unresolved"),
        (((None, 10.0, None), (9.8, 10.0, 10.2)), "unresolved"),
        (((None, 10.0, None), (7.0, 8.0, 9.0)), "improved"),
    ]
    for (old, new), want in cases:
        got = classify(old, new, 0.1, "lower")
        if got != want:
            problems.append("classify(%s, %s) = %s, expected %s" % (old, new, got, want))
    if classify((9.0, 10.0, 11.0), (1.6, 1.7, 1.8), 0.1, "higher") != "regressed":
        problems.append("classify ignores the metric's direction")
    bad = dict(rows[0]) if rows else {}
    bad.update(metric="no_such_metric", side="both")
    if len(validate([bad], manifest)) < 2:
        problems.append("validate accepted an unknown metric and side")
    for p in problems:
        print("SELF-TEST PROBLEM: " + p)
    print("self-test: %s (%d rows)" % ("ok" if not problems else "FAILED", len(rows)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--self-test", action="store_true")
    sub = ap.add_subparsers(dest="cmd")
    ap_append = sub.add_parser("append", help="summarise runs into trajectory rows")
    ap_append.add_argument("--pr", type=int, required=True)
    ap_append.add_argument("--side", choices=SIDES, required=True)
    ap_append.add_argument("--workload", required=True)
    ap_append.add_argument("--sha", required=True)
    ap_append.add_argument("--host", required=True)
    ap_append.add_argument("--seeds", default="", help="comma list, one per run")
    ap_append.add_argument("--run-seconds", type=float, default=20)
    ap_append.add_argument("--hw-threads", type=int, default=os.cpu_count() or 1)
    ap_compare = sub.add_parser("compare", help="set runs against the trajectory")
    ap_compare.add_argument("--workload", required=True)
    ap_compare.add_argument("--host", required=True)
    for p in (ap_append, ap_compare):
        p.add_argument("runs", nargs="+", help="run.py output files")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.cmd == "append":
        return cmd_append(args)
    if args.cmd == "compare":
        return cmd_compare(args)
    ap.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
