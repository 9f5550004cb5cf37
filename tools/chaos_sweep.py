#!/usr/bin/env python3
"""The chaos sweep: every campaign set that a membership change must not move.

  python3 tools/chaos_sweep.py BUILD_DIR OUT_DIR

runs BUILD_DIR/tools/chaos_campaign over 428 campaigns, four at a time:
  - seeds 100-149 (--procs 4 --duration 8000 --faults 4) under lamport,
    lamport --batch 1400, lamport-paper, llft and llft --batch 1400;
  - the same seeds with --spares 4, under lamport and llft;
  - seeds 300-324 and 370-379 with --procs 5 --duration 12000 --faults 6
    --batch 1400;
  - CI's smoke and churn commands (seeds 1-6, --repeat 2) and the seed-19
    LLFT leader crash.

For each set it writes OUT_DIR/<set>.txt: the set's flags, then the lines
chaos_campaign printed for each seed, in seed order. OUT_DIR/summary.txt
gives each set's green count, its red seeds and its seeds with safety
violations. The output is deterministic, so two trees compare with
`diff -r OUT_A OUT_B`. Exit 0 when every campaign ran (red seeds are
results, not errors), 1 when chaos_campaign could not run one, 2 on usage.

Standard library only.
"""

import concurrent.futures
import json
import os
import subprocess
import sys
import tempfile

JOBS = 4

FOUR = ["--procs", "4", "--duration", "8000", "--faults", "4"]
FIVE = ["--procs", "5", "--duration", "12000", "--faults", "6", "--batch", "1400"]
CHURN = ["--procs", "4", "--spares", "4", "--duration", "8000", "--faults", "0"]
MODES = {
    "lamport": [],
    "lamport-batch": ["--batch", "1400"],
    "lamport-paper": ["--ordering", "lamport-paper"],
    "llft": ["--ordering", "llft"],
    "llft-batch": ["--ordering", "llft", "--batch", "1400"],
}
SWEEP = range(100, 150)
SMOKE = range(1, 7)
REPEAT = ["--repeat", "2"]

# (set name, flags, seeds)
SETS = (
    [(f"sweep-{m}", FOUR + f, SWEEP) for m, f in MODES.items()]
    + [(f"spares-{m}", FOUR + ["--spares", "4"] + MODES[m], SWEEP)
       for m in ("lamport", "llft")]
    + [("five-300", FIVE, range(300, 325)), ("five-370", FIVE, range(370, 380))]
    + [(f"smoke-{m}", FOUR + f + REPEAT, SMOKE) for m, f in MODES.items()]
    + [(f"churn-{m}", CHURN + MODES[m] + REPEAT, SMOKE) for m in ("lamport", "llft")]
    + [("leader-crash-llft", FOUR + MODES["llft"], [19])]
)


def run_one(binary, name, flags, seed, scratch):
    """One campaign: (its stdout, its --json row), or raises on a tool error."""
    row_path = os.path.join(scratch, f"{name}_{seed}.json")
    proc = subprocess.run(
        [binary, "--seed", str(seed), *flags, "--json", row_path],
        capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"chaos_campaign --seed {seed} {' '.join(flags)} "
                           f"exited {proc.returncode}: {proc.stderr.strip()}")
    with open(row_path) as f:
        (row,) = json.load(f)
    os.remove(row_path)
    return proc.stdout, row


def main(argv):
    if len(argv) != 3 or argv[1].startswith("-"):
        print("usage: chaos_sweep.py BUILD_DIR OUT_DIR", file=sys.stderr)
        return 2
    binary = os.path.join(argv[1], "tools", "chaos_campaign")
    out_dir = argv[2]
    if not os.access(binary, os.X_OK):
        print(f"chaos_sweep: no chaos_campaign at {binary}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)

    with tempfile.TemporaryDirectory() as scratch, \
            concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        runs = {(name, seed): pool.submit(run_one, binary, name, flags, seed, scratch)
                for name, flags, seeds in SETS for seed in seeds}
        summary = []
        failed = False
        for name, flags, seeds in SETS:
            lines = ["# chaos_campaign " + " ".join(flags) +
                     f" (seeds {seeds[0]}-{seeds[-1]})\n"]
            red, violations = [], []
            for seed in seeds:
                try:
                    stdout, row = runs[(name, seed)].result()
                except RuntimeError as err:
                    print(f"chaos_sweep: {err}", file=sys.stderr)
                    failed = True
                    continue
                lines.append(stdout)
                if not row["ok"] or " DIVERGED " in stdout:
                    red.append(seed)
                if row["violations"]:
                    violations.append(f"{seed}({len(row['violations'])})")
            with open(os.path.join(out_dir, f"{name}.txt"), "w") as f:
                f.writelines(lines)
            summary.append(
                f"{name}: {len(seeds) - len(red)}/{len(seeds)} green"
                f"; red: {' '.join(map(str, red)) or '-'}"
                f"; violations: {' '.join(violations) or '-'}\n")
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        f.writelines(summary)
    sys.stdout.writelines(summary)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
