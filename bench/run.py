"""neutromagma benchmark: one workload, timed from outside the library.

    python3 bench/run.py --workload {corpus,atlas,nstruct,tables} --seed N \
        --seconds S --trace {0,1}

Each repetition runs in a fresh single-threaded child process (bench/child.py),
because the library memoizes closed subsets per carrier and the corpus
memoizes its carriers per process: a second in-process corpus run costs
almost nothing.  Repetitions follow one another until the next one would end
after S seconds (at least one runs).  Untraced runs report the medians of
wall_s, setup_s and peak_rss_mb; traced runs (--trace 1) report the median of
every per-layer metric instead.  Set-up is sampled at least SETUP_SAMPLES
times, with set-up-only children where the repetitions are fewer.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Per-repetition records are written to
bench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("corpus", "atlas", "nstruct", "tables")
SETUP_SAMPLES = 9
DEADLINE_S = 170          # every run ends well inside 180 s


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Child:
    """Runs bench/child.py with a clean environment and a fixed hash seed."""

    def __init__(self, workload, seed, deadline):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONHASHSEED"] = "0"

    def __call__(self, mode, extra=()):
        cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"),
               self.workload, str(self.seed), mode, *extra]
        started = now()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=max(1.0, self.deadline - started))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{self.workload} child exited with {proc.returncode}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["setup"] = (record.pop("ready") - started
                           - record["setup_calibration_s"]) * record["setup_speed"]
        return record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "neutromagma", "__init__.py")):
        raise SystemExit(f"no neutromagma sources under {ROOT}/src")
    os.makedirs(OUT, exist_ok=True)

    start = now()
    child = Child(args.workload, args.seed, start + DEADLINE_S)
    mode = "trace" if args.trace else "run"
    tag = f"{args.workload}-seed{args.seed}-{mode}"
    reps = []
    while True:
        extra = [os.path.join(OUT, f"spans-{tag}-rep{len(reps)}.tsv.gz")] if args.trace else []
        reps.append(child(mode, extra))
        elapsed = now() - start
        if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
    setups = [r["setup"] for r in reps]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(child("setup")["setup"])

    correct = all(not r["mismatches"] and r["self_test"] for r in reps)
    for r in reps:
        for line in r["mismatches"]:
            print(f"MISMATCH {line}", file=sys.stderr)
        if not r["self_test"]:
            print("SELF-TEST: a corrupted result passed the check", file=sys.stderr)
    if args.trace:
        metrics = {}
        for name in reps[0]["layers"]:
            values = [r["layers"][name] for r in reps]
            if name.endswith("_s"):
                metrics[name] = {"value": statistics.median(values), "unit": "s"}
            else:
                metrics[name] = {"value": statistics.median_low(values), "unit": "count"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall"] for r in reps), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps),
                            "unit": "MB"},
        }
    result = {"correct": correct,
              "attempted": sum(r["attempted"] for r in reps),
              "failed": sum(r["failed"] for r in reps),
              "metrics": metrics}
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump({"args": vars(args), "repetitions": reps, "setups": setups,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
