#!/usr/bin/env python3
"""Run the benchmark over several seeds and save one result set.

A result set is a JSON-lines file: one line per run, holding the
workload, seed, trace flag, the run's host stamp and its result.  Runs
go seed by seed, every workload per seed, so slow drift of the machine
spreads over all workloads alike.  Every run's metric names and units
are checked against BENCHMARK.json, and a run with a failed operation
stops the sweep: every workload completes every operation at this
commit, so a failure is a defect, not a figure to average.

    python3 lanbench/sweep.py --out base.jsonl --seeds 1-10
    python3 lanbench/sweep.py --out t.jsonl --seeds 1-3 --trace 1 --workloads replicate

Run it from the root of the repository.  Compare two sets with
compare.py.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    host = json.loads(lines[-2])["host"]
    result = json.loads(lines[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        sys.exit(f"{workload} seed {seed}: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))}, "
                 f"extra {sorted(set(got) - set(want))}, "
                 f"units {[k for k in want if k in got and want[k] != got[k]]}")
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output")
    if result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} operations failed\n{proc.stderr}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "host": host, "result": result}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="result-set file to write")
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(args.out, "w") as out:
        for seed in seeds(args.seeds):
            for workload in args.workloads.split(","):
                rec = run_once(workload, seed, args.seconds, args.trace)
                out.write(json.dumps(rec) + "\n")
                out.flush()
                r = rec["result"]
                print(f"{workload} seed {seed}: {r['attempted']} ops, "
                      f"{r['failed']} failed", file=sys.stderr)


if __name__ == "__main__":
    main()
