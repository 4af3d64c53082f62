"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--traced-seed N]
                               [--out perfbench/results/BENCH_name.json]

Runs perfbench/run.py once per workload and seed, one process at a time,
for BENCHMARK.json's run_seconds.  For each end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median, beside a third of
the metric's bound.  --traced-seed adds one traced run per workload and
checks that its output digest equals the untraced run's at that seed.
--out writes every value, record and summary as JSON.  --baseline FILE
compares each median with that of an earlier --out file: a metric is
worse when it moved the wrong way by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(workload, seed, trace):
    """One benchmark process; returns its final result, record and wall time."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    record = next(json.loads(line[len("record: "):]) for line in lines
                  if line.startswith("record: "))
    return json.loads(lines[-1]), record, wall


def spread(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    seeds = parse_seeds(args.seeds)
    out = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, record, wall = run(workload, seed, 0)
            runs.append({"seed": seed, "wall_s": wall, "result": result, "record": record})
            print(f"{workload} seed {seed}: {wall:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"runs": runs, "summary": {}}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            stats = spread([r["result"]["metrics"][name]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            entry["summary"][name] = stats
            if "spread" in stats:
                print(f"  {name:<12} median {stats['median']:.4g} q1 {stats['q1']:.4g} "
                      f"q3 {stats['q3']:.4g} spread {stats['spread']:.4f} "
                      f"(a third of the bound: {metric['bound'] / 3:.4f})", flush=True)
            if baseline and workload in baseline["workloads"]:
                before = baseline["workloads"][workload]["summary"][name]["median"]
                change = stats["median"] / before - 1
                worse = change if metric["better"] == "lower" else -change
                stats["change_vs_baseline"] = change
                print(f"  {name:<12} {change:+.4f} vs baseline median {before:.4g}: "
                      f"{'WORSE than' if worse > metric['bound'] else 'within'} the bound",
                      flush=True)
        if args.traced_seed is not None:
            result, record, wall = run(workload, args.traced_seed, 1)
            untraced = next((r for r in runs if r["seed"] == args.traced_seed), None)
            if untraced is None:
                _, plain, _ = run(workload, args.traced_seed, 0)
            else:
                plain = untraced["record"]
            entry["traced"] = {"seed": args.traced_seed, "wall_s": wall,
                               "result": result, "record": record,
                               "digest_matches_untraced": record["digest"] == plain["digest"]}
            print(f"  traced seed {args.traced_seed}: digest matches untraced: "
                  f"{entry['traced']['digest_matches_untraced']}", flush=True)
        out["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
