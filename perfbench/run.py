"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; tessae is imported from ./src.  The run
times 3 to 15 set-ups: the first from the seed, whose inputs the rounds
use, the others from seeds derived from it.  Then it repeats the
workload's round until the next round would end after S seconds (at
least one round), and times the fixed computation of reference.py before
the first round and after each.  With --trace 0 the last line holds the end-to-end metrics of
BENCHMARK.json.  With --trace 1 one more set-up and every second round
run traced, and the last line holds the per-layer metrics of the fastest
traced round.  The line before the last, "record: {...}", carries the
environment, the output digest and every named figure.  The exit code is
1 when an output check failed and 2 on a usage error.

Timings are medians over the run: setup_s over the set-ups, and op_per_ref
over the untraced rounds of round time over the mean of the two reference
times around it.  The host is shared with other jobs and runs everything
up to 1.5x slower in phases of seconds to minutes; the ratio cancels most
of that, the wall times in the record do not.
"""

import os

# pinned before numpy loads; one thread keeps timings steady on a shared host
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import time_reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# timed set-ups per run: at least the first, then more until the second
# is reached or the set-ups took SETUP_SECONDS.  The first three or four
# set-ups of a process page-fault their arrays in and later ones reuse
# freed memory, so a short set-up needs more than seven for its median to
# land among the later ones
SETUP_REPEATS = (3, 15)
SETUP_SECONDS = 3.0
# the k-th timed set-up uses seed + k * SETUP_SEED_STRIDE, so that set-up
# work that depends on the seed (lloyd_cvt stops on convergence) enters
# setup_s as a median over seeds
SETUP_SEED_STRIDE = 100_003


def commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit(), "seed": seed}


def run_rounds(seconds, one_round, min_rounds=1):
    """Call one_round(index) at least min_rounds times and then until the
    next call, as long as the last, would end after seconds, timing the
    reference before the first call and after each; returns the rounds
    and the len(rounds) + 1 reference times."""
    time_reference()  # warm-up
    refs = [time_reference()]
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        refs.append(time_reference())
        now = time.perf_counter()
        if len(rounds) >= min_rounds and (now - start) + (now - t0) > seconds:
            return rounds, refs


def median_of(rounds, key):
    values = [r.seconds[key] for r in rounds if key in r.seconds]
    return statistics.median(values) if values else float("nan")


def summary(workload, setups, timed):
    """The named end-to-end figures of one run: name -> (value, unit).
    timed holds (round, reference time before it, reference time after)."""
    rounds = [rnd for rnd, _, _ in timed]
    ratios = [rnd.seconds["op"] / ((before + after) / 2)
              for rnd, before, after in timed if "op" in rnd.seconds]
    op_s = median_of(rounds, "op")
    figures = {"op_per_ref": (statistics.median(ratios) if ratios else float("nan"), "ratio"),
               "setup_s": (statistics.median(setups), "s"),
               workload.op_metric: (op_s, "s"),
               "reference_s": (statistics.median(t for _, t, _ in timed), "s")}
    for key in sorted({k for rnd in rounds for k in rnd.seconds} - {"op"}):
        figures[key] = (median_of(rounds, key), "s")
    items = max((rnd.items for rnd in rounds), default=0)
    figures[workload.rate_metric] = (items / op_s, "1/s")
    figures["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return figures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tessae" / "__init__.py").is_file():
        print(f"perfbench: no tessae package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from spans import Tracer
    from workloads import WORKLOADS, attempt
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    record = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed)}

    setups = []
    while len(setups) < SETUP_REPEATS[0] or (
            len(setups) < SETUP_REPEATS[1] and sum(setups) < SETUP_SECONDS):
        t0 = time.perf_counter()
        made = workload.setup(args.seed + len(setups) * SETUP_SEED_STRIDE)
        setups.append(time.perf_counter() - t0)
        if len(setups) == 1:
            inputs = made
    del made

    if args.trace:
        tracer = Tracer()
        with layers.traced(tracer):
            inputs = workload.setup(args.seed)
        setup_spans = tracer.take()
        round_spans = {}

        def one_round(index):
            if index % 2 == 0:
                return attempt(workload, inputs)
            with layers.traced(tracer):
                rnd = attempt(workload, inputs)
            round_spans[index] = tracer.take()
            return rnd

        rounds, refs = run_rounds(args.seconds, one_round, min_rounds=2)
        best = min(round_spans, key=lambda i: rounds[i].seconds.get("op", float("inf")))
        values = layers.layer_metrics(setup_spans, round_spans[best], 1)
        metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
        record["trace_overhead_s"] = (median_of(rounds[1::2], "op")
                                      - median_of(rounds[0::2], "op"))
    else:
        rounds, refs = run_rounds(args.seconds, lambda index: attempt(workload, inputs))
    timed = list(zip(rounds, refs, refs[1:]))
    figures = summary(workload, setups, timed[0::2] if args.trace else timed)
    if not args.trace:
        metrics = {name: figures[name] for name in ("op_per_ref", "setup_s", "peak_rss_mb")}

    attempted = workload.ops_per_round * len(rounds)
    failures = [msg for r in rounds for msg in r.failures]
    digests = sorted({r.digest for r in rounds if not r.failures})
    if len(digests) > 1:
        failures.append(f"rounds disagree on the output digest: {digests}")
    failed = min(attempted, len(failures))
    figures["error_rate"] = (failed / attempted, "ratio")
    record.update(rounds=len(rounds), setups=len(setups), digest=digests,
                  failures=failures, figures=figures)
    if rounds[0].mean_gaps:
        record["mean_gaps"] = rounds[0].mean_gaps

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds, "
          f"{len(setups)} set-ups")
    for name, (value, unit) in figures.items():
        print(f"  {name:<22} {value:.6g} {unit}")
    for msg in failures:
        print(f"  FAILED: {msg}")
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
