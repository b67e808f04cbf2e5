"""Closed-loop benchmark of certified mcx jobs.

    python3 perfbench/run.py --workload lp-seminorm --seed 1 --seconds 30 \
        --trace 0

    for w in lp-seminorm homology-snf diffusion-averaging; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Run from the repository root.  The program is imported from ./src; there
is no fallback to an installed copy, so without the source the run stops
with a non-zero exit code and prints no result.

Set-up writes every input document from the seed (SETUP_REPEATS times;
setup_s is the median).  One client then runs jobs in-process through
multicomplex.cli.main, each starting after the previous one returned and
was checked, round after round until --seconds have passed and at least
MIN_JOBS jobs ran.  A run always stops at a round boundary, so its job
mix is fixed.  jobs_per_s is jobs over the time spent inside
cli.main; checking is excluded.

Every timed piece of work (a job or a set-up) is bracketed by two runs
of a short calibration kernel of Fraction arithmetic, and its time is
scaled by NOMINAL_KERNEL_S / (mean of the two kernel times).  Times are
thus reported at a nominal machine speed, the one at which the kernel
takes NOMINAL_KERNEL_S, so that a machine whose speed flips between a
fast and a slow phase every few seconds gives steady figures.  The raw
times are printed next to the scaled ones.

With --trace 1 the run makes a warm-up pass, then an untraced, a traced
and another untraced pass over the first TRACE_ROUNDS rounds, so work
counts depend only on the seed.  It prints the per-layer metrics named in
BENCHMARK.json, including the tracing overhead, and writes the spans to
perfbench/work/spans-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_REPEATS = 9
ROUNDS = 16
TRACE_ROUNDS = 2
TAIL_PERCENTILES = (99, 90, 50)
MIN_JOBS = 100  # keeps the tail at p90 on a slow machine
CALIBRATION_TERMS = 1500
NOMINAL_KERNEL_S = 0.0035  # the kernel's time in the fast phase of a
#                            2-vCPU cloud machine


def load_program():
    """Put ./src first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "multicomplex", "cli.py")):
        sys.exit("perfbench: no program source at %s" % SRC)
    sys.path.insert(0, SRC)


def run_job(job):
    """(exit code, stdout, stderr) of one job run through cli.main."""
    from multicomplex import cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed job, not a failed benchmark
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def verify(job, code, text):
    """None when the job succeeded, else why it failed."""
    if code != 0:
        return "exit code %s" % code
    try:
        job.check(json.loads(text))
    except Exception as exc:  # any defect in the output fails the job
        return "%s: %s" % (type(exc).__name__, exc)
    return None


def calibrate():
    """Seconds for a fixed piece of Fraction arithmetic, the kind of work
    the program does, as a gauge of the machine's current speed."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - start


class Clock:
    """Times work between two calibrations and scales it to the nominal
    speed."""

    def __init__(self):
        self.gauges = []

    def time(self, fn):
        """(raw seconds, mean calibration around it, result of fn())."""
        before = calibrate()
        start = perf_counter()
        result = fn()
        seconds = perf_counter() - start
        after = calibrate()
        self.gauges += [before, after]
        return seconds, (before + after) / 2, result

    @staticmethod
    def scale(timings):
        return [seconds * NOMINAL_KERNEL_S / gauge
                for seconds, gauge in timings]


class Pass:
    """Latencies and failures of a sequence of jobs."""

    def __init__(self, clock):
        self.clock = clock
        self.timings = []  # (raw seconds, calibration)
        self.kinds = []
        self.failures = []

    def run(self, job):
        gc.collect()  # each job starts with an empty young generation
        seconds, gauge, (code, out, err) = self.clock.time(
            lambda: run_job(job))
        self.timings.append((seconds, gauge))
        self.kinds.append(job.kind)
        why = verify(job, code, out)
        if why is not None:
            self.failures.append((job.kind, why, err.strip()[-300:]))

    @property
    def latencies(self):
        return self.clock.scale(self.timings)

    @property
    def jobs_per_s(self):
        return len(self.timings) / sum(self.latencies)

    @property
    def raw_jobs_per_s(self):
        return len(self.timings) / sum(t for t, _ in self.timings)


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail(values):
    """(percentile, value, samples beyond) for the highest percentile of
    TAIL_PERCENTILES with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        beyond = n - math.ceil(p / 100 * n)
        if beyond >= 10:
            return p, nearest_rank(values, p), beyond
    return 0, min(values), n


def setup(workloads, workload, seed, clock):
    """The rounds of jobs and the (raw seconds, calibration) of each of
    SETUP_REPEATS set-ups."""
    work_dir = os.path.join(WORK, workload)
    timings = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        seconds, gauge, rounds = clock.time(
            lambda: workloads.build(workload, seed, work_dir, ROUNDS))
        timings.append((seconds, gauge))
    return rounds, timings


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_failures(passes):
    for p in passes:
        for kind, why, err in p.failures[:5]:
            print("FAILED %s: %s %s" % (kind, why, err))


def untraced(rounds, seconds, clock, setup_timings):
    p = Pass(clock)
    start = perf_counter()
    r = 0
    while perf_counter() - start < seconds or len(p.timings) < MIN_JOBS:
        for job in rounds[r % len(rounds)]:
            p.run(job)
        r += 1
    lat_ms = [t * 1000 for t in p.latencies]
    raw_ms = [t * 1000 for t, _ in p.timings]
    pct, tail_ms, beyond = tail(lat_ms)
    n = len(lat_ms)
    metrics = {
        "jobs_per_s": (p.jobs_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(clock.scale(setup_timings)), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    report_failures([p])
    print("%d rounds, %d jobs, %.1f s wall" % (r, n, perf_counter() - start))
    print("calibration kernel: nominal %.3f ms; measured %d times, min "
          "%.3f ms, median %.3f ms"
          % (NOMINAL_KERNEL_S * 1000, len(clock.gauges),
             min(clock.gauges) * 1000, statistics.median(clock.gauges) * 1000))
    for name, (value, unit) in metrics.items():
        print("%-16s %12.4f %s" % (name, value, unit))
    print("%-16s %12.4f   (p%g of %d jobs, %d beyond)"
          % ("  tail is", tail_ms, pct, n, beyond))
    print("%-16s %12.4f   (%d of %d jobs)"
          % ("failed_ratio", len(p.failures) / n, len(p.failures), n))
    print("unscaled: jobs_per_s %.4f, latency_p50_ms %.4f, latency_tail_ms "
          "%.4f, setup_s %.4f"
          % (p.raw_jobs_per_s, statistics.median(raw_ms),
             tail(raw_ms)[1], statistics.median(t for t, _ in setup_timings)))
    width = len(rounds[0])
    for slot, job in enumerate(rounds[0]):
        ts = lat_ms[slot::width]
        print("  slot %2d %-22s %4d jobs  p50 %9.2f ms  max %9.2f ms"
              % (slot, job.kind, len(ts), statistics.median(ts), max(ts)))
    return [p], metrics


def traced(rounds, workload, seed, clock):
    import layers
    jobs = [job for rnd in rounds[:TRACE_ROUNDS] for job in rnd]
    warm, plain, p = Pass(clock), Pass(clock), Pass(clock)
    for job in jobs:  # the first pass in a process runs slower
        warm.run(job)
    for job in jobs:
        plain.run(job)
    tracer = layers.Tracer()
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            tracer.job = i
            p.run(job)
    finally:
        tracer.uninstall()
    for job in jobs:  # untraced passes on both sides of the traced one
        plain.run(job)
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, "spans-%s-%d.jsonl" % (workload, seed)))

    values = dict(tracer.counts)
    values.update(tracer.self_times())
    kinds = p.kinds

    def calls_per_job(name, kind_test):
        """Calls of a spanned function per job of the selected kinds."""
        jobs = sum(1 for k in kinds if kind_test(k))
        calls = sum(1 for span in tracer.spans
                    if span[0] == name and kind_test(kinds[span[4]]))
        return calls / jobs if jobs else 0

    values["seminorm.solves_per_job"] = calls_per_job(
        "exactlp.solve",
        lambda k: k.split("/")[0] in ("seminorm", "dual", "volume"))
    values["seminorm.solves_per_dual_job"] = calls_per_job(
        "exactlp.solve", lambda k: k.startswith("dual/"))
    values["intlinalg.rational_rref.calls_per_toy_vanish_job"] = (
        calls_per_job("intlinalg.rational_rref",
                      lambda k: k == "toy-vanish"))
    values["trace.jobs"] = len(kinds)
    values["trace.spans"] = len(tracer.spans)
    values["trace.jobs_per_s_untraced"] = plain.jobs_per_s
    values["trace.jobs_per_s_traced"] = p.jobs_per_s
    values["trace.overhead_pct"] = 100 * (plain.jobs_per_s / p.jobs_per_s
                                          - 1)
    report_failures([warm, plain, p])
    print("traced %d jobs: %.4f jobs/s untraced, %.4f traced, overhead "
          "%.1f%%" % (len(kinds), plain.jobs_per_s, p.jobs_per_s,
                      values["trace.overhead_pct"]))
    return [warm, plain, p], values


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import workloads
    clock = Clock()
    rounds, setup_timings = setup(workloads, args.workload, args.seed, clock)
    # the jobs and their checks stay alive for the whole run; keep the
    # collector from scanning them, as it would not in a fresh mcx process
    gc.collect()
    gc.freeze()
    print("workload %s, seed %d, %d set-ups, peak RSS after set-up "
          "%.1f MiB" % (args.workload, args.seed, SETUP_REPEATS,
                        peak_rss_mib()))
    if args.trace:
        passes, values = traced(rounds, args.workload, args.seed, clock)
        declared = spec["per_layer"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0),
                               "unit": m["unit"]} for m in declared}
        for m in declared:
            print("%-56s %16.6f %s" % (m["name"], metrics[m["name"]]["value"],
                                       m["unit"]))
    else:
        passes, measured = untraced(rounds, args.seconds, clock,
                                    setup_timings)
        metrics = {m["name"]: {"value": measured[m["name"]][0],
                               "unit": measured[m["name"]][1]}
                   for m in spec["end_to_end"]}
    attempted = sum(len(p.timings) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
