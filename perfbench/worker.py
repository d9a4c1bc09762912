"""One benchmark process: import heckedist, prepare a workload, then run its jobs.

Started by run.py in a fresh single-threaded process, once per set-up
sample.  With ``--setup-only`` it stops when ready.  Otherwise it checks the
set-up, runs jobs until ``--seconds`` have passed (at least one), checks every
job's outputs untimed, and with ``--trace 1`` alternates untraced and traced
jobs.  The last line of its standard output is one JSON object; everything
else goes to standard error.

Times are normalised to the speed the machine shows at the moment.  On a
shared host the same job's wall time drifts by 20-40 % over minutes, in
CPU time as much as in wall time, so a fixed pure-Python calibration slice
(Fraction and dict work plus one bigint square, independent of heckedist)
runs between operations, about every ``CAL_EVERY_S`` seconds.  Each
operation's time is multiplied by ``CAL_NOMINAL_S / median(the slices
nearest to it)``.  A change to heckedist moves the operation times but not
the slices, so the ratio keeps it.  Set-up time is scaled the same way by
slices run just before the worker starts (in run.py) and just after it is
ready (here).
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

MEASURE_ERRORS = ("measures.box_measure", "measures.SatoTateMeasure.mass",
                  "measures.SpectralMeasure.continuous_mass")


CAL_NOMINAL_S = 1.5e-3
CAL_EVERY_S = 0.05
CAL_NEAREST = 3
SETUP_SLICES = 10
_CAL_BIG = (1 << 40000) // 7


def calibration_slice() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(1, 300):
        f = Fraction(i, 7) + Fraction(3, i + 1)
        table[i & 63] = f.numerator * 3 + acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
    _CAL_BIG * _CAL_BIG
    return time.perf_counter() - t0


def run_job(wl, stats):
    """Run one job's operations in a closed loop, with calibration slices in
    between; return (results, normalised job seconds, raw job seconds)."""
    clock = time.perf_counter
    results, spans = [], []
    slices = [(clock(), calibration_slice())]
    for kind, name, thunk in wl.job():
        t0 = clock()
        try:
            result = thunk()
        except Exception as exc:  # an operation that raises counts as failed
            result = None
            stats["failed"] += 1
            stats["failures"].append("%s raised %s: %s" % (name, type(exc).__name__, exc))
        t1 = clock()
        results.append(result)
        spans.append((kind, t0, t1))
        stats["attempted"] += 1
        if t1 - slices[-1][0] >= CAL_EVERY_S:
            slices.append((clock(), calibration_slice()))
    slices.append((clock(), calibration_slice()))
    # each operation is scaled by the slices nearest to it in time: the machine's
    # speed changes on a scale of seconds, so a job-wide factor tracks it less well
    at = [t for t, _ in slices]
    job = raw = 0.0
    for kind, t0, t1 in spans:
        i = bisect.bisect_left(at, (t0 + t1) / 2)
        near = [d for _, d in slices[max(0, i - CAL_NEAREST):i + CAL_NEAREST]]
        seconds = (t1 - t0) * CAL_NOMINAL_S / statistics.median(near)
        job += seconds
        raw += t1 - t0
        if kind == "query":
            stats["latencies"].append(seconds)
    return results, job, raw


def check(stats, fails):
    stats["failed"] += len(fails)
    stats["failures"].extend(fails)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import heckedist as H
    import_s = time.perf_counter() - t0
    src = os.path.join(os.path.dirname(HERE), "src", "heckedist")
    if os.path.dirname(os.path.abspath(H.__file__)) != src:
        raise RuntimeError("imported heckedist from %s, not from %s" % (H.__file__, src))

    from tracer import Tracer
    from workloads import WORKLOADS, load_refs

    wl = WORKLOADS[args.workload](H, args.seed, args.workdir, load_refs())
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    steps = wl.prepare()
    prepare_s = time.perf_counter() - t0
    ready = time.monotonic()
    out = {"ready": ready, "import_s": import_s, "prepare_s": prepare_s,
           "slices": [calibration_slice() for _ in range(SETUP_SLICES)]}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    quad_errors = []
    if tracer:
        tracer.uninstall()
        for name in MEASURE_ERRORS:
            quad_errors += tracer.captured.get(name, [])
        tracer.captured.clear()

    stats = {"attempted": len(steps), "failed": 0, "failures": [], "latencies": []}
    check(stats, wl.check_setup())
    job_s, raw_job_s, traced_s, counts = [], [], [], {}
    loop_start = time.perf_counter()
    while True:
        results, seconds, raw = run_job(wl, stats)
        check(stats, wl.check_job(results))
        job_s.append(seconds)
        raw_job_s.append(raw)
        if tracer:
            tracer.run = len(traced_s) + 1
            tracer.install()
            try:
                results, seconds, _ = run_job(wl, stats)
            finally:
                tracer.uninstall()
            check(stats, wl.check_job(results))
            traced_s.append(seconds)
            for name in MEASURE_ERRORS:
                quad_errors += tracer.captured.get(name, [])
            for key, value in wl.counts(tracer.captured, results).items():
                counts[key] = counts.get(key, 0) + value
            tracer.captured.clear()
        if time.perf_counter() - loop_start >= args.seconds:
            break

    out.update(job_s=job_s, raw_job_s=raw_job_s, latencies=stats["latencies"], attempted=stats["attempted"],
               failed=stats["failed"], failures=stats["failures"][:20],
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               sizes=wl.sizes)
    if tracer:
        layers = tracer.layer_metrics(len(traced_s))
        layers.update({k: v / len(traced_s) for k, v in counts.items()})
        layers["measures.quad_error_max"] = max(quad_errors, default=0.0)
        out.update(traced_job_s=traced_s, layers=layers)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
