"""heckedist benchmark: one workload per invocation, metrics on the last line.

    python3 perfbench/run.py --workload {tau,kloosterman,equidist,hecke} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Every set-up sample is a fresh single-threaded
worker process (worker.py) importing heckedist from ``src/``; the last one
also runs the workload's jobs as a closed loop (one caller, each operation
starts when the previous one returns) for ``--seconds`` seconds and checks
every output against references pinned in ``refs.json``.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json: ``setup_s`` (median over 3-5 workers of the time from
process start to ready), ``job_s`` (median job time), ``op_ms_p50`` and
``op_ms_p90`` over the single queries, and ``peak_rss_mb``.  All times are
calibrated against machine-speed drift as worker.py describes; the raw
medians are printed in the summary.  With ``--trace 1`` one worker
alternates untraced and traced jobs and the result carries the per-layer
metrics: raw span times averaged over the traced jobs (set-up spans counted
once), counts, and ``trace.overhead_ratio`` against ``trace.base_job_s``,
the calibrated untraced job time.  The spans go to ``.perfbench_out/``.
The error rate is printed in the summary and carried by
``attempted``/``failed``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from worker import CAL_NOMINAL_S, SETUP_SLICES, calibration_slice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# set-up samples per run: at least MIN, and more up to MAX while the set-up
# workers have taken less than SETUP_BUDGET_S (cheap set-ups get more samples)
SETUP_SAMPLES_MIN, SETUP_SAMPLES_MAX = 3, 5
SETUP_BUDGET_S = 6.0
WORKER_TIMEOUT_S = 150


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def versions() -> dict:
    out = {"python": platform.python_version()}
    for mod in ("numpy", "scipy"):
        try:
            out[mod] = __import__(mod).__version__
        except ImportError:
            out[mod] = "missing"
    return out


def worker(args, workdir, setup_only: bool, trace_out=None) -> dict:
    """Start one worker; return its result with setup_s measured from the spawn
    and calibrated by slices just before the spawn and just after ready."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    slices = [calibration_slice() for _ in range(SETUP_SLICES)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    out = json.loads(lines[-1])
    out["raw_setup_s"] = out["ready"] - start
    out["setup_s"] = out["raw_setup_s"] * CAL_NOMINAL_S / statistics.median(slices + out["slices"])
    return out


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        trace_out = os.path.join(ROOT, ".perfbench_out",
                                 "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
    try:
        setups = []
        started = time.monotonic()
        while not args.trace and len(setups) < SETUP_SAMPLES_MAX - 1 and (
                len(setups) < SETUP_SAMPLES_MIN - 1
                or time.monotonic() - started < SETUP_BUDGET_S):
            setups.append(worker(args, workdir, True))
        final = worker(args, workdir, False, trace_out)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    setups.append(final)

    lat_ms = [x * 1000.0 for x in final["latencies"]]
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "git_sha": git_sha(), "versions": versions(), "sizes": final["sizes"],
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "processes": "one worker per set-up sample, single-threaded, closed loop",
    }
    print(json.dumps({"provenance": provenance}))
    error_rate = final["failed"] / final["attempted"]
    print("ops attempted %d, failed %d, error_rate %.4f ratio"
          % (final["attempted"], final["failed"], error_rate))
    for msg in final["failures"]:
        print("FAILED: %s" % msg)

    if args.trace:
        layers = final["layers"]
        base = statistics.median(final["job_s"])
        traced = statistics.median(final["traced_job_s"])
        derived = {
            "setup.import_s": final["import_s"],
            "setup.prepare_s": final["prepare_s"],
            "trace.base_job_s": base,
            "trace.overhead_ratio": (traced - base) / base,
        }
        layers["equidist.records_scanned"] = \
            layers.get("equidist.count.calls", 0) * layers.get("equidist.dataset.records", 0)
        rates = (("equidist.tau.coeffs_per_s", "equidist.tau.coeffs", "equidist.tau_table.s"),
                 ("kloosterman.terms_per_s", "kloosterman.terms", "kloosterman.evaluate.s"),
                 ("hecke.brute.pairs_per_s", "hecke.brute.pairs", "hecke.brute_force_convolution.s"),
                 ("equidist.count.records_per_s", "equidist.records_scanned", "equidist.count.s"))
        for name, num, den in rates:
            derived[name] = layers.get(num, 0) / layers[den] if layers.get(den) else 0.0
        io_s = sum(layers.get("equidist.Dataset.%s.s" % m, 0.0)
                   for m in ("to_jsonl", "from_jsonl", "to_csv", "from_csv"))
        derived["equidist.io.records_per_s"] = \
            4 * layers.get("equidist.dataset.records", 0) / io_s if io_s else 0.0
        layers.update(derived)
        print("trace overhead %.4f of untraced job_s %.4f s (%d untraced, %d traced jobs)"
              % (derived["trace.overhead_ratio"], base, len(final["job_s"]),
                 len(final["traced_job_s"])))
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "job_s": statistics.median(final["job_s"]),
            "op_ms_p50": statistics.median(lat_ms),
            "op_ms_p90": percentile(lat_ms, 90),
            "peak_rss_mb": final["rss_mb"],
        }
        print("setup_s over %d processes, job_s over %d jobs, op_ms over %d queries"
              % (len(setups), len(final["job_s"]), len(lat_ms)))
        print("raw setup_s %.4f s, job_s %.4f s before calibration"
              % (statistics.median(s["raw_setup_s"] for s in setups),
                 statistics.median(final["raw_job_s"])))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = final["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
