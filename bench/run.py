"""contactmono benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
detail record (environment, seed, per-pass times, per-solve Gauss-Newton
records, failures, self-check).  Both are also written under `.bench_out/`.

--trace 0 runs passes of the workload for S seconds and reports the
end-to-end metrics, with times scaled for machine speed (see speed.py).  --trace 1 runs a fixed number of passes untraced, the
same passes under the layer tracer, and the first pass traced once more,
and reports the per-layer metrics and the tracing overhead.
"""

import os

# one process, one thread: pin the BLAS pools before numpy loads
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import DETERMINISTIC, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 6  # fresh processes timed for setup_s, besides this one


def _use_checkout_source():
    if not (SRC / "contactmono" / "__init__.py").is_file():
        raise SystemExit(f"bench: no contactmono source under {SRC}")
    sys.path.insert(0, str(SRC))


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def environment(seed):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "workload_seed": seed,
    }


def probe_setup(workload, seed, speed):
    """Set-up seconds of SETUP_PROBES fresh processes; `speed` sampled between them."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
        speed.sample()
    return out


def _attempt(fn):
    """Run one operation; an exception is that operation's failure."""
    try:
        return fn(), None
    except Exception:  # noqa: BLE001 - the benchmark records it and goes on
        return None, traceback.format_exc(limit=4)


def run_pass(wl, ctx, index, speed=None):
    """Run a pass's operations, then check them; returns (seconds, results).

    With `speed`, the probe samples its kernel on a timer during the pass
    and the samples' time is taken out of the seconds.
    """
    ops = wl.ops(ctx, index)
    if speed is None:
        t0 = time.perf_counter()
        raw = [(key, _attempt(op)) for key, op in ops]
        seconds = time.perf_counter() - t0
    else:
        with speed.during() as elapsed:
            raw = [(key, _attempt(op)) for key, op in ops]
        seconds = elapsed[0]
    return seconds, wl.check(ctx, index, raw)


def summarize(index, seconds, results, traced=False):
    return {
        "pass": index,
        "traced": traced,
        "seconds": seconds,
        "ops": len(results),
        "failed": sum(r.failure is not None for r in results),
        "solves": [s for r in results for s in r.solves],
    }


def run_timed(wl, ctx, seconds, speed, detail):
    """End-to-end: passes until the next one would overrun `seconds`."""
    times, results = [], []
    begin = time.perf_counter()
    while True:
        dt, res = run_pass(wl, ctx, len(times), speed)
        detail["passes"].append(summarize(len(times), dt, res))
        times.append(dt)
        results += res
        if time.perf_counter() - begin + statistics.median(times) > seconds:
            break
    if not speed.samples:  # a pass shorter than the timer period
        speed.sample()
    return results, times


def run_traced(wl, ctx, detail):
    """Per-layer: the same passes untraced, traced, and the first traced again."""
    n = wl.trace_passes
    results, times_u, times_t, tracers = [], [], [], []
    reports_u = []
    for i in range(n):
        dt, res = run_pass(wl, ctx, i)
        detail["passes"].append(summarize(i, dt, res))
        times_u.append(dt)
        reports_u.append([r.report for r in res])
        results += res
    same_reports, restored = True, True
    for i in list(range(n)) + [0]:
        tracer = Tracer(i)
        with tracer:
            dt, res = run_pass(wl, ctx, i)
        restored &= tracer.restored
        same_reports &= [r.report for r in res] == reports_u[i]
        detail["passes"].append(summarize(i, dt, res, traced=True))
        results += res
        if len(tracers) < n:
            times_t.append(dt)
            tracers.append(tracer)
        else:
            repeat = tracer
    first, again = tracers[0].layer_counts(), repeat.layer_counts()
    counts_repeat = all(first[k] == again[k] for k in DETERMINISTIC)
    detail["selfcheck"] = {
        "report_bytes_equal": same_reports,
        "wrappers_restored": restored,
        "counts_repeat": counts_repeat,
        "repeated_counts": {k: [first[k], again[k]] for k in DETERMINISTIC},
    }
    overhead = statistics.median(times_t) / statistics.median(times_u) - 1.0
    metrics, notes = per_layer_metrics(tracers, overhead)
    detail["absent"] = notes
    detail["traced_solves"] = [s for t in tracers for s in t.solves]
    spans_path = OUT_DIR / f"{wl.name}-seed{detail['env']['workload_seed']}-spans.jsonl"
    OUT_DIR.mkdir(exist_ok=True)
    with open(spans_path, "w") as fh:
        for t in tracers:
            for span_id, parent, layer, fn, t0, t1 in t.spans:
                fh.write(json.dumps({"pass": t.pass_index, "id": span_id, "parent": parent,
                                     "layer": layer, "fn": fn, "start": t0, "end": t1}) + "\n")
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    selfcheck_ok = same_reports and restored and counts_repeat
    return results, metrics, selfcheck_ok


def parse_args(argv):
    parser = argparse.ArgumentParser(description="contactmono benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    _use_checkout_source()

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    ctx = wl.setup(args.seed)
    setup_s = time.perf_counter() - t0
    import contactmono

    if Path(contactmono.__file__).resolve().parent != SRC / "contactmono":
        raise SystemExit(f"bench: contactmono imported from {contactmono.__file__}, not {SRC}")
    if args.probe_setup:
        print(repr(setup_s))
        return 0

    detail = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed), "passes": []}
    selfcheck_ok = True
    if args.trace:
        results, metrics, selfcheck_ok = run_traced(wl, ctx, detail)
    else:
        setup_speed = SpeedProbe("exact")  # set-up is interpreter-bound
        setup_speed.sample()
        setup_samples = [setup_s] + probe_setup(wl.name, args.seed, setup_speed)
        wall_speed = SpeedProbe(wl.speed_kernel)
        results, times = run_timed(wl, ctx, args.seconds, wall_speed, detail)
        wall_scale = wall_speed.scale()
        detail["raw_setup_s_samples"] = setup_samples
        detail["setup_kernel_samples"] = setup_speed.samples
        detail["raw_wall_s_quartiles"] = _quartiles(times)
        detail["wall_s_quartiles"] = [t * wall_scale for t in _quartiles(times)]
        detail["wall_kernel"] = wall_speed.kind
        detail["wall_kernel_samples"] = wall_speed.samples
        metrics = {
            "wall_s": (statistics.median(times) * wall_scale, "s"),
            "setup_s": (statistics.median(setup_samples) * setup_speed.scale(), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    attempted = len(results)
    failures = [r.failure for r in results if r.failure is not None]
    if not args.trace:
        metrics["ok_frac"] = (1.0 - len(failures) / attempted, "ratio")
    detail["attempted"] = attempted
    detail["failed_frac"] = len(failures) / attempted
    detail["failures"] = failures[:20]
    summary = {
        "correct": not failures and selfcheck_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"detail": detail, "result": summary}, fh, indent=1, sort_keys=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
