"""Benchmark of gbm_hitfun: density curves, tails and Poisson kernels.

    python3 perfbench/run.py --workload density_low_drift --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One process, one closed-loop caller.  The run builds every evaluator
its workload uses several times (set-up), then repeats whole passes of
the seeded operation list until --seconds have passed, checking every
result against the reference table and the properties listed in
README.md.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.
"""

import os

# one BLAS / OpenMP thread, fixed before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from calibration import EVERY_S, Calibration  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# set-up is repeated at least this often and for at least this long;
# setup_s is the median round
SETUP_ROUNDS = 3
SETUP_SECONDS = 2.0

# relative tolerances of the checks against the reference table
TOL = {
    "q_density": 1e-8,
    "survival": 1e-9,
    "total_mass": 1e-12,
    "kernel_closed": 1e-6,
    "tail_constant": 1e-6,
    "kernel_tail": 1e-4,
}
DIGITS_CAP = 16.0


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def check(op, result, table):
    """Check one operation's result: (ok, relative errors, why)."""
    kind, mu, x, n, args = (op["kind"], op["mu"], op["x"], op["n"],
                            op["args"])
    if kind == "q_density":
        if not (np.all(np.isfinite(result)) and np.all(result >= 0.0)):
            return False, [], "q not finite and nonnegative"
        errs = [_rel(v, table[("q", mu, x, 0, t)])
                for t, v in zip(args, result) if ("q", mu, x, 0, t) in table]
    elif kind == "survival":
        if not all(b < a for a, b in zip(result, result[1:])):
            return False, [], "survival not decreasing in T"
        errs = [_rel(v, table[("survival", mu, x, 0, t)])
                for t, v in zip(args, result)]
    elif kind == "total_mass":
        errs = [abs(result - 1.0)]
    elif kind == "kernel_closed":
        rho = args[0]
        ref = (reference.cauchy_kernel(n, x - 1.0, rho) if mu == 0.5
               else table[("kernel", mu, x, n, rho)])
        errs = [_rel(result, ref)]
    elif kind == "tail_constant":
        errs = [_rel(result, reference.tail_constant_closed(mu, x))]
    elif kind == "kernel_tail":
        errs = [_rel(result, reference.kernel_tail_closed(mu, x, n))]
    else:
        raise ValueError(kind)
    worst = max(errs, default=0.0)
    if not worst <= TOL[kind]:
        return False, errs, f"relative error {worst:.3g} > {TOL[kind]:g}"
    return True, errs, ""


def run_op(op, evs, g):
    """Call the program for one operation; returns an array of floats."""
    kind, mu, x = op["kind"], op["mu"], op["x"]
    density, poisson = g.density, g.poisson
    if kind == "q_density":
        return density.q_density(evs[(mu, x)], np.asarray(op["args"]))
    if kind == "tail_constant":
        return density.tail_constant(evs[(mu, x)]).value
    if kind == "survival":
        ev = evs[(mu, x)]
        return [density.survival(ev, t) for t in op["args"]]
    if kind == "total_mass":
        return density.total_mass(evs[(mu, x)])
    model = g.ModelParams(mu, x)
    if kind == "kernel_closed":
        return poisson.kernel_closed(
            poisson.PoissonParams(op["n"], model, op["args"][0]))
    if kind == "kernel_tail":
        return poisson.kernel_tail(
            poisson.PoissonParams(op["n"], model, 0.0)).value
    raise ValueError(kind)


def attempt(op, evs, g, table):
    """Run and check one operation.

    Returns (seconds, result bytes, ok, relative errors, why); an
    exception from the program makes the operation fail, not the run.
    """
    t0 = time.perf_counter()
    try:
        result = run_op(op, evs, g)
    except Exception as exc:
        dt = time.perf_counter() - t0
        why = f"{type(exc).__name__}: {exc}"
        return dt, why.encode(), False, [], why
    dt = time.perf_counter() - t0
    result = np.asarray(result, dtype=float)
    ok, errs, why = check(op, result, table)
    return dt, result.tobytes(), ok, errs, why


def build_all(name, g):
    return {(mu, x): g.density.build_evaluator(g.ModelParams(mu, x))
            for mu, x in workloads.pairs(name)}


def _describe(op):
    return (f"{op['kind']}(mu={op['mu']}, x={op['x']}"
            + (f", n={op['n']}" if op["n"] else "")
            + (f", rho={op['args'][0]}" if op["kind"] == "kernel_closed"
               else "") + ")")


def run(name, seed, seconds, trace):
    import gbm_hitfun as g
    import gbm_hitfun.poisson  # noqa: F401  (not re-exported by the package)

    table = reference.load_table()
    ops = workloads.operations(name, seed)
    tracer = Tracer(g)  # records nothing unless entered
    cal = Calibration()
    with tracer if trace else contextlib.nullcontext():
        setup_times = []
        while (len(setup_times) < SETUP_ROUNDS
               or sum(setup_times) < SETUP_SECONDS):
            cal.sample()
            t0 = time.perf_counter()
            evs = build_all(name, g)
            setup_times.append(time.perf_counter() - t0)
        tracer.phase = "warmup"
        # kernel_closed and kernel_tail build their own evaluators on
        # first use and keep them; fill that cache outside the timed phase
        for mu, x in workloads.pairs(name):
            if any(op["kind"].startswith("kernel") and op["mu"] == mu
                   for op in ops):
                g.poisson.kernel_closed(
                    g.poisson.PoissonParams(3, g.ModelParams(mu, x), 0.0))
        tracer.phase = "ops"

        latencies = {}
        digests = []
        failures = {}
        min_digits = DIGITS_CAP
        passes = attempted = failed = 0
        cal_s = since_cal = 0.0
        t_start = time.perf_counter()
        while True:
            h = hashlib.sha256()
            for op in ops:
                if since_cal >= EVERY_S:
                    cal_s += cal.sample()
                    since_cal = 0.0
                dt, raw, ok, errs, why = attempt(op, evs, g, table)
                since_cal += dt
                latencies.setdefault(op["kind"], []).append(dt)
                attempted += 1
                h.update(raw)
                if ok:
                    for e in errs:
                        min_digits = min(min_digits,
                                         -math.log10(max(e, 1e-300)))
                else:
                    failed += 1
                    failures[_describe(op)] = (op["fault"], why)
            digests.append(h.hexdigest())
            passes += 1
            if time.perf_counter() - t_start >= seconds:
                break
        cal.sample()
        timed = time.perf_counter() - t_start - cal_s

    # times in reference seconds (see calibration.py)
    f = cal.factor()
    main_kind = max(latencies, key=lambda k: len(latencies[k]))
    lat_ms = [1e3 * f * v for v in latencies[main_kind]]
    if trace:
        metrics = layer_metrics(tracer.spans, len(setup_times), passes)
        metrics["trace.ops_per_s"] = (attempted / (f * timed), "1/s")
    else:
        metrics = {
            "setup_s": (f * statistics.median(setup_times), "s"),
            "ops_per_s": (attempted / (f * timed), "1/s"),
            "op_p50_ms": (statistics.median(lat_ms), "ms"),
            "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
            "accuracy_digits": (min(min_digits, DIGITS_CAP), "digits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    identical = len(set(digests)) == 1
    unexpected = sorted(k for k, (fault, _) in failures.items() if fault is None)
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": passes, "ops_per_pass": len(ops), "timed_s": timed,
        "latency_kind": main_kind, "latency_samples": len(lat_ms),
        "setup_s_each": setup_times,
        "calibration_factor": f,
        "calibration_samples": len(cal.samples),
        "wall_ops_per_s": attempted / timed,
        "failures": {k: {"fault": f, "why": w}
                     for k, (f, w) in sorted(failures.items())},
        "unexpected_failures": unexpected,
        "passes_bit_identical": identical,
        "results_sha256": digests[0],
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    correct = identical and not unexpected
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return info, result


def run_all(seed, seconds, trace):
    """Run each workload in its own process and summarise."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        info = json.loads(lines[-2]) if len(lines) > 1 else {}
        results[name] = res
        print(f"== {name}: attempted {res['attempted']}, failed "
              f"{res['failed']}, correct {res['correct']}")
        for key, val in info.get("failures", {}).items():
            print(f"   failed: {key}: {val['why']}")
        for key, m in res["metrics"].items():
            print(f"   {key:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gbm_hitfun" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    info, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
