"""pwkit benchmark: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload desk --seed 7 --seconds 15 --trace 0

Run from the root of a source checkout; pwkit is imported from its `src`.
The last line of standard output is the result,
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics
from a separate traced run.  The line before it holds the details: the
environment, the per-iteration times, the set-up samples and every
certificate record.  --out FILE appends both as one JSON line, the input
of perfbench/compare.py.
"""

import os
import time

T_START = time.perf_counter()  # set-up time counts from here

# One CPU and one BLAS thread, set before numpy is first imported so that
# the child set-ups inherit both.  On the shared 2-vCPU machine a two-thread
# OpenBLAS call waits for whichever thread the host has slowed: with one
# other busy process the `sinogram2d` iteration took 13.7 s instead of 2.1 s.
# The pin puts the speed sampler (speed.py) on the workload's CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5       # set-ups per run: this process plus fresh children
CHILD_TIMEOUT_S = 120


def environment():
    """Versions, BLAS build and threads, CPU count, thread variables, sha."""
    import numpy as np
    import scipy
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_variables": {k: v for k, v in sorted(os.environ.items())
                             if k == "PWKIT_THREADS" or k.startswith("OMP_")
                             or k.startswith("OPENBLAS_")
                             or k.startswith("MKL_")},
        "git_sha": git_sha(),
        "notes": "the process is pinned to one virtual CPU; from inside a "
                 "virtual machine the host's cores cannot be reserved nor "
                 "the page cache dropped",
    }
    return env


def blas_threads():
    """Thread count of each OpenBLAS library loaded in this process."""
    import ctypes
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def child_setup_s(args):
    """Set-up time of a fresh interpreter doing the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def finite(x):
    """JSON has no infinity: an infinite defect (such as a refinement ratio
    over a zero fine-grid defect) is reported as the largest float; the
    details line keeps the raw value."""
    x = float(x)
    return x if math.isfinite(x) else sys.float_info.max


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def timed_loop(wl, inputs, gate, tracer, sampler, seconds):
    """Warm-up and timed iterations: per timed iteration its wall time and
    the mean speed-kernel time it saw, and the first iteration's time."""
    i = 0
    first_iter_s = None
    if wl.warmup:
        t0 = time.perf_counter()
        wl.iterate(inputs, gate, i)
        first_iter_s = time.perf_counter() - t0
        i += 1
    walls, kernels = {}, {}
    loop_start = time.perf_counter()
    while True:
        if tracer:
            tracer.iteration = i
        t0 = time.perf_counter()
        wl.iterate(inputs, gate, i)
        t1 = time.perf_counter()
        walls[i] = t1 - t0
        kernels[i] = sampler.mean_between(t0, t1)
        if tracer:
            tracer.iteration = None
        i += 1
        # a cold workload times exactly one iteration per process; a warm one
        # starts another only if it should end within `seconds`
        elapsed = time.perf_counter() - loop_start
        if (not wl.warmup
                or elapsed + statistics.median(walls.values()) > seconds):
            break
    if first_iter_s is None:
        first_iter_s = walls[min(walls)]
    return walls, kernels, first_iter_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed loop; at least one iteration")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the details and result as a JSON line")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "pwkit" / "__init__.py").is_file():
        print("perfbench: no pwkit sources under %s" % src, file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    import pwkit
    if Path(pwkit.__file__).resolve().parent != (src / "pwkit").resolve():
        print("perfbench: imported pwkit from %s, not from this checkout"
              % pwkit.__file__, file=sys.stderr)
        return 2
    import gate as gate_mod
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import speed
    sampler = speed.Sampler()
    sampler.start()
    gate = gate_mod.Gate()
    tracer = None
    try:
        # half the fresh set-ups run before the timed loop and half after it,
        # so that the median spans the machine's speed drift over the run
        setup_samples = [setup_s] + [child_setup_s(args)
                                     for _ in range(SETUP_SAMPLES // 2)]
        tracer = spans.Tracer().install(pwkit) if args.trace else None
        per_span = tracer.per_span_cost() if tracer else 0.0
        walls, kernels, first_iter_s = timed_loop(
            wl, inputs, gate, tracer, sampler, args.seconds)
        setup_samples += [child_setup_s(args)
                          for _ in range(SETUP_SAMPLES - len(setup_samples))]
    finally:
        sampler.stop()
        if tracer:
            tracer.uninstall()

    times = list(walls.values())
    # times at the reference CPU speed (speed.py): each iteration's at the
    # speed it saw, the set-ups' at the mean speed of the run
    scaled = [walls[i] * speed.REFERENCE_S / kernels[i] for i in walls]
    run_kernel_s = sampler.mean_between(-math.inf, math.inf)
    if args.trace:
        measured = spans.layer_metrics(tracer.spans, walls, per_span)
        measured.update(gate.defects())
        measured["margin.worst"] = gate.worst_margin()
        measured["run.first_iter_s"] = first_iter_s
        measured["run.speed_kernel_s"] = run_kernel_s
        wanted = spec["per_layer"]
    else:
        measured = {
            "wall_norm_s": statistics.median(scaled),
            "setup_s": (statistics.median(setup_samples)
                        * speed.REFERENCE_S / run_kernel_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - gate.failed / gate.attempted,
        }
        wanted = spec["end_to_end"]
    # a layer the workload does not exercise reads 0
    metrics = {m["name"]: {"value": finite(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    result = {
        "correct": gate.failed == 0 and not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    q1, q3 = quartiles(times)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "iteration_s": times,
        "iteration_quartiles_s": [q1, q3],
        "first_iter_s": first_iter_s,
        "setup_samples_s": setup_samples,
        "iteration_scaled_s": scaled,
        "speed_kernel_s": list(kernels.values()),
        "run_speed_kernel_s": run_kernel_s,
        "speed_samples": len(sampler.samples),
        "worst_margin": gate.worst_margin(),
        "problems": gate.problems,
        "certificates": gate.records,
        "unlisted_metrics": {k: v for k, v in measured.items()
                             if k not in metrics},
    }
    print(json.dumps(details, default=str))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"details": details, "result": result},
                                default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
