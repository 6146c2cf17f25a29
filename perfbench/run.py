"""Benchmark of the jainbaskakov package: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (docstrings in ``workloads.py`` say why each was chosen):
grid-warm and cli-goldens, the two that BENCHMARK.json gates, and
sweep-weighted and sweep-voronovskaja, the heavy acceptance sweeps, kept for
measuring by hand.  The package is imported from ``src/`` of the checkout
this file sits in; nothing needs installing.

``--trace 0`` prints the end-to-end metrics:

* ``solve_s``: wall seconds of one pass of the workload's task, undisturbed:
  a pass is cut into parts that do the same work every time (16 grid
  evaluations, one Jain evaluation, one CLI subcommand, one sweep), each
  part's fastest time over all passes in the run is taken, and these are
  summed.  Heavy parts run more than once per pass (see ``workloads.py``).
  The median and quartiles of whole passes are printed beside it.  The host's speed drifts
  by up to 2x over seconds to minutes, which moves a run's median pass, and
  even its fastest whole pass, by 15-35 % from one run to the next; short
  parts each find a quiet moment somewhere in the run;
* ``setup_s``: median over four set-ups (this process and three fresh
  interpreters) of the package import plus the workload's preparation;
* ``peak_rss_mb``: peak resident memory of this process;
* ``fail_ratio``: operations whose output failed its check over operations
  attempted (also the ``failed``/``attempted`` fields of the result).

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``tracing.py`` (medians over traced passes), plus
``process.cpu_s`` (median CPU seconds of an untraced pass) and
``trace.overhead_ratio`` (traced over untraced ``solve_s``, both as above).
The spans go to ``.perfbench/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep-weighted", "sweep-voronovskaja", "grid-warm", "cli-goldens")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 4
MIN_PASSES = 3  # per kind (untraced, traced)


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads(cpus: int) -> dict:
    """Cap every thread-count variable at the CPUs this process may use."""
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, cpus))
        except ValueError:
            want = cpus
        os.environ[var] = str(max(1, min(want, cpus)))
    return {var: os.environ[var] for var in THREAD_VARS}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def cpu_description() -> dict:
    model = platform.processor() or "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{base}/{index}/size").strip()
    return {"model": model, "L2": caches.get("L2", "unknown"), "L3": caches.get("L3", "unknown")}


def set_up(name: str, seed: int, wrap_fn=None):
    """Import the package and prepare the workload; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and the package

    workload = workloads.WORKLOADS[name](seed, wrap_fn or (lambda f: f))
    seconds = time.perf_counter() - t0
    import jainbaskakov

    if Path(jainbaskakov.__file__).resolve().parent != (SRC / "jainbaskakov").resolve():
        fail(f"imported jainbaskakov from {jainbaskakov.__file__}, not from {SRC}")
    return workload, seconds


def child_setup(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    cp = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if cp.returncode != 0:
        fail(f"set-up in a fresh interpreter failed:\n{cp.stderr}")
    return float(json.loads(cp.stdout.strip().splitlines()[-1])["setup_s"])


def show(name, value, unit, samples, values=None):
    line = f"metric {name} = {value!r} {unit} (samples {samples}"
    if values is not None and len(values) > 1:
        lo, _, hi = statistics.quantiles(values, n=4)
        line += f"; median {statistics.median(values):.6g}, quartiles {lo:.6g} .. {hi:.6g}"
    print(line + ")")


def fastest_parts(passes) -> float:
    """Sum over a pass's parts of each part's fastest time."""
    return sum(min(part) for part in zip(*passes))


def measure(workload, tracer, seconds):
    """Run passes for about ``seconds``; returns the untraced passes' part
    seconds, their CPU seconds, the traced passes' part seconds, operations
    attempted and failed."""
    plain, plain_cpu, traced = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        # untraced, traced, traced, untraced, ...: drift hits both alike
        use_trace = tracer is not None and k % 4 in (1, 2)
        gc.collect()
        t_pass = time.perf_counter()
        c0 = time.process_time()
        if use_trace:
            tracer.begin_pass(k)
        try:
            parts, outputs = workload.run_pass(
                tracer.probe_cache if use_trace else lambda: None)
        finally:
            if use_trace:
                tracer.end_pass()
        if use_trace:
            traced.append(parts)
        else:
            plain.append(parts)
            plain_cpu.append(time.process_time() - c0)
        flags = workload.check(outputs)
        attempted += len(flags)
        failed += flags.count(False)
        k += 1
        enough = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
        if enough and 2 * time.perf_counter() - t_pass > deadline:
            break  # the next pass would end after the deadline
    if tracer is not None:
        tracer.verify()
    return plain, plain_cpu, traced, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "jainbaskakov" / "__init__.py").is_file():
        fail(f"no package source at {SRC}/jainbaskakov: run from a full checkout")
    sys.path.insert(0, str(SRC))
    cpus = nproc()
    threads = pin_threads(cpus)
    if args.setup_only:
        workload, seconds = set_up(args.workload, args.seed)
        getattr(workload, "close", lambda: None)()
        print(json.dumps({"setup_s": seconds}))
        return 0

    tracer = tracing.Tracer(args.workload) if args.trace else None
    workload, first_setup = set_up(
        args.workload, args.seed, tracer.wrap_function if tracer else None)

    import numpy
    import scipy

    cpu = cpu_description()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# host nproc={cpus} cpu={cpu['model']!r} L2={cpu['L2']} L3={cpu['L3']}")
    print(f"# python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__}")
    print("# threads " + " ".join(f"{k}={v}" for k, v in threads.items()))

    setups = [first_setup]
    try:
        if not args.trace:
            setups += [child_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        plain, plain_cpu, traced, attempted, failed = measure(workload, tracer, args.seconds)
    except tracing.TraceError as exc:
        fail(f"trace check failed: {exc}", 3)
    finally:
        getattr(workload, "close", lambda: None)()

    fail_ratio = failed / attempted
    show("fail_ratio", fail_ratio, "ratio", attempted)
    if tracer is None:
        metrics = {
            "solve_s": (fastest_parts(plain), "s", [sum(p) for p in plain]),
            "setup_s": (statistics.median(setups), "s", setups),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", None),
        }
    else:
        metrics = {name: (value, tracing.UNITS[name], None)
                   for name, value in tracer.metrics().items()}
        metrics["process.cpu_s"] = (statistics.median(plain_cpu), "s", plain_cpu)
        metrics["trace.overhead_ratio"] = (
            fastest_parts(traced) / fastest_parts(plain), "ratio", None)
        tracer.write(ROOT / ".perfbench" / f"spans-{args.workload}.npz")
    for name, (value, unit, values) in metrics.items():
        samples = len(values) if values is not None else (len(traced) if tracer else 1)
        show(name, value, unit, samples, values)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
