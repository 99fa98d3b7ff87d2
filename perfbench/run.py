"""pidlab benchmark: time to a certified decomposition.

Usage (from the repository root):

    python3 perfbench/run.py --workload {binary,ternary,verify,cli} \
        --seed N --seconds S --trace {0,1}

One closed loop: a single client runs the workload's ops one after another,
in this process or (cli) in one child process at a time.  The op set is run
a fixed number of passes per workload; no further pass starts once
``--seconds`` have elapsed.  Every op's output is checked; a failed check is counted,
never retried and never fatal.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# As in workloads.py, which needs the library path before it can be imported.
WORKLOADS = ("binary", "ternary", "verify", "cli")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def measure_setup(workload: str, env: dict) -> list[float]:
    """Seconds from the start of a fresh process to the library imported and
    warmed up for ``workload``, once per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(elapsed)
    return samples


def run_passes(wl, seconds: float, tracer):
    """Run the op set ``wl.passes`` times, starting no further pass once
    ``seconds`` have elapsed; returns per-pass op latencies and outcomes."""
    from workloads import Outcome

    passes = []
    start = time.perf_counter()
    while len(passes) < wl.passes and not (passes and time.perf_counter() - start >= seconds):
        latencies, outcomes = [], []
        for op in wl.ops:
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an op that raises is a failed op
                result, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.enabled = False
            outcomes.append(op.check(result) if error is None else Outcome(error=error))
        passes.append((latencies, outcomes))
    return passes


def tail_label(n: int) -> str:
    return f"p{100.0 * (n - 10) / n:.1f} of n={n}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "pidlab" / "__init__.py").is_file():
        print(f"error: no pidlab sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, here and in every child, set before numpy is imported.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import tracing
    import workloads

    env = workloads.child_env()
    setup = measure_setup(args.workload, env)
    workloads.warm_up(args.workload)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer, restore, reports_hooked, inputs_hooked = None, None, [], []
    try:
        if args.trace:
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
        elif args.workload == "verify":
            restore = tracing.install_report_hook(reports_hooked, inputs_hooked)
        wrap = tracer.wrap if tracer is not None else None
        wl = workloads.build(args.workload, args.seed, workdir, wrap)
        passes = run_passes(wl, args.seconds, tracer)
    finally:
        if restore is not None:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    latencies = sorted(t for lat, _ in passes for t in lat)
    outcomes = [o for _, outs in passes for o in outs]
    walls = [sum(lat) for lat, _ in passes]
    wall_s = statistics.median(walls)
    attempted = len(outcomes)
    failed = sum(o.error is not None or bool(o.problems) for o in outcomes)
    # Only a wrong result makes the run incorrect; an op that crashes is
    # counted in ``failed``.
    wrong = [p for o in outcomes for p in o.problems]
    reports = reports_hooked + [r for o in outcomes for r in o.reports]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(passes)} pass(es) of {len(wl.ops)} ops")
    print(f"environment: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
          + ", ".join(f"{v}={os.environ[v]}" for v in BLAS_VARS))
    messages = sorted({m for o in outcomes for m in [o.error, *o.problems] if m})
    print(f"ops failed: {failed} of {attempted}" + "".join(f"\n  {m}" for m in messages[:10]))

    if args.trace:
        spans = [s for s in tracer.spans if s is not None] + [s for o in outcomes for s in o.spans]
        exit_nonzero = sum(o.exit_code != 0 for o in outcomes)
        values, idle = tracing.per_layer(spans, workloads.MEASURE_IDS, wall_s, exit_nonzero)
        if idle:
            print(f"not exercised by workload {args.workload}: {', '.join(idle)} (reported as 0)")
    else:
        if args.workload == "verify":
            shapes = [tuple(P.mass.shape) for P in inputs_hooked]
            full = sum(workloads.full_support(P) for P in inputs_hooked) / len(inputs_hooked)
        else:
            shapes, full = wl.shapes, wl.full_support_share
        counts = dict(Counter("x".join(map(str, s)) for s in shapes))
        unconverged = sum(not r.converged for r in reports)
        hits = sum(r.iterations >= workloads.MAX_ITER for r in reports)
        print(f"inputs: shapes {counts}; full support {full:.3f}")
        print(f"solves unconverged: {unconverged} of {len(reports)}; "
              f"at max_iter={workloads.MAX_ITER}: {hits} of {len(reports)}")
        print(f"op latency: {len(latencies)} samples; op_tail_ms is {tail_label(len(latencies))}")
        if args.workload == "cli":
            rss_mb = max(o.rss_kb for o in outcomes) / 1024.0
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": (wall_s, "s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (tracing.tail(latencies) * 1e3, "ms"),
            "ok_share": ((attempted - failed) / attempted, "share"),
            "converged_share": ((len(reports) - unconverged) / len(reports) if reports else 0.0, "share"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    for name, (value, unit) in values.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
