"""The four workloads: fixed input pools, per-seed relabelling, ops and
output checks.

Every pool is fixed.  The workload seed relabels the symbols of each input
(a permutation of every alphabet) and shuffles the op order.  All seven
measures are invariant under relabelling, so a seed yields new inputs with
the same decomposition and, to within rounding, the same solver work.  Drawing
fresh Dirichlet inputs per seed instead would let a handful of slow inputs
decide the run time: over 3,000 2x2x2 inputs the BROJA time of one input ranges
from 4 ms to 420 ms, and over ten seeds the 8-trial additivity suite took
0.5 s to 46 s.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pidlab
import pidlab.families
import pidlab.harness
import pidlab.measures
import pidlab.optim
from pidlab import FamilySpec, JointDist, full_support
from pidlab.distfile import dump_dist
from pidlab.harness import NONNEGATIVE_MEASURES, consistency_check
from pidlab.measures import CONSISTENCY_TOL, MEASURE_IDS, PidResult
from tracing import SUITES as VERIFY_SUITES
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("binary", "ternary", "verify", "cli")

#: binary: 2x2x2 Dirichlet inputs, run once each, so that the ten samples
#: beyond ``op_tail_ms`` come from ten distinct inputs.
BINARY_SEEDS = range(1600)

#: ternary: (shape, Dirichlet seed).  Seeds 0-15 of each shape whose two
#: BROJA solves converge in under 1 s at the seed commit (2-core x86_64),
#: plus 2x4x4 seed 5, whose solves both stop at max_iter (about 14 s).  One
#: such stall fits in a 25 s run; the other inputs of seeds 0-15 take 1-5 s
#: (or stall) and do not.
TERNARY_POOL = (
    *(((3, 3, 3), k) for k in (0, 1, 2, 3, 8, 10, 11, 13, 14, 15)),
    *(((2, 4, 4), k) for k in (0, 2, 4, 6, 8, 9, 10, 11, 12, 13, 14)),
    *(((4, 3, 3), k) for k in (1, 2, 3, 6, 11, 12, 14, 15)),
    ((2, 4, 4), 5),
)

#: verify: each suite at these suite seeds and this trial count.  Suite seed 0
#: is the default of ``pidlab verify``; its constant-U locking check alone
#: takes about 7.5 s (a BROJA solve that stops at max_iter).
VERIFY_SEEDS = tuple(range(18))
VERIFY_TRIALS = 2

#: cli: every named family, plus full-support Dirichlet inputs.
CLI_POOL = (
    ("xor", {}), ("and_gate", {}), ("copy", {}), ("unq", {"side": "y"}), ("unq", {"side": "z"}),
    ("rdn", {}), ("red_discontinuity", {"a": 0.0}), ("red_discontinuity", {"a": 0.5}),
    ("red_discontinuity", {"a": 1e-6}), ("gk_discontinuity", {"eps": 0.0}),
    ("gk_discontinuity", {"eps": 0.01}),
    *(("dirichlet_random", {"seed": k}) for k in range(5)),
)

#: Passes over the op set per run.  A fixed count keeps the number of
#: latency samples, and so the percentile that ``op_tail_ms`` reads, the same
#: in every run.  Each workload fits in a 25 s run; ``cli`` needs two for
#: its byte-identity check.
PASSES = {"binary": 1, "ternary": 1, "verify": 1, "cli": 2}

#: BROJA reference values (bits), as pinned by the oracle suite.
AND_GATE_BROJA = {"si": 0.31127812445913294, "ci": 0.5}
XOR_CI = 1.0
REFERENCE_TOL = 1e-6

#: (rows, cols) of the transportation slices each workload solves over, for
#: warming the per-shape spanning-tree cache.
WARM_SLICES = {
    "binary": ((2, 2),),
    "ternary": ((3, 3), (4, 4)),
    "verify": ((2, 2), (2, 4), (4, 2), (4, 4)),
    "cli": (),
}

#: Solves that reach this many iterations have hit the library's default cap.
MAX_ITER = pidlab.optim.DEFAULT_MAX_ITER

CHILD_TIMEOUT_S = 120


def warm_up(workload: str) -> None:
    """Finish lazy set-up before timing: the solvers' scipy.optimize import and
    the spanning-tree structures for every slice shape the workload uses."""
    importlib.import_module("scipy.optimize")  # the line search imports it lazily
    if workload == "cli":
        importlib.import_module("pidlab.cli")
    for rows, cols in WARM_SLICES[workload]:
        pidlab.transportation_vertices(np.full(rows, 1.0 / rows), np.full(cols, 1.0 / cols))


def relabel(P: JointDist, rng: np.random.Generator) -> JointDist:
    """P with the symbols of every variable permuted."""
    mass = P.mass
    for ax, n in enumerate(mass.shape):
        mass = np.take(mass, rng.permutation(n), axis=ax)
    return JointDist(P.names, P.alphabets, mass)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_result(P: JointDist, measure_id: str, r: PidResult, family: str | None = None) -> list[str]:
    """Problems with one decomposition; an empty list means it passed."""
    problems = []
    worst = max(abs(v) for v in consistency_check(P, r))
    if not worst <= CONSISTENCY_TOL:
        problems.append(f"{measure_id}: consistency residual {worst:.3g} bits")
    if measure_id in NONNEGATIVE_MEASURES and not min(r.components().values()) >= -CONSISTENCY_TOL:
        problems.append(f"{measure_id}: negative component {min(r.components().values()):.3g} bits")
    if measure_id == "broja" and family == "and_gate":
        for comp, ref in AND_GATE_BROJA.items():
            if not abs(r.components()[comp] - ref) <= REFERENCE_TOL:
                problems.append(f"broja on and_gate: {comp}={r.components()[comp]!r}, reference {ref}")
    if measure_id == "broja" and family == "xor" and not abs(r.ci - XOR_CI) <= REFERENCE_TOL:
        problems.append(f"broja on xor: ci={r.ci!r}, reference {XOR_CI}")
    return problems


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one op produced.  ``error`` is set when the op raised or its
    process exited non-zero; ``problems`` lists the output checks it failed
    (wrong results).  Either makes the op a failed op."""

    error: str | None = None
    problems: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    rss_kb: int = 0
    exit_code: int = 0


class DecomposeOp:
    """One input decomposed by all seven measures in this process."""

    def __init__(self, P: JointDist):
        self.P = P

    def run(self):
        # Looked up on every call, so a traced run sees the wrapped dispatcher.
        return {m: pidlab.measures.compute_measure(m, self.P) for m in MEASURE_IDS}

    def check(self, results) -> Outcome:
        out = Outcome()
        for m, r in results.items():
            out.problems += check_result(self.P, m, r)
            out.reports += r.diagnostics
        return out


class SuiteOp:
    """One verification-suite call; ``wrap`` lets a traced run time it."""

    def __init__(self, suite: str, seed: int, wrap=None):
        self.suite, self.seed, self.wrap = suite, seed, wrap
        self.label = f"{suite}@{seed}"

    def run(self):
        fn = pidlab.harness.SUITES[self.suite]
        if self.wrap is not None:
            fn = self.wrap(f"harness.{self.suite}", fn)
        return fn(trials=VERIFY_TRIALS, seed=self.seed)

    def check(self, result) -> Outcome:
        body, passed = result
        ok = bool(passed) and bool(body.get("passed"))
        return Outcome(problems=[] if ok else [f"suite {self.label} did not pass"])


class CliOp:
    """One fresh ``pidlab compute`` process on a DistFile."""

    def __init__(self, P, family, label, workdir: Path, env, traced: bool):
        self.P, self.family, self.label = P, family, label
        self.input = workdir / f"{label}.json"
        self.output = workdir / f"{label}.report.json"
        self.log = workdir / f"{label}.log"
        self.spans = workdir / f"{label}.spans.json"
        self.env, self.traced = env, traced
        dump_dist(P, str(self.input))
        args = ["compute", "--input", str(self.input), "--out", str(self.output)]
        if not full_support(P):
            # ig is defined on full-support inputs only.
            args += ["--measures", ",".join(m for m in MEASURE_IDS if m != "ig")]
        if traced:
            self.argv = [sys.executable, str(HERE / "cli_child.py"), str(self.spans), *args]
        else:
            self.argv = [sys.executable, "-m", "pidlab.cli", *args]
        self.first_report: bytes | None = None

    def run(self):
        self.output.unlink(missing_ok=True)
        return run_child(self.argv, self.env, self.log)

    def check(self, result) -> Outcome:
        code, rss_kb = result
        out = Outcome(rss_kb=rss_kb, exit_code=code)
        if self.traced and self.spans.exists():
            out.spans = Tracer.load(self.spans)
            self.spans.unlink()
        if code != 0:
            lines = self.log.read_text(errors="replace").strip().splitlines()
            out.error = f"exit {code}: {lines[-1] if lines else ''}"
            return out
        data = self.output.read_bytes()
        if self.first_report is None:
            self.first_report = data
        elif data != self.first_report:
            out.problems.append("report differs from the first run of the same input")
        for m, v in json.loads(data)["measures_bits"].items():
            r = PidResult(m, v["si"], v["ui_y"], v["ui_z"], v["ci"])
            out.problems += check_result(self.P, m, r, self.family)
            out.reports += [pidlab.optim.SolveReport(**d) for d in v["diagnostics"]]
        return out


def run_child(argv, env, log_path: Path):
    """Run a process to completion; returns (exit code, peak RSS in KiB)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    ops: list
    passes: int
    shapes: list
    full_support_share: float | None


def build(name: str, seed: int, workdir: Path, wrap=None) -> Workload:
    """Generate the workload's inputs from ``seed``; ``wrap`` is the tracer's
    span wrapper in a traced run."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    generate = pidlab.families.generate  # looked up now, after any patching
    if name == "binary":
        specs = [("dirichlet_random", {"shape": (2, 2, 2), "seed": k}) for k in BINARY_SEEDS]
    elif name == "ternary":
        specs = [("dirichlet_random", {"shape": s, "seed": k}) for s, k in TERNARY_POOL]
    elif name == "cli":
        specs = list(CLI_POOL)
    else:
        # The suites generate their own inputs; their properties are
        # recorded while they run.
        ops = [SuiteOp(s, k, wrap) for k in VERIFY_SEEDS for s in VERIFY_SUITES]
        rng.shuffle(ops)
        return Workload(ops, PASSES[name], [], None)

    dists = [(fam, params, relabel(generate(FamilySpec(fam, params)), rng)) for fam, params in specs]
    if name == "cli":
        env = child_env()
        ops = [CliOp(P, fam, f"{i:02d}-{fam}", workdir, env, traced=wrap is not None)
               for i, (fam, params, P) in enumerate(dists)]
    else:
        ops = [DecomposeOp(P) for _, _, P in dists]
    rng.shuffle(ops)
    shapes = [tuple(P.mass.shape) for _, _, P in dists]
    share = sum(full_support(P) for _, _, P in dists) / len(dists)
    return Workload(ops, PASSES[name], shapes, share)
