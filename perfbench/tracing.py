"""Spans and counters recorded from outside the library.

The library has no tracing of its own, so each layer is timed by replacing
the names its callers look up with wrappers:

* ``pidlab.measures`` imports the solvers by name, so they are patched there;
  ``pidlab.harness`` imports ``minimize_cmi_over_delta`` from
  ``pidlab.optim`` at call time, so that name is patched in ``pidlab.optim``.
* ``compute_measure`` dispatches through a private table, so the dispatcher
  itself is wrapped and each span is tagged with the measure id.
* ``pidlab.dist`` functions call each other through module globals, so
  patching the module attribute also times the nested calls.

A span's self time is its duration minus the time covered by its child
spans.  Spans stay in memory; ``dump``/``load`` move them out of a child
process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time

DIST_FUNCS = (
    "marginal",
    "conditional",
    "entropy",
    "mutual_information",
    "conditional_mutual_information",
    "kl_divergence",
)

#: (module, attribute, layer) for every solver call site.
SOLVERS = (
    ("pidlab.measures", "minimize_cmi_over_delta", "optim.cmi_solve"),
    ("pidlab.optim", "minimize_cmi_over_delta", "optim.cmi_solve"),
    ("pidlab.measures", "fw_kl_mixture", "optim.kl_mixture"),
    ("pidlab.measures", "ipf_fit", "optim.ipf"),
    ("pidlab.measures", "minimize_scalar_convex", "optim.scalar"),
)

#: Unit of each engine's certificate: a Frank-Wolfe gap in bits, an IPF
#: marginal residual (probability mass), or a bracket width in the
#: dimensionless geodesic parameter.
ENGINES = {
    "cmi_solve": "bits",
    "kl_mixture": "bits",
    "ipf": "1",
    "scalar": "1",
}

SUITES = ("oracle", "additivity", "iid", "locking", "continuity")


class Tracer:
    """Records (name, start, end, self_s, parent, attrs) per span."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []  # [span index, seconds covered by children]
        self.enabled = True

    def wrap(self, name, fn, attrs=None):
        """``name`` is a string or a callable of (args, kwargs); ``attrs``
        maps (result, args, kwargs) to a dict stored with the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            parent = self._open[-1][0] if self._open else None
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, label, parent, start, time.perf_counter(), {"error": True})
                raise
            end = time.perf_counter()
            self._close(frame, label, parent, start, end, attrs(result, args, kwargs) if attrs else {})
            return result

        return traced

    def _close(self, frame, label, parent, start, end, extra):
        self._open.pop()
        dur = end - start
        if self._open:
            self._open[-1][1] += dur
        self.spans[frame[0]] = (label, start, end, dur - frame[1], parent, extra)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s for s in self.spans if s is not None], fh)

    @staticmethod
    def load(path: str) -> list:
        with open(path, encoding="utf-8") as fh:
            return [tuple(s) for s in json.load(fh)]


def _solver_attrs(fn):
    sig = inspect.signature(fn)

    def attrs(result, args, kwargs):
        rep = result[1]
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        cap = bound.arguments.get("max_iter")
        # The scalar search has no max_iter argument; it stops unconverged
        # only at its internal iteration cap.
        hit = (not rep.converged) if cap is None else rep.iterations >= cap
        return {
            "iterations": int(rep.iterations),
            "converged": bool(rep.converged),
            "certificate": float(rep.certificate),
            "max_iter_hit": bool(hit),
        }

    return attrs


def _vertex_attrs(result, args, kwargs):
    return {"vertices": int(sum(len(v) for v in result))}


def _write_attrs(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _patch(undo, owner, attr, new):
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, new)


def _restore(undo):
    for owner, attr, old in reversed(undo):
        setattr(owner, attr, old)
    undo.clear()


def install(tracer: Tracer):
    """Wrap every layer's public entry points; returns a function that
    restores the originals."""
    import pidlab.cli
    import pidlab.dist
    import pidlab.distfile
    import pidlab.families
    import pidlab.harness
    import pidlab.measures
    import pidlab.optim

    undo: list = []
    for fn in DIST_FUNCS:
        _patch(undo, pidlab.dist, fn, tracer.wrap("dist", getattr(pidlab.dist, fn)))
    _patch(undo, pidlab.harness, "marginal", pidlab.dist.marginal)

    for mod, attr, layer in SOLVERS:
        owner = importlib.import_module(mod)
        orig = getattr(owner, attr)
        _patch(undo, owner, attr, tracer.wrap(layer, orig, _solver_attrs(orig)))
    poly = pidlab.optim.DeltaPolytope
    _patch(undo, poly, "slice_vertices", tracer.wrap("optim.vertex_enum", poly.slice_vertices, _vertex_attrs))

    def measure_name(args, kwargs):
        return "measures." + (args[0] if args else kwargs["measure_id"])

    traced_compute = tracer.wrap(measure_name, pidlab.measures.compute_measure)
    _patch(undo, pidlab.measures, "compute_measure", traced_compute)
    _patch(undo, pidlab.harness, "compute_measure", traced_compute)
    # The harness also calls these two measures directly.
    _patch(undo, pidlab.measures, "ui_broja", tracer.wrap("measures.broja", pidlab.measures.ui_broja))
    _patch(undo, pidlab.measures, "si_mmi", tracer.wrap("measures.mmi", pidlab.measures.si_mmi))

    traced_generate = tracer.wrap("families.generate", pidlab.families.generate)
    _patch(undo, pidlab.families, "generate", traced_generate)
    _patch(undo, pidlab.harness, "generate", traced_generate)
    _patch(undo, pidlab.harness, "broja_oracle", tracer.wrap("harness.broja_oracle", pidlab.harness.broja_oracle))

    df = pidlab.distfile
    _patch(undo, df, "load_dist", tracer.wrap("distfile.load", df.load_dist))
    _patch(undo, df, "write_report", tracer.wrap("distfile.write", df.write_report, _write_attrs))
    _patch(undo, df, "input_digest", tracer.wrap("distfile.digest", df.input_digest))
    compute = pidlab.cli.main.commands["compute"]
    _patch(undo, compute, "callback", tracer.wrap("cli.compute", compute.callback))
    return lambda: _restore(undo)


def install_report_hook(reports: list, inputs: list):
    """Collect every SolveReport the solvers return and every input the
    harness generates, without timing; for the verification suites, which
    hand neither back."""
    undo: list = []
    import pidlab.harness

    def generate(*args, _orig=pidlab.harness.generate, **kwargs):
        P = _orig(*args, **kwargs)
        inputs.append(P)
        return P

    _patch(undo, pidlab.harness, "generate", generate)
    for mod, attr, _ in SOLVERS:
        owner = importlib.import_module(mod)
        orig = getattr(owner, attr)

        def hooked(*args, _orig=orig, **kwargs):
            result = _orig(*args, **kwargs)
            reports.append(result[1])
            return result

        _patch(undo, owner, attr, hooked)
    return lambda: _restore(undo)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def tail(sorted_values):
    """Highest order statistic with at least ten samples beyond it."""
    n = len(sorted_values)
    return sorted_values[n - 11] if n >= 11 else None


def _latency(durations):
    """(p50, tail) in ms; 0 where there are too few samples."""
    if not durations:
        return 0.0, 0.0
    ms = sorted(d * 1e3 for d in durations)
    t = tail(ms)
    return statistics.median(ms), (t if t is not None else 0.0)


def per_layer(spans, measure_ids, wall_s, exit_nonzero):
    """Every per-layer metric as {name: (value, unit)}, plus the layers the
    spans never reached."""
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def group(prefix):
        return [s for name, ss in by_name.items() if name == prefix or name.startswith(prefix + ".") for s in ss]

    def self_s(ss):
        return sum(s[3] for s in ss)

    out = {}
    for m in measure_ids:
        ss = by_name.get(f"measures.{m}", [])
        p50, t = _latency([s[2] - s[1] for s in ss])
        out[f"measures.{m}.calls"] = (len(ss), "count")
        out[f"measures.{m}.p50_ms"] = (p50, "ms")
        out[f"measures.{m}.tail_ms"] = (t, "ms")
        out[f"measures.{m}.self_s"] = (self_s(ss), "s")

    for engine, cert_unit in ENGINES.items():
        ss = by_name.get(f"optim.{engine}", [])
        done = [s[5] for s in ss if "iterations" in s[5]]
        iters = sum(a["iterations"] for a in done)
        key = f"optim.{engine}"
        out[f"{key}.calls"] = (len(ss), "count")
        out[f"{key}.iterations"] = (iters, "count")
        out[f"{key}.us_per_iter"] = (self_s(ss) * 1e6 / iters if iters else 0.0, "us")
        out[f"{key}.self_s"] = (self_s(ss), "s")
        out[f"{key}.unconverged"] = (sum(not a["converged"] for a in done), "count")
        out[f"{key}.max_iter_hits"] = (sum(a["max_iter_hit"] for a in done), "count")
        out[f"{key}.worst_certificate"] = (max((a["certificate"] for a in done), default=0.0), cert_unit)

    ve = by_name.get("optim.vertex_enum", [])
    out["optim.vertex_enum.self_s"] = (self_s(ve), "s")
    out["optim.vertex_enum.vertices"] = (sum(s[5].get("vertices", 0) for s in ve), "count")

    dist = by_name.get("dist", [])
    out["dist.calls"] = (len(dist), "count")
    out["dist.self_s"] = (self_s(dist), "s")

    loads = by_name.get("distfile.load", [])
    writes = by_name.get("distfile.write", [])
    out["distfile.load_p50_ms"] = (_latency([s[2] - s[1] for s in loads])[0], "ms")
    out["distfile.write_p50_ms"] = (_latency([s[2] - s[1] for s in writes])[0], "ms")
    out["distfile.self_s"] = (self_s(group("distfile")), "s")
    out["distfile.bytes_written"] = (sum(s[5].get("bytes", 0) for s in writes), "bytes")

    out["cli.self_s"] = (self_s(group("cli")), "s")
    out["cli.exit_nonzero"] = (exit_nonzero, "count")

    for suite in SUITES:
        out[f"harness.{suite}_s"] = (sum(s[2] - s[1] for s in by_name.get(f"harness.{suite}", [])), "s")
    oracle = by_name.get("harness.broja_oracle", [])
    out["harness.broja_oracle.calls"] = (len(oracle), "count")
    out["harness.broja_oracle.self_s"] = (self_s(oracle), "s")
    out["harness.self_s"] = (self_s(group("harness")), "s")

    out["families.generate.self_s"] = (self_s(by_name.get("families.generate", [])), "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.spans"] = (len(spans), "count")

    layers = ("measures", "optim.cmi_solve", "optim.kl_mixture", "optim.ipf", "optim.scalar",
              "optim.vertex_enum", "dist", "distfile", "cli", "harness", "families")
    idle = [layer for layer in layers if not group(layer)]
    return out, idle
