"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pidlab.measures  # noqa: E402
import workloads  # noqa: E402
from pidlab import FamilySpec, generate  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _dirichlet(seed=0):
    return generate(FamilySpec("dirichlet_random", {"shape": (2, 2, 2), "seed": seed}))


def test_op_check_flags_a_measure_off_by_1e3_bits(monkeypatch):
    op = workloads.DecomposeOp(_dirichlet())
    assert op.check(op.run()).problems == []

    real = pidlab.measures.compute_measure

    def fake(measure_id, P, *roles):
        r = real(measure_id, P, *roles)
        return dataclasses.replace(r, si=r.si + 1e-3) if measure_id == "red" else r

    monkeypatch.setattr(pidlab.measures, "compute_measure", fake)
    problems = op.check(op.run()).problems
    assert problems and all(p.startswith("red:") for p in problems)


def test_cli_check_flags_a_consistent_but_wrong_and_gate(tmp_path):
    P = generate(FamilySpec("and_gate", {}))
    op = workloads.CliOp(P, "and_gate", "and", tmp_path, env={}, traced=False)
    r = pidlab.measures.compute_measure("broja", P)
    d = 1e-3  # shifts si and ci, keeps all three identities
    fake = {"si": r.si + d, "ui_y": r.ui_y - d, "ui_z": r.ui_z - d, "ci": r.ci + d, "diagnostics": []}
    op.output.write_text(json.dumps({"measures_bits": {"broja": fake}}))
    problems = op.check((0, 0)).problems
    assert any("reference" in p for p in problems)
    assert not any("consistency" in p for p in problems)


def test_cli_check_flags_a_report_that_changes_between_runs(tmp_path):
    P = generate(FamilySpec("xor", {}))
    op = workloads.CliOp(P, "xor", "xor", tmp_path, env={}, traced=False)
    r = pidlab.measures.compute_measure("mmi", P)
    body = {"si": r.si, "ui_y": r.ui_y, "ui_z": r.ui_z, "ci": r.ci, "diagnostics": []}
    op.output.write_text(json.dumps({"measures_bits": {"mmi": body}}))
    assert op.check((0, 0)).problems == []
    op.output.write_text(json.dumps({"measures_bits": {"mmi": body}}, indent=1))
    assert op.check((0, 0)).problems == ["report differs from the first run of the same input"]


def test_relabelling_preserves_every_decomposition():
    P = _dirichlet(3)
    Q = workloads.relabel(P, np.random.default_rng(5))
    assert not np.array_equal(P.mass, Q.mass)
    for m in workloads.MEASURE_IDS:
        a = pidlab.measures.compute_measure(m, P).components()
        b = pidlab.measures.compute_measure(m, Q).components()
        assert all(abs(a[c] - b[c]) <= 1e-7 for c in a), m


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "binary", "--seed", "1", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_is_named_in_benchmark_json(trace, section):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
