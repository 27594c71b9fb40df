"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import ledger, workloads
from repro.obs import report

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(span_id, name, seconds, parent=None, **attrs):
    return {"event": "span", "name": name, "span_id": span_id,
            "parent_id": parent, "trace_id": "t", "seconds": seconds,
            "ts": 0.0, **attrs}


def test_self_time_of_nested_spans():
    records = [
        _span("r", "bench.run", 10.0),
        _span("s", "bench.setup", 1.0, "r"),
        _span("c", "core.model.context", 0.75, "s"),
        _span("p", "bench.pass", 8.5, "r"),
        _span("d", "core.dmopt", 8.0, "p"),
        # a program span between two layers counts as residual
        _span("x", "dmopt.solve", 7.5, "d"),
        _span("q", "solver.qcp", 7.0, "x"),
        _span("b", "solver.robust", 6.0, "q", first_ok=True),
        _span("i", "solver.ipm", 5.5, "b", iterations=4, warm=False),
        _span("f1", "solver.ipm.factor", 2.0, "i"),
        _span("n1", "bench.fill_probe", 0.25, "i", nnz=100),
        _span("f2", "solver.ipm.factor", 1.0, "i"),
        _span("n2", "bench.fill_probe", 0.25, "i", nnz=300),
    ]
    roots = [r for rs in report.build_trees(records).values() for r in rs]
    out = ledger.layer_metrics(roots, untraced_wall_s=8.0)

    assert out["solver.ipm.factor_s"] == pytest.approx(3.0)
    assert out["solver.ipm.other_s"] == pytest.approx(5.5 - 3.0 - 0.5)
    assert out["solver.robust.other_s"] == pytest.approx(0.5)
    assert out["solver.qcp.root_s"] == pytest.approx(1.0)
    assert out["core.dmopt.other_s"] == pytest.approx(0.5)
    assert out["core.model.context_s"] == pytest.approx(0.75)
    # bench.run/setup/pass self time, dmopt.solve self time, fill probes
    assert out["bench.residual_s"] == pytest.approx(
        0.5 + 0.25 + 0.5 + 0.5 + 0.5)
    times = sum(v for k, v in out.items()
                if k.endswith("_s") and not k.startswith("trace."))
    assert times == pytest.approx(10.0)

    assert out["solver.ipm.factorizations"] == 2
    assert out["solver.ipm.fill_nnz_mean"] == pytest.approx(200)
    assert out["solver.ipm.iterations_cold"] == 4
    assert out["solver.qcp.inner_solves"] == 1
    assert out["solver.robust.useful_ratio"] == pytest.approx(1.0)
    assert out["trace.wall_s"] == pytest.approx(8.5)
    assert out["trace.setup_s"] == pytest.approx(1.0)
    assert out["trace.overhead_pct"] == pytest.approx(100 * (8.5 / 8 - 1))
    assert set(out) == set(ledger.PER_LAYER)


def test_formulation_cache_hits_count_lookups_without_a_build():
    records = [
        _span("l1", "core.formulate.lookup", 1.0),
        _span("b1", "core.formulate.build", 0.9, "l1"),
        _span("l2", "core.formulate.lookup", 0.01),
        _span("l3", "core.formulate.lookup", 0.01),
    ]
    roots = [r for rs in report.build_trees(records).values() for r in rs]
    out = ledger.layer_metrics(roots, untraced_wall_s=0.0)
    assert out["core.formulate.builds"] == 1
    assert out["core.formulate.cache_hits"] == 2


def test_names_and_spec_match_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["per_layer"]} == ledger.PER_LAYER
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_tampered_result_fails_its_check():
    ctx = workloads.make_context("AES-65", scale=0.3)
    res = workloads.dmopt.optimize_dose_map(ctx, 30.0, mode="qp")
    assert workloads.check_dmopt(ctx, res) == []
    res.dose_map_poly.values[0, 0] = 50.0  # far outside the dose range
    problems = workloads.check_dmopt(ctx, res)
    assert problems and "certificate" in problems[0]
    assert workloads.Op("tampered", 0.0, problems).failed


@pytest.mark.parametrize("pct, ok", [(0.0, True), (100.0, True),
                                     (-0.5, False), (100.5, False),
                                     (float("nan"), False)])
def test_yield_check(pct, ok):
    assert (workloads.check_yield("x", pct) == []) is ok


def _run(workload, trace, tmp_cwd):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", "0.3", "--chips", "100"],
        cwd=tmp_cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-2])["env"]["seed"] == 3
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run(workload):
    out = _run(workload, 0, ROOT)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        k: unit for k, (unit, _) in workloads.END_TO_END.items()}


def test_smoke_trace_adds_up():
    out = _run("dosepl_yield", 1, ROOT)
    assert out["correct"]
    values = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(values) == set(ledger.PER_LAYER)
    times = sum(v for k, v in values.items()
                if k.endswith("_s") and not k.startswith("trace."))
    traced = values["trace.setup_s"] + values["trace.wall_s"]
    assert traced <= times <= traced + 0.05
    assert values["solver.qcp.solves"] == 1
    assert values["solver.ipm.factorizations"] > 0


def test_fails_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qcp_table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
