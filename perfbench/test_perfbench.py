"""Tests of the benchmark itself: seeded inputs, the output checker, the result format.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from inputs import WORKLOADS, build_plan, near_tree, ring_lattice

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _files(d: Path) -> dict[str, bytes]:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_deterministic_per_seed(tmp_path, workload):
    plan_a, _ = build_plan(workload, 5, tmp_path / "a")
    plan_b, _ = build_plan(workload, 5, tmp_path / "b")
    plan_c, _ = build_plan(workload, 6, tmp_path / "c")
    assert plan_a == plan_b
    files_a, files_b, files_c = (_files(tmp_path / k / "in") for k in "abc")
    assert files_a and files_a == files_b
    assert files_a != files_c


def _cli(*argv: str) -> str:
    from signednet import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def _frustrated_near_tree() -> oracle.Graph:
    """A near-tree whose balanced frustration index is at least 1."""
    for k in range(100):
        g = near_tree(np.random.default_rng([7, k]), 9, 3)
        if oracle.min_flips(g, "balanced") >= 1:
            return g
    raise AssertionError("no frustrated near-tree found")


@pytest.fixture
def classified(tmp_path):
    g = _frustrated_near_tree()
    path = tmp_path / "g.edges"
    path.write_text(g.edge_text())
    _cli("classify", "--input", str(path), "--output", str(tmp_path / "out.json"), "--frustration", "balanced")
    doc = json.loads((tmp_path / "out.json").read_text())
    ref = oracle.Reference(g)
    assert oracle.classify_problems(doc, ref, "balanced", require_exact=True) == []
    return doc, ref


def test_checker_rejects_wrong_verdict(classified):
    doc, ref = classified
    assert doc["verdict"] == "strictly_unbalanced"
    assert oracle.classify_problems(dict(doc, verdict="balanced"), ref, "balanced")


def test_checker_rejects_perturbed_d_b(classified):
    doc, ref = classified
    assert oracle.classify_problems(dict(doc, d_b=doc["d_b"] + 1e-6), ref, "balanced")


def test_checker_rejects_non_minimal_flip_set(classified):
    doc, ref = classified
    g, fr = ref.g, doc["frustration"]
    flips = {(a, b) for a, b, _ in fr["flip_set"]}
    # switching a node toggles every edge at it and keeps the flipped graph balanced
    for v in range(g.n):
        star = {(a, b) for a, b in zip(g.i.tolist(), g.j.tolist()) if v in (a, b)}
        bigger = flips ^ star
        if len(bigger) > len(flips):
            break
    weights = dict(zip(zip(g.i.tolist(), g.j.tolist()), g.w.tolist()))
    flip_set = [[a, b, weights[(a, b)]] for a, b in sorted(bigger)]
    planted = dict(fr, flip_set=flip_set, flip_count=len(flip_set),
                   flipped_weight=sum(abs(w) for *_, w in flip_set))
    assert oracle.frustration_problems(planted, ref, "balanced", require_exact=False) == [
        f"flip_count {len(flip_set)} is not the minimum {fr['flip_count']}"]


def test_checker_rejects_corrupted_trajectory_row(tmp_path):
    g = ring_lattice(np.random.default_rng(0), 30, 4, 0.5, block=5, flips=3)
    (tmp_path / "g.edges").write_text(g.edge_text())
    config = {"horizon": 12, "l0": 1.0, "init": "node:0=1"}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    stdout = _cli("simulate", "rw", "--input", str(tmp_path / "g.edges"), "--config", str(tmp_path / "cfg.json"),
                  "--output", str(tmp_path / "traj.csv"))
    text = (tmp_path / "traj.csv").read_text()
    ref = oracle.Reference(g)
    assert oracle.simulate_problems("rw", config, "csv", text, stdout, ref) == []

    lines = text.splitlines(keepends=True)
    row = 1 + 5 * g.n + 7  # t=5, node 7
    t, node, value = lines[row].strip().split(",")
    lines[row] = f"{t},{node},{float(value) * 1.001!r}\n"
    assert oracle.simulate_problems("rw", config, "csv", "".join(lines), stdout, ref)
    lines[row] = f"{t},{node},oops\n"
    assert oracle.simulate_problems("rw", config, "csv", "".join(lines), stdout, ref)


def test_op_times_are_scaled_by_reference_speed():
    import run
    from inputs import REFERENCE_KERNELS
    from worker import Reference

    for kinds in REFERENCE_KERNELS.values():
        assert Reference(kinds)() > 0
    nominal = run.REFERENCE_NOMINAL_S["python"]
    ops = [{"id": "a", "latency": 0.010}, {"id": "b", "latency": 0.030}]
    passes = [{"traced": False, "wall": 0.04, "reference": ref, "ops": ops} for ref in (4 * nominal, 2 * nominal)]
    values, notes = run.end_to_end(passes, [0.2], 1024, ["python"])
    assert notes["host_scale"] == 0.5  # the fastest reference repetition sets the scale
    assert values["wall_s"] == pytest.approx(0.020)
    assert values["op_p50_ms"] == pytest.approx(10.0)
    assert notes["raw_wall_s"] == pytest.approx(0.040)


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-small", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[section]}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
