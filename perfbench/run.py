"""signednet benchmark: one workload per run, checked outputs, one JSON result.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload corpus-small --seed 0 --seconds 15 --trace 0

The run writes the workload's seeded inputs under ``.perfbench_work/``,
launches fresh worker processes (closed loop, one op at a time, BLAS pinned
to one thread), checks every distinct output against ``oracle.py`` and
prints a human-readable summary, a ``detail`` JSON line (environment, seed,
sample counts, failures) and, as the last line, the result object.  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  See README.md in this
directory for the workloads and metric definitions.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from inputs import WORKLOADS, build_plan  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 11
TAIL_BEYOND = 10
DEADLINE_S = 170.0
CHECK_RESERVE_S = 40.0

#: about the fastest time of each worker.Reference kernel, timed after a pass
#: in the worker, on the machine the benchmark was tuned on (2-vCPU Intel Xeon,
#: numpy 2.4.6, OpenBLAS 0.3.31, one thread)
REFERENCE_NOMINAL_S = {"python": 1.45e-3, "lapack": 27e-3, "vector": 6.7e-3}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: span name -> per-layer metric prefix; each gets ``_s`` (self time) and ``_calls``
LAYER_SPANS = (
    "io.parse", "io.write", "core.build", "core.weight_matrix", "balance.classify",
    "balance.frustration_exact", "balance.frustration_heuristic", "spectral.measures",
    "dynamics.simulate", "dynamics.predict", "generate.ssbm", "generate.lattice", "generate.tree",
)
LAYER_COUNTS = {
    "io.parse_edges": "count",
    "io.write_bytes": "bytes",
    "balance.flip_count": "count",
    "dynamics.steps": "count",
    "dynamics.rw_converged": "share",
    "generate.edges": "count",
}
TRACE_SUMMARY = {
    "op.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.wall_gap_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_SPANS:
        units[name + "_s"] = "s"
        units[name + "_calls"] = "count"
    return {**units, **LAYER_COUNTS, **TRACE_SUMMARY}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def launch(workdir: Path, extra: list[str], deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker; return (launch-to-ready seconds, the running process)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(workdir / "plan.json"), str(ROOT / "src"), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            raise RuntimeError(f"worker failed before its warm-up op finished (exit {proc.returncode})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return setup, proc


def finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------

def check_op(op: dict, artifacts: dict, refs: dict, keep: Path) -> list[str]:
    def read(name):
        return (keep / artifacts[name]).read_text()

    cmd, a = op["cmd"], op["args"]
    ref = refs.get(op.get("graph"))
    try:
        if cmd == "corpus":
            return oracle.classify_problems(json.loads(read("result")), ref, "balanced")
        if cmd == "classify":
            return oracle.classify_problems(json.loads(read("output")), ref, a.get("frustration"), op.get("exact", False))
        if cmd == "measure":
            return oracle.measure_problems(json.loads(read("output")), ref)
        if cmd == "generate":
            return oracle.generated_problems(a["kind"], op["config"], read("output"))
        return oracle.simulate_problems(a["model"], op["config"], a["format"], read("output"), read("stdout"), ref)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_passes(plan: dict, passes: list[dict], refs: dict, keep: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, first problems); each distinct output is checked once."""
    ops = {op["id"]: op for op in plan["ops"]}
    refs = {key: oracle.Reference(g) for key, g in refs.items()}
    verdicts: dict[tuple, list[str]] = {}
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        for rec in p["ops"]:
            attempted += 1
            if rec["error"] is not None:
                found = [rec["error"]]
            else:
                key = (rec["id"], tuple(sorted(rec["artifacts"].items())))
                if key not in verdicts:
                    verdicts[key] = check_op(ops[rec["id"]], rec["artifacts"], refs, keep)
                found = verdicts[key]
            if found:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"{rec['id']}{' (traced)' if p['traced'] else ''}: {'; '.join(found)}")
    return attempted, failed, problems


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond): the highest percentile at or above the
    median with at least TAIL_BEYOND ops above it, or the maximum when no
    such percentile exists (fewer than 2 * TAIL_BEYOND + 1 ops)."""
    v = sorted(values)
    k = len(v) - TAIL_BEYOND - 1
    if k < len(v) // 2:
        return v[-1], 100.0, 0
    return v[k], 100.0 * (k + 1) / len(v), TAIL_BEYOND


def end_to_end(passes: list[dict], setups: list[float], maxrss_kb: int, kernels: list[str]) -> tuple[dict, dict]:
    """Metrics of the untraced passes.

    An op's latency is its fastest repetition in the run, and the batch time
    is the sum of those: load from other processes on the machine only adds
    time, and on a shared machine the fastest repetition moves far less
    between runs than the median repetition does.  Summing per-op minima
    rather than taking the fastest whole pass lets each op find its own
    quiet moment, which a pass of many ops seldom gets in one piece.

    A whole run can fall in a slow period with no quiet moment to find, so
    the op times are also scaled by the host speed the run saw:
    the reference kernels' fastest repetition (timed after every pass)
    against their nominal time, REFERENCE_NOMINAL_S.  The raw values are in
    the notes (see README.md).
    """
    untraced = [p for p in passes if not p["traced"]]
    by_op: dict[str, list[float]] = {}
    for p in untraced:
        for rec in p["ops"]:
            by_op.setdefault(rec["id"], []).append(rec["latency"])
    reference = min(p["reference"] for p in untraced)
    scale = sum(REFERENCE_NOMINAL_S[k] for k in kernels) / reference
    raw = [min(v) for v in by_op.values()]
    per_op = [t * scale for t in raw]
    tail_ms, pct, beyond = tail(per_op)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * tail_ms,
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    notes = {"setup_samples": setups, "passes": len(untraced), "ops_per_pass": len(per_op),
             "op_tail_percentile": pct, "op_tail_ops_beyond": beyond,
             "reference_kernels": kernels, "reference_s": reference, "host_scale": scale,
             "raw_wall_s": sum(raw), "raw_op_p50_ms": 1e3 * statistics.median(raw),
             "raw_op_tail_ms": 1e3 * tail(raw)[0], "fastest_pass_s": min(p["wall"] for p in untraced)}
    return values, notes


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    values = dict.fromkeys(per_layer_units(), 0.0)
    counts: dict[str, float] = {}
    for p in traced:
        for (name, *_), own in zip(p["spans"], self_times(p["spans"])):
            if name.startswith("op:"):
                values["op.unattributed_s"] += own
            elif name in LAYER_SPANS:
                values[name + "_s"] += own
                values[name + "_calls"] += 1
        for key, v in p["counts"].items():
            counts[key] = counts.get(key, 0) + v
    for key in values:
        values[key] /= len(traced)
    for key in LAYER_COUNTS:
        values[key] = counts.get(key, 0) / len(traced)
    values["dynamics.rw_converged"] = counts.get("dynamics.rw_converged", 0) / max(counts.get("dynamics.rw_runs", 0), 1)
    values["trace.wall_s"] = min(p["wall"] for p in traced)
    values["trace.untraced_wall_s"] = min(p["wall"] for p in passes if not p["traced"])
    values["trace.wall_gap_s"] = values["trace.untraced_wall_s"] - values["trace.wall_s"]
    return values


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(args) -> int:
    if not (ROOT / "src" / "signednet" / "__init__.py").is_file():
        print(f"error: no signednet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plan, refs = build_plan(args.workload, args.seed, workdir)
        (workdir / "plan.json").write_text(json.dumps(plan))
        setups = []
        if not args.trace:
            for _ in range(SETUP_LAUNCHES - 1):
                setup, proc = launch(workdir, ["--probe"], deadline)
                finish(proc, deadline)
                setups.append(setup)
        setup, proc = launch(workdir, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        setups.append(setup)
        finish(proc, deadline - CHECK_RESERVE_S)
        result = json.loads((workdir / "result.json").read_text())
        attempted, failed, problems = check_passes(plan, result["passes"], refs, workdir / "keep")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, units, notes = per_layer(result["passes"]), per_layer_units(), {}
        notes["label"] = "trace.wall_gap_s = untraced minus traced pass time: CLI glue minus tracing overhead"
    else:
        metrics, notes = end_to_end(result["passes"], setups, result["maxrss_kb"], plan["reference"])
        units = END_TO_END
    error_rate = failed / attempted
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    print(f"  {'error_rate':34s} {error_rate:.6g} share ({failed} of {attempted} ops)")
    for line in problems:
        print(f"  FAILED {line}")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "error_rate": error_rate, "problems": problems, **notes, "environment": environment()}
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    # on SIGTERM, unwind so the worker is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
