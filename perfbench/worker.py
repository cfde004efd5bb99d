"""Runs one workload's op batch in a fresh process and records timings.

Launched by ``run.py`` with the work directory as its cwd::

    python3 worker.py PLAN_JSON SRC_DIR --probe
    python3 worker.py PLAN_JSON SRC_DIR --seconds S --trace 0|1

It imports signednet from SRC_DIR, runs the plan's warm-up op and prints
``ready`` on stdout; the parent times launch-to-ready as set-up.  A probe
exits there.  Otherwise it repeats the batch until the next pass would end
after S seconds (at least one pass; with tracing, untraced and traced passes
alternate and at least one of each runs), timing the plan's reference
kernels after every pass, then writes ``result.json``.

An untraced op is exactly what a user runs: ``signednet.cli.main(argv)``, or
for ``corpus`` ops the library calls the ``classify --frustration`` handler
makes.  A traced op replays the same public calls with one span per call
under an op span; spans stay in memory until the pass ends.  Outputs are
stored content-addressed under ``keep/`` so the parent can check every
distinct output after the run.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402


class OpFailed(Exception):
    pass


class Tracer:
    """In-memory spans ``[name, parent, start, end, extra]`` plus counters.

    ``extra`` marks spans around calls the replay adds only to measure a
    layer (a second ``build_graph``); their time is removed from op latency
    and pass wall time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.extra_s = 0.0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, extra: bool = False):
        k = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else -1, 0.0, 0.0, extra])
        self._open.append(k)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[k][2:4] = [start, end]
            if extra:
                self.extra_s += end - start

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def cli_argv(op: dict) -> list[str]:
    a, cmd = op["args"], op["cmd"]
    if cmd in ("classify", "measure"):
        argv = [cmd, "--input", a["input"], "--output", a["output"]]
        return argv + (["--frustration", a["frustration"]] if "frustration" in a else [])
    if cmd == "generate":
        return [cmd, a["kind"], "--config", a["config"], "--output", a["output"]]
    return [cmd, a["model"], "--input", a["input"], "--config", a["config"], "--output", a["output"],
            "--seed", str(a["seed"]), "--format", a["format"]]


class Runner:
    """Executes ops untraced (CLI / library) or traced (replayed calls)."""

    def __init__(self):
        from signednet import balance, cli, core, dynamics, generate, spectral
        from signednet import io as sio
        from signednet.errors import BipartiteUnsupportedError

        self.bipartite_unsupported = BipartiteUnsupportedError
        self.cli, self.sio, self.core, self.balance = cli, sio, core, balance
        self.spectral, self.dynamics, self.generate = spectral, dynamics, generate
        self.texts: dict[str, str] = {}

    def run(self, op: dict, tracer=None):
        """Run one op; returns its stdout text or, for corpus ops, its result doc."""
        if op["cmd"] == "corpus":
            text = self.texts.get(op["id"]) or Path(op["args"]["input"]).read_text()
            if tracer is None:
                return self._corpus_plain(text)
            with tracer.span("op:" + op["id"]):
                return self._corpus(tracer, text)
        if tracer is None:
            return self._main(cli_argv(op))
        with tracer.span("op:" + op["id"]):
            return getattr(self, "_" + op["cmd"])(tracer, op["args"])

    def _main(self, argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        if rc != 0:
            raise OpFailed(f"exit code {rc}: {err.getvalue().strip()[-500:]}")
        return out.getvalue()

    # -- replayed layers ----------------------------------------------------

    def _parse(self, tr, load, source):
        with tr.span("io.parse"):
            G = load(source)
        tr.count("io.parse_edges", G.num_edges)
        with tr.span("core.build", extra=True):
            self.core.build_graph(G.n, G.edges, labels=G.labels)
        with tr.span("core.weight_matrix"):
            G.weight_matrix
        return G

    def _write(self, tr, path: str, write) -> None:
        with tr.span("io.write"):
            write()
        tr.count("io.write_bytes", os.path.getsize(path))

    def _frustration(self, tr, G, target: str):
        mode = "exact" if G.num_edges <= self.balance.EXACT_FRUSTRATION_EDGE_CAP else "heuristic"
        with tr.span(f"balance.frustration_{mode}"):
            report = self.balance.frustration(G, target, mode=mode)
        tr.count("balance.flip_count", report.flip_count)
        return report

    def _corpus_plain(self, text: str):
        """The calls the ``classify --frustration balanced`` handler makes."""
        b = self.balance
        G = self.sio.parse_edge_list(text)
        c = b.classify(G)
        bm = self.spectral.balance_measures(G)
        mode = "exact" if G.num_edges <= b.EXACT_FRUSTRATION_EDGE_CAP else "heuristic"
        return c, bm, b.frustration(G, "balanced", mode=mode)

    def _corpus(self, tr, text: str):
        G = self._parse(tr, self.sio.parse_edge_list, text)
        with tr.span("balance.classify"):
            c = self.balance.classify(G)
        with tr.span("spectral.measures"):
            bm = self.spectral.balance_measures(G)
        return c, bm, self._frustration(tr, G, "balanced")

    def corpus_doc(self, result) -> dict:
        c, bm, fr = result
        doc = self.sio.classification_to_json(c, bm)
        doc.update(rho_signed=bm.spectral_radius_signed, rho_unsigned=bm.spectral_radius_unsigned,
                   frustration=self.sio.frustration_to_json(fr))
        return doc

    def _classify(self, tr, a) -> str:
        G = self._parse(tr, self.sio.load_graph, a["input"])
        with tr.span("balance.classify"):
            c = self.balance.classify(G)
        with tr.span("spectral.measures"):
            bm = self.spectral.balance_measures(G)
        doc = self.sio.classification_to_json(c, bm)
        if G.labels:
            doc["labels"] = list(G.labels)
        if a.get("frustration"):
            doc["frustration"] = self.sio.frustration_to_json(self._frustration(tr, G, a["frustration"]))
        self._write(tr, a["output"], lambda: self.sio.dump_json(doc, a["output"]))
        return ""

    def _measure(self, tr, a) -> str:
        G = self._parse(tr, self.sio.load_graph, a["input"])
        with tr.span("spectral.measures"):
            bm = self.spectral.balance_measures(G)
        with tr.span("balance.classify"):
            verdict = self.balance.classify(G).verdict
        doc = self.sio.measures_to_json(bm, verdict)
        self._write(tr, a["output"], lambda: self.sio.dump_json(doc, a["output"]))
        return ""

    def _generate(self, tr, a) -> str:
        gen, kind = self.generate, a["kind"]
        config = json.loads(Path(a["config"]).read_text())
        with tr.span(f"generate.{kind}"):
            if kind == "ssbm":
                G = gen.ssbm(gen.SSBMParams(**config))
            elif kind == "lattice":
                plan = gen.sign_plan_from_json(config.pop("sign_plan"))
                G = gen.ring_lattice(gen.LatticeParams(sign_plan=plan, **config))
            else:
                G = gen.random_signed_tree(**config)
        tr.count("generate.edges", G.num_edges)
        header = f"{kind} {json.dumps(config, sort_keys=True)}"
        self._write(tr, a["output"], lambda: self.sio.write_edge_list(G, a["output"], header=header))
        return ""

    def _simulate(self, tr, a) -> str:
        dyn, sio, model = self.dynamics, self.sio, a["model"]
        G = self._parse(tr, sio.load_graph, a["input"])
        config = json.loads(Path(a["config"]).read_text())
        horizon = int(config.get("horizon", 50))
        l0 = float(config.get("l0", 1.0))
        x0 = self.cli.initial_state(config.get("init", "uniform"), G, l0, a["seed"])
        summary: dict = {"model": model, "horizon": horizon}
        with tr.span("dynamics.simulate"):
            if model == "linear":
                traj = dyn.linear_adjacency_simulate(G, x0, horizon)
            elif model == "rw":
                traj = dyn.simulate_walk_until_stationary(G, x0, max_steps=horizon)
            else:
                cfg = dyn.ELTConfig(theta_l=float(config.get("theta_l", 1.0)), alpha=float(config.get("alpha", 1.0)),
                                    l0=l0, horizon=horizon, general_thresholds=config.get("general_thresholds"))
                traj, acts = dyn.elt_simulate(G, x0, cfg)
        tr.count("dynamics.steps", traj.horizon)
        if model == "rw":
            tr.count("dynamics.rw_runs")
            tr.count("dynamics.rw_converged", traj.horizon < horizon)
            summary["realized_final_state"] = [float(v) for v in traj.final]
            summary["steps_run"] = traj.horizon
            try:
                with tr.span("dynamics.predict"):
                    pred = dyn.predict_stationary(G, x0)
                summary["stationary_prediction"] = {
                    "kind": pred.kind.value, "vectors": [[float(v) for v in vec] for vec in pred.vectors]}
            except self.bipartite_unsupported as exc:
                summary["stationary_prediction"] = {"kind": "unsupported", "reason": str(exc)}
        elif model == "elt":
            summary["activation_sets"] = sio.activation_sets_to_json(acts)
        if a["format"] == "json":
            doc = {"states": [[float(v) for v in row] for row in traj.states], **summary}
            self._write(tr, a["output"], lambda: sio.dump_json(doc, a["output"]))
        else:
            self._write(tr, a["output"], lambda: sio.write_trajectory_csv(traj.states, a["output"]))
        with tr.span("io.write"):
            text = sio.dump_json(summary) + "\n"
        tr.count("io.write_bytes", len(text.encode()))
        return text


# ---------------------------------------------------------------------------
# host-speed reference
# ---------------------------------------------------------------------------

class Reference:
    """Fixed kernels that never call signednet, timed after every pass.

    Each kernel is one kind of work the workloads do, at the size they do
    it: ``python`` parses and formats text in the interpreter, ``lapack``
    runs a symmetric eigendecomposition of ``measure-large``'s matrix size
    and ``vector`` runs steps of the exact frustration search (shift, xor,
    add) over an array larger than the CPU's second-level cache.  A
    workload's plan names the kernels that match its own work; their time
    tracks how fast the shared machine runs that kind of work at the moment,
    and ``run.py`` scales the op times by it.
    """

    def __init__(self, kinds: list[str]):
        import numpy as np

        # inputs only for the named kernels, so that unused ones add nothing to peak memory
        rng = np.random.default_rng(0)
        self.np = np
        if "python" in kinds:
            self.lines = [f"{a} {b} {w!r}" for a, b, w in zip(rng.integers(0, 999, 1000).tolist(),
                                                                 rng.integers(0, 999, 1000).tolist(),
                                                                 rng.random(1000).tolist())]
        if "lapack" in kinds:
            m = rng.standard_normal((500, 500))
            self.sym = m + m.T
        self.kernels = [getattr(self, "_" + kind) for kind in kinds]

    def __call__(self) -> float:
        t0 = perf_counter()
        for kernel in self.kernels:
            kernel()
        return perf_counter() - t0

    def _python(self):
        edges = []
        for line in self.lines:
            a, b, w = line.split()
            edges.append((int(a), int(b), float(w)))
        return "".join(f"{k},{a},{w!r}\n" for k, (a, _, w) in enumerate(edges))

    def _lapack(self):
        return self.np.linalg.eigh(self.sym)

    def _vector(self):
        np = self.np
        bits = np.arange(1 << 20, dtype=np.uint32)  # made per call, so it is not held between passes
        counts = np.zeros(bits.shape[0], dtype=np.uint16)
        for shift in range(1, 3):
            counts += (((bits >> np.uint32(shift)) ^ (bits >> np.uint32(shift - 1))) & 1).astype(np.uint16)
        return int(np.argmin(counts))


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _keep(data: bytes) -> str:
    """Store an output under keep/<sha256> (once) and return the digest."""
    digest = hashlib.sha256(data).hexdigest()
    path = Path("keep") / digest
    if not path.exists():
        path.write_bytes(data)
    return digest


def run_pass(runner: Runner, ops: list[dict], traced: bool) -> dict:
    tracer = Tracer() if traced else None
    done = []
    start = perf_counter()
    for op in ops:
        if op["cmd"] != "corpus":
            Path(op["args"]["output"]).unlink(missing_ok=True)  # a stale file must not pass for output
        t0 = perf_counter()
        extra0 = tracer.extra_s if tracer else 0.0
        try:
            payload, error = runner.run(op, tracer), None
        except Exception as exc:  # an op failure is recorded, the batch goes on
            payload, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0 - ((tracer.extra_s - extra0) if tracer else 0.0)
        done.append((op, latency, payload, error))
    wall = perf_counter() - start - (tracer.extra_s if tracer else 0.0)

    records = []
    for op, latency, payload, error in done:
        artifacts = {}
        if error is None and op["cmd"] == "corpus":
            artifacts["result"] = _keep(json.dumps(runner.corpus_doc(payload)).encode())
        elif error is None:
            try:
                artifacts["output"] = _keep(Path(op["args"]["output"]).read_bytes())
                artifacts["stdout"] = _keep(payload.encode())
            except FileNotFoundError:
                error = "op wrote no output file"
        records.append({"id": op["id"], "latency": latency, "error": error, "artifacts": artifacts})
    rec = {"traced": traced, "wall": wall, "ops": records}
    if tracer:
        rec["spans"] = [[name, parent, s - start, e - start, extra] for name, parent, s, e, extra in tracer.spans]
        rec["counts"] = tracer.counts
    return rec


def run_passes(runner: Runner, ops: list[dict], reference: Reference, seconds: float, trace: bool) -> list[dict]:
    kinds = (False, True) if trace else (False,)
    reference()
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(runner, ops, kinds[len(passes) % len(kinds)]))
        passes[-1]["reference"] = reference()
        elapsed = perf_counter() - start
        if len(passes) >= len(kinds) and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("src")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    plan = json.loads(Path(args.plan).read_text())

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import signednet

    if not Path(signednet.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"signednet was imported from {signednet.__file__}, not from {src}")
    runner = Runner()
    runner.run(plan["warmup"])
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.probe:
        return 0

    Path("keep").mkdir(exist_ok=True)
    for op in plan["ops"]:
        if op["cmd"] == "corpus":
            runner.texts[op["id"]] = Path(op["args"]["input"]).read_text()
    passes = run_passes(runner, plan["ops"], Reference(plan["reference"]), args.seconds, bool(args.trace))
    result = {"passes": passes, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
