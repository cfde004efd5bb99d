"""Seeded inputs and op batches for the four workloads.

Inputs come from numpy's ``default_rng`` keyed by (seed, workload, item) and
never from ``signednet.generate``, so a change to a library generator leaves
every other op's inputs unchanged, and one seed gives byte-identical files on
any commit.  Sizes, op lists and graph shapes are fixed per workload; the
seed only changes which random graph of that shape is drawn, so the cost of
a batch does not depend on the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from oracle import Graph, signing

WORKLOADS = ("measure-large", "corpus-small", "generate-simulate", "frustration-exact")

#: the worker's reference kernels that match each workload's dominant work (see worker.Reference)
REFERENCE_KERNELS = {
    "measure-large": ["lapack"],
    "corpus-small": ["python"],
    "generate-simulate": ["python"],
    "frustration-exact": ["vector"],
}
CORPUS_SIZE = 200
NEAR_TREE_SCHEDULE = ((22, 0), (21, 2), (20, 3), (20, 1), (19, 3), (19, 2))  # (n, extra edges)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _graph(n: int, pairs: np.ndarray, w: np.ndarray) -> Graph:
    i, j = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    order = np.lexsort((j, i))
    return Graph(n, i[order].astype(np.int64), j[order].astype(np.int64), np.asarray(w, dtype=float)[order])


def _connected(n: int, pairs: np.ndarray) -> bool:
    g = Graph(n, pairs[:, 0], pairs[:, 1], np.ones(len(pairs)))
    return signing(g, np.ones(len(pairs), dtype=np.int64), check=False) is not None


def ssbm(rng, n: int, n1: int, deg_in: float, deg_out: float, eta: float, alpha: float) -> Graph:
    """Two-block signed SBM with |w| = alpha, redrawn until connected."""
    iu, ju = np.triu_indices(n, 1)
    same = (iu < n1) == (ju < n1)
    p = np.where(same, deg_in / (n / 2), deg_out / (n / 2))
    while True:
        keep = rng.random(iu.size) < p
        pairs = np.stack([iu[keep], ju[keep]], axis=1)
        if _connected(n, pairs):
            break
    sign = np.where(same[keep], 1.0, -1.0)
    sign[rng.random(sign.size) < eta] *= -1
    return _graph(n, pairs, alpha * sign)


def _tree_pairs(rng, n: int) -> list[tuple[int, int]]:
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    return list(zip(parents.tolist(), range(1, n)))


def _add_random_pairs(rng, n: int, pairs: list, count: int) -> np.ndarray:
    seen = {(min(a, b), max(a, b)) for a, b in pairs}
    while count:
        a, b = rng.integers(0, n, size=2).tolist()
        if a != b and (min(a, b), max(a, b)) not in seen:
            seen.add((min(a, b), max(a, b)))
            pairs.append((a, b))
            count -= 1
    return np.array(pairs, dtype=np.int64)


def near_tree(rng, n: int, extra: int) -> Graph:
    """Random recursive tree plus ``extra`` edges; |w| in [0.1, 1], random signs."""
    pairs = _add_random_pairs(rng, n, _tree_pairs(rng, n), extra)
    w = rng.uniform(0.1, 1.0, len(pairs)) * rng.choice([-1.0, 1.0], len(pairs))
    return _graph(n, pairs, w)


def planted_signs(rng, g: Graph, model: str) -> Graph:
    """Re-sign a graph: balanced or antibalanced around a random bipartition,
    balanced with 10 % of signs flipped, or uniformly random."""
    s = rng.choice([-1.0, 1.0], g.n)
    sign = s[g.i] * s[g.j]
    if model == "antibalanced":
        sign = -sign
    elif model == "noisy":
        flip = rng.random(g.m) < 0.1
        flip[rng.integers(g.m)] = True
        sign[flip] *= -1
    elif model == "random":
        sign = rng.choice([-1.0, 1.0], g.m)
    return Graph(g.n, g.i, g.j, np.abs(g.w) * sign)


def ring_lattice(rng, n: int, dbar: int, alpha: float, block: int = 0, flips: int = 0) -> Graph:
    """Circulant ring lattice; balanced over blocks of ``block`` nodes (all
    positive when 0), then ``flips`` random edge signs flipped."""
    half = dbar // 2
    a = np.repeat(np.arange(n), half)
    b = (a + np.tile(np.arange(1, half + 1), n)) % n
    g = _graph(n, np.stack([a, b], axis=1), np.full(a.size, alpha))
    s = np.where((np.arange(n) // block) % 2 == 0, 1.0, -1.0) if block else np.ones(n)
    w = alpha * s[g.i] * s[g.j]
    w[rng.choice(g.m, size=flips, replace=False)] *= -1
    return Graph(n, g.i, g.j, w)


# ---------------------------------------------------------------------------
# op batches
# ---------------------------------------------------------------------------

class PlanBuilder:
    """Collects input files, reference graphs and ops for one workload run."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.graphs: dict[str, Graph] = {}
        self.ops: list[dict] = []
        for sub in ("in", "out"):
            (workdir / sub).mkdir(parents=True, exist_ok=True)

    def graph(self, key: str, g: Graph) -> str:
        self.graphs[key] = g
        path = f"in/{key}.edges"
        (self.workdir / path).write_text(g.edge_text())
        return path

    def config(self, name: str, doc: dict) -> str:
        path = f"in/{name}.json"
        (self.workdir / path).write_text(json.dumps(doc, sort_keys=True) + "\n")
        return path

    def classify(self, key: str, target=None, exact=False, suffix="") -> dict:
        args = {"input": f"in/{key}.edges", "output": f"out/{key}{suffix}.classify.json"}
        if target:
            args["frustration"] = target
        return {"id": f"{key}{suffix}.classify", "cmd": "classify", "args": args, "graph": key, "exact": exact}

    def measure(self, key: str) -> dict:
        args = {"input": f"in/{key}.edges", "output": f"out/{key}.measure.json"}
        return {"id": f"{key}.measure", "cmd": "measure", "args": args, "graph": key}

    def generate(self, kind: str, config: dict, name: str) -> dict:
        args = {"kind": kind, "config": self.config(name, config), "output": f"out/{name}.edges"}
        return {"id": name, "cmd": "generate", "args": args, "config": config}

    def simulate(self, name: str, model: str, key: str, config: dict, seed: int, fmt: str = "csv") -> dict:
        args = {"model": model, "input": f"in/{key}.edges", "config": self.config(name, config),
                "output": f"out/{name}.{fmt}", "seed": seed, "format": fmt}
        return {"id": name, "cmd": "simulate", "args": args, "graph": key, "config": config}


def _measure_large(b: PlanBuilder, seed: int) -> dict:
    for k, eta in enumerate((0.0, 0.05, 1.0)):
        key = f"ssbm-eta{eta:g}"
        b.graph(key, ssbm(_rng(seed, 0, k), 500, 250, 10.0, 2.0, eta, 0.1))
        b.ops += [b.measure(key), b.classify(key, "balanced")]
    b.graph("warm", ssbm(_rng(seed, 0, 99), 60, 30, 6.0, 2.0, 0.05, 0.1))
    return b.measure("warm")


def _corpus_small(b: PlanBuilder, seed: int) -> dict:
    models = ("balanced", "antibalanced", "noisy", "random")
    for k in range(CORPUS_SIZE + 1):
        rng = _rng(seed, 1, k)
        if k % 5 in (0, 2):
            g = near_tree(rng, 8 + (k * 7) % 11, k % 4)
        else:
            n = 20 + (k * 13) % 41
            pairs = _add_random_pairs(rng, n, _tree_pairs(rng, n), 2 * n + 1)
            g = _graph(n, pairs, rng.uniform(0.1, 1.0, len(pairs)))
        key = "warm" if k == CORPUS_SIZE else f"c{k:03d}"
        path = b.graph(key, planted_signs(rng, g, models[(3 * k) % 4]))
        op = {"id": key, "cmd": "corpus", "args": {"input": path}, "graph": key}
        if key != "warm":
            b.ops.append(op)
    return op


def _generate_simulate(b: PlanBuilder, seed: int) -> dict:
    n = 500  # small enough that a run repeats every op about 35 times
    b.ops += [
        # mean degree about 20, so a redraw for connectivity (which doubles the op's cost) is rare
        b.generate("ssbm", {"n1": n // 2, "n2": n // 2, "p_in": 32 / n, "p_out": 8 / n,
                            "eta": 0.05, "alpha": 0.1, "seed": seed}, "gen-ssbm"),
        b.generate("lattice", {"n": n, "dbar": 10, "alpha": 0.1,
                               "sign_plan": {"kind": "flip_k", "k": 40, "seed": seed, "base_rule": "all"}},
                   "gen-lattice"),
        b.generate("tree", {"n": n, "sign_prob": 0.3, "seed": seed, "alpha": 1.0}, "gen-tree"),
    ]
    b.graph("ssbm", ssbm(_rng(seed, 2, 0), n, n // 2, 16.0, 4.0, 0.0, 0.1))  # degree 20: rw stops after ~30 steps at any seed
    b.graph("ring", ring_lattice(_rng(seed, 2, 1), n, 10, 0.1, block=100))
    b.graph("tree", near_tree(_rng(seed, 2, 2), n, 0))
    b.graph("flipring", ring_lattice(_rng(seed, 2, 3), n, 10, 0.1, flips=40))
    center = int(_rng(seed, 2, 4).integers(n))
    b.ops += [
        b.simulate("rw-ssbm", "rw", "ssbm", {"horizon": 400, "l0": 1.0 / n, "init": "bipartition"}, seed),
        b.simulate("rw-ring", "rw", "ring", {"horizon": 200, "l0": 1.0, "init": "node:0=1"}, seed),
        b.simulate("linear-tree", "linear", "tree", {"horizon": 50, "l0": 1.0, "init": "uniform"}, seed),
        b.simulate("elt-flipring", "elt", "flipring", {"horizon": 60, "l0": 1.0, "theta_l": 2.5, "alpha": 0.1,
                                                       "init": f"neighbourhood:{center}"}, seed),
        b.simulate("elt-ssbm", "elt", "ssbm", {"horizon": 20, "l0": 1.0, "theta_l": 1.5, "alpha": 0.1,
                                               "init": "uniform"}, seed, fmt="json"),
    ]
    return b.generate("tree", {"n": 30, "sign_prob": 0.3, "seed": seed, "alpha": 1.0}, "warm")


def _frustration_exact(b: PlanBuilder, seed: int) -> dict:
    for k, (n, extra) in enumerate(NEAR_TREE_SCHEDULE):
        key = f"near{n}-{extra}"
        b.graph(key, near_tree(_rng(seed, 3, k), n, extra))
        b.ops += [b.classify(key, "balanced", exact=True, suffix="-b"),
                  b.classify(key, "antibalanced", exact=True, suffix="-a")]
    b.graph("warm", near_tree(_rng(seed, 3, 99), 10, 2))
    return b.classify("warm", "balanced", exact=True)


_BUILDERS = {
    "measure-large": _measure_large,
    "corpus-small": _corpus_small,
    "generate-simulate": _generate_simulate,
    "frustration-exact": _frustration_exact,
}


def build_plan(workload: str, seed: int, workdir: Path) -> tuple[dict, dict[str, Graph]]:
    """Write the workload's inputs under ``workdir``; return (plan, reference graphs).

    The plan lists the timed ops in batch order plus one small warm-up op of
    the same kind; every path in it is relative to ``workdir``.
    """
    b = PlanBuilder(workdir)
    warmup = _BUILDERS[workload](b, seed)
    plan = {"workload": workload, "seed": seed, "ops": b.ops, "warmup": warmup,
            "reference": REFERENCE_KERNELS[workload]}
    return plan, b.graphs
