"""Reference answers and output checks that never import signednet.

Every check returns a list of problem strings; an empty list means the output
is correct.  The references are deliberately plain: a parity BFS for
balance certificates, ``numpy.linalg.eigvalsh`` on dense matrices built here
for the spectral measures, an edge-subset search for exact frustration, and
step-by-step recomputation of trajectories from the benchmark's own W.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPECTRAL_TOL = 1e-8
STATIONARY_TOL = 1e-6
STEP_RTOL = 1e-9
RW_STOP_TOL = 1e-10
MAX_SUBSET_CYCLES = 3


@dataclass(frozen=True)
class Graph:
    """Undirected signed graph as parallel edge arrays with i < j."""

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    @property
    def m(self) -> int:
        return int(self.i.size)

    @property
    def cyclomatic(self) -> int:
        return self.m - self.n + 1

    def weight_matrix(self) -> np.ndarray:
        W = np.zeros((self.n, self.n))
        W[self.i, self.j] = self.w
        W[self.j, self.i] = self.w
        return W

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n)
        np.add.at(d, self.i, np.abs(self.w))
        np.add.at(d, self.j, np.abs(self.w))
        return d

    def edge_text(self) -> str:
        lines = [f"n {self.n}"]
        lines += [f"{a} {b} {x!r}" for a, b, x in zip(self.i.tolist(), self.j.tolist(), self.w.tolist())]
        return "\n".join(lines) + "\n"


def parse_edge_text(text: str) -> Graph:
    """Parse the integer-id edge-list format; raises ValueError on bad input."""
    n = None
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None and len(parts) == 2 and parts[0] == "n":
            n = int(parts[1])
            continue
        if len(parts) != 3:
            raise ValueError(f"bad edge line {line!r}")
        rows.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if n is None:
        raise ValueError("missing 'n' line")
    a = np.array([r[0] for r in rows], dtype=np.int64)
    b = np.array([r[1] for r in rows], dtype=np.int64)
    w = np.array([r[2] for r in rows], dtype=float)
    return Graph(n, np.minimum(a, b), np.maximum(a, b), w)


def structure_problems(g: Graph) -> list[str]:
    """Ids in range, no self-loops or duplicates, finite nonzero weights, connected."""
    out = []
    if g.m and (g.i.min() < 0 or g.j.max() >= g.n):
        out.append("node id out of range")
    if np.any(g.i == g.j):
        out.append("self-loop")
    if np.unique(g.i * g.n + g.j).size != g.m:
        out.append("duplicate edge")
    if not np.all(np.isfinite(g.w)) or np.any(g.w == 0):
        out.append("non-finite or zero weight")
    if not out and signing(g, np.ones(g.m, dtype=np.int64), check=False) is None:
        out.append("graph is disconnected")
    return out


# ---------------------------------------------------------------------------
# balance: parity BFS
# ---------------------------------------------------------------------------

def signing(g: Graph, want: np.ndarray, check: bool = True):
    """Node signs with s_i * s_j == want_e on every edge, or None.

    BFS from node 0 fixes s along a spanning tree; every edge is then checked
    (skipped with ``check=False``, which only tests connectivity).  Returns
    None when the graph is disconnected or some edge refutes the signing.
    """
    src = np.concatenate([g.i, g.j])
    dst = np.concatenate([g.j, g.i]).tolist()
    sgn = np.concatenate([want, want]).tolist()
    order = np.argsort(src, kind="stable").tolist()
    ptr = np.searchsorted(np.sort(src), np.arange(g.n + 1)).tolist()
    s = [0] * g.n
    s[0] = 1
    queue = [0]
    for u in queue:
        for k in range(ptr[u], ptr[u + 1]):
            e = order[k]
            v = dst[e]
            if s[v] == 0:
                s[v] = s[u] * sgn[e]
                queue.append(v)
    if len(queue) != g.n:
        return None
    s = np.array(s, dtype=np.int64)
    if check and not np.array_equal(s[g.i] * s[g.j], want):
        return None
    return s


def certificates(g: Graph) -> tuple[str, object, object]:
    """(verdict, balance certificate, antibalance certificate); None when absent."""
    sign = np.sign(g.w).astype(np.int64)
    s_b = signing(g, sign)
    s_a = signing(g, -sign)
    if s_b is not None and s_a is not None:
        verdict = "both"
    elif s_b is not None:
        verdict = "balanced"
    elif s_a is not None:
        verdict = "antibalanced"
    else:
        verdict = "strictly_unbalanced"
    return verdict, s_b, s_a


def min_flips(g: Graph, target: str) -> int:
    """Frustration index by searching edge subsets of size 0..cyclomatic number.

    Flipping one edge per unbalanced fundamental cycle always restores the
    target, so the minimum is at most the cyclomatic number; the search is
    only run where that is at most 3.
    """
    c = g.cyclomatic
    if c > MAX_SUBSET_CYCLES:
        raise ValueError(f"cyclomatic number {c} exceeds {MAX_SUBSET_CYCLES}")
    want = np.sign(g.w).astype(np.int64) * (1 if target == "balanced" else -1)
    for size in range(c + 1):
        for subset in itertools.combinations(range(g.m), size):
            flipped = want.copy()
            flipped[list(subset)] *= -1
            if signing(g, flipped) is not None:
                return size
    raise AssertionError("unreachable: flipping non-tree edges always balances")


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def spectral(g: Graph) -> dict:
    """d_b, d_a and both spectral radii from eigvalsh on matrices built here."""
    W = g.weight_matrix()
    inv = 1.0 / np.sqrt(g.degrees())
    p = np.linalg.eigvalsh(W * inv[:, None] * inv[None, :])
    return {
        "d_b": float(1.0 - p[-1]),
        "d_a": float(1.0 + p[0]),
        "rho_signed": float(np.max(np.abs(np.linalg.eigvalsh(W)))),
        "rho_unsigned": float(np.linalg.eigvalsh(np.abs(W))[-1]),
    }


class Reference:
    """Lazily computed reference answers for one input graph."""

    def __init__(self, g: Graph):
        self.g = g
        self._min: dict[str, int] = {}

    @cached_property
    def cert(self) -> tuple[str, object, object]:
        return certificates(self.g)

    @cached_property
    def spec(self) -> dict:
        return spectral(self.g)

    def min_flips(self, target: str) -> int:
        if target not in self._min:
            self._min[target] = min_flips(self.g, target)
        return self._min[target]


# ---------------------------------------------------------------------------
# checks of analysis outputs
# ---------------------------------------------------------------------------

def _same_up_to_sign(reported, expected) -> bool:
    if reported is None or expected is None:
        return reported is None and expected is None
    r = np.asarray(reported)
    return bool(np.array_equal(r, expected) or np.array_equal(r, -expected))


def verdict_problems(doc: dict, ref: Reference) -> list[str]:
    verdict, s_b, s_a = ref.cert
    out = []
    if doc.get("verdict") != verdict:
        out.append(f"verdict {doc.get('verdict')!r}, expected {verdict!r}")
    if "balanced_partition" in doc and not _same_up_to_sign(doc["balanced_partition"], s_b):
        out.append("balance certificate differs from parity BFS")
    if "antibalanced_partition" in doc and not _same_up_to_sign(doc["antibalanced_partition"], s_a):
        out.append("antibalance certificate differs from parity BFS")
    return out


def spectral_problems(doc: dict, ref: Reference) -> list[str]:
    out = []
    for key, value in ref.spec.items():
        if key in doc and not abs(float(doc[key]) - value) <= SPECTRAL_TOL:
            out.append(f"{key}={doc[key]!r}, expected {value!r}")
    if "contraction" in doc and not abs(doc["contraction"] - (doc["rho_unsigned"] - doc["rho_signed"])) <= SPECTRAL_TOL:
        out.append("contraction is not rho_unsigned - rho_signed")
    return out


def frustration_problems(fr: dict, ref: Reference, target: str, require_exact: bool) -> list[str]:
    """The flip set must exist, restore the target and match the count; exact
    reports must be minimal."""
    g = ref.g
    out = []
    if fr.get("target") != target:
        out.append(f"target {fr.get('target')!r}, expected {target!r}")
    flips = fr.get("flip_set", [])
    if fr.get("flip_count") != len(flips):
        out.append(f"flip_count {fr.get('flip_count')} != len(flip_set) {len(flips)}")
    index = {(a, b): k for k, (a, b) in enumerate(zip(g.i.tolist(), g.j.tolist()))}
    want = np.sign(g.w).astype(np.int64) * (1 if target == "balanced" else -1)
    weight = 0.0
    for a, b, w in flips:
        k = index.get((min(a, b), max(a, b)))
        if k is None or float(w) != float(g.w[k]):
            out.append(f"flip edge ({a}, {b}, {w}) is not an edge of the input")
            return out
        want[k] *= -1
        weight += abs(float(g.w[k]))
    if signing(g, want) is None:
        out.append(f"flipping the reported set does not make the graph {target}")
    if not abs(fr.get("flipped_weight", 0.0) - weight) <= 1e-9 * max(1.0, weight):
        out.append("flipped_weight is not the total |w| of the flip set")
    if require_exact and not fr.get("exact"):
        out.append("report is not exact")
    if fr.get("exact") and g.cyclomatic <= MAX_SUBSET_CYCLES:
        best = ref.min_flips(target)
        if fr.get("flip_count") != best:
            out.append(f"flip_count {fr.get('flip_count')} is not the minimum {best}")
    return out


def classify_problems(doc: dict, ref: Reference, target=None, require_exact=False) -> list[str]:
    out = verdict_problems(doc, ref) + spectral_problems(doc, ref)
    if target is not None:
        if "frustration" not in doc:
            return out + ["missing frustration report"]
        out += frustration_problems(doc["frustration"], ref, target, require_exact)
    return out


def measure_problems(doc: dict, ref: Reference) -> list[str]:
    missing = [k for k in ("d_b", "d_a", "rho_signed", "rho_unsigned", "contraction", "verdict") if k not in doc]
    if missing:
        return [f"missing keys {missing}"]
    return verdict_problems(doc, ref) + spectral_problems(doc, ref)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def read_trajectory_csv(text: str, n: int) -> np.ndarray:
    """Parse ``t,node,value`` rows into a (T+1, n) array; ValueError if malformed."""
    header, _, body = text.partition("\n")
    if header.strip() != "t,node,value":
        raise ValueError(f"bad trajectory header {header!r}")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if rows.shape[1] != 3 or rows.shape[0] % n:
        raise ValueError(f"trajectory has shape {rows.shape}, not a multiple of n={n} rows")
    steps = rows.shape[0] // n
    if not (np.array_equal(rows[:, 0], np.repeat(np.arange(steps), n))
            and np.array_equal(rows[:, 1], np.tile(np.arange(n), steps))):
        raise ValueError("trajectory rows are not in (t, node) order")
    return rows[:, 2].reshape(steps, n)


def expected_x0(spec: str, l0: float, ref: Reference) -> np.ndarray:
    g = ref.g
    if spec == "uniform":
        return np.full(g.n, l0)
    if spec == "bipartition":
        _, s_b, s_a = ref.cert
        s = s_b if s_b is not None else s_a
        return l0 * (s if s[0] > 0 else -s)
    head, _, rest = spec.partition(":")
    x = np.zeros(g.n)
    if head == "node":
        for item in rest.split(","):
            node, _, value = item.partition("=")
            x[int(node)] = float(value) if value else l0
        return x
    if head == "neighbourhood":
        c = int(rest)
        x[c] = l0
        for a, b, w in zip(g.i.tolist(), g.j.tolist(), g.w.tolist()):
            if c in (a, b):
                x[b if a == c else a] = l0 * np.sign(w)
        return x
    raise ValueError(f"unsupported init spec {spec!r}")


def _rows_close(got: np.ndarray, want: np.ndarray, rtol: float) -> np.ndarray:
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    return np.all(np.abs(got - want) <= rtol * scale + 1e-300, axis=1)


def recompute_steps(states: np.ndarray, model: str, cfg: dict, ref: Reference) -> np.ndarray:
    """Each step x(t) from the reported x(t-1) under the benchmark's own W."""
    W = ref.g.weight_matrix()
    prev = states[:-1]
    if model == "linear":
        return prev @ W
    if model == "rw":
        return prev @ (W / ref.g.degrees()[:, None])
    ratio = cfg["theta_l"] * cfg.get("alpha", 1.0)
    th = cfg.get("l0", 1.0) * np.cumprod(np.full(states.shape[0] - 1, ratio))[:, None]
    fields = prev @ W
    return np.where(fields >= th, th, np.where(fields <= -th, -th, 0.0))


def trajectory_problems(states: np.ndarray, model: str, cfg: dict, ref: Reference) -> list[str]:
    out = []
    horizon = int(cfg.get("horizon", 50))
    T = states.shape[0] - 1
    if not np.all(np.isfinite(states)):
        return ["trajectory has non-finite values"]
    steps_ok = 1 <= T <= horizon if model == "rw" else T == horizon
    if not steps_ok:
        out.append(f"trajectory has {T} steps for horizon {horizon}")
    x0 = expected_x0(cfg.get("init", "uniform"), float(cfg.get("l0", 1.0)), ref)
    if not np.allclose(states[0], x0, rtol=1e-12, atol=0):
        out.append("row t=0 is not the configured initial state")
    if T:
        bad = np.flatnonzero(~_rows_close(states[1:], recompute_steps(states, model, cfg, ref), STEP_RTOL))
        if bad.size:
            out.append(f"{bad.size} steps disagree with recomputation from W, first t={bad[0] + 1}")
    if model == "rw" and T < horizon and T >= 2:
        if not np.max(np.abs(states[-1] - states[-3])) < RW_STOP_TOL:
            out.append("rw stopped before max_steps without period-2 convergence")
    return out


def stationary(x0: np.ndarray, ref: Reference, steps: int):
    """Closed-form rw limit at time ``steps``: ±(x0·s) d / 2m, or None if bipartite."""
    verdict, s_b, s_a = ref.cert
    if verdict == "both":
        return None
    if verdict == "strictly_unbalanced":
        return np.zeros(ref.g.n)
    s = (s_b if s_b is not None else s_a).astype(float)
    d = ref.g.degrees()
    base = float(x0 @ s) / d.sum() * s * d
    return base if verdict == "balanced" or steps % 2 == 0 else -base


def rw_summary_problems(summary: dict, states: np.ndarray, horizon: int, ref: Reference) -> list[str]:
    out = []
    T = states.shape[0] - 1
    if summary.get("steps_run") != T:
        out.append(f"steps_run {summary.get('steps_run')} but trajectory has {T} steps")
    final = np.asarray(summary.get("realized_final_state", []), dtype=float)
    if final.shape != states[-1].shape or not np.allclose(final, states[-1], rtol=1e-12, atol=0):
        out.append("realized_final_state is not the last trajectory row")
    limit = stationary(states[0], ref, T)
    if limit is not None and T < horizon:
        if not np.max(np.abs(states[-1] - limit)) <= STATIONARY_TOL * max(np.max(np.abs(limit)), 1e-300):
            out.append("converged rw state is not the closed-form stationary state")
    pred = summary.get("stationary_prediction", {})
    if limit is not None:
        vectors = np.asarray(pred.get("vectors", []), dtype=float)
        if not vectors.size or not np.allclose(vectors[-1], stationary(states[0], ref, 0), rtol=1e-9, atol=1e-15):
            out.append("stationary_prediction differs from the closed form")
    return out


def activation_problems(summary: dict, states: np.ndarray) -> list[str]:
    acts = summary.get("activation_sets", [])
    if len(acts) != states.shape[0]:
        return [f"{len(acts)} activation records for {states.shape[0]} states"]
    for t, rec in enumerate(acts):
        if rec["plus"] != np.flatnonzero(states[t] > 0).tolist() or rec["minus"] != np.flatnonzero(states[t] < 0).tolist():
            return [f"activation sets at t={t} do not match the trajectory"]
    return []


def simulate_problems(model: str, cfg: dict, fmt: str, output: str, stdout: str, ref: Reference) -> list[str]:
    """Check a CLI ``simulate`` run: trajectory file plus the stdout summary."""
    try:
        summary = json.loads(stdout)
        if fmt == "json":
            doc = json.loads(output)
            states = np.asarray(doc["states"], dtype=float)
            if states.ndim != 2 or states.shape[1] != ref.g.n:
                raise ValueError(f"states have shape {states.shape}")
        else:
            states = read_trajectory_csv(output, ref.g.n)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable simulate output: {exc}"]
    out = trajectory_problems(states, model, cfg, ref)
    if model == "rw":
        out += rw_summary_problems(summary, states, int(cfg.get("horizon", 50)), ref)
    if model == "elt":
        out += activation_problems(summary, states)
    return out


# ---------------------------------------------------------------------------
# generator outputs
# ---------------------------------------------------------------------------

def generated_problems(kind: str, config: dict, text: str) -> list[str]:
    try:
        g = parse_edge_text(text)
    except ValueError as exc:
        return [f"unreadable edge list: {exc}"]
    out = structure_problems(g)
    n = config["n1"] + config["n2"] if kind == "ssbm" else config["n"]
    if g.n != n:
        out.append(f"generated n={g.n}, expected {n}")
    alpha = config.get("alpha", 1.0)
    if not np.allclose(np.abs(g.w), alpha, rtol=1e-12, atol=0):
        out.append("edge magnitudes differ from alpha")
    if kind == "tree" and g.m != g.n - 1:
        out.append(f"tree has {g.m} edges, expected {g.n - 1}")
    if kind == "lattice":
        half = config["dbar"] // 2
        a = np.repeat(np.arange(n), half)
        b = (a + np.tile(np.arange(1, half + 1), n)) % n
        if not np.array_equal(np.sort(g.i * n + g.j), np.sort(np.minimum(a, b) * n + np.maximum(a, b))):
            out.append("lattice is not circulant")
        k = config["sign_plan"]["k"]
        if int(np.sum(g.w < 0)) != k:
            out.append(f"lattice has {int(np.sum(g.w < 0))} flipped edges, expected {k}")
    return out
