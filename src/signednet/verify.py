"""Acceptance verification suites.

Each criterion below checks one shipping gate at its stated tolerance.
``@criterion(name)`` registers a check that returns ``(passed, detail)`` in
:data:`CRITERIA`, in criterion order, under a wrapper that times the check
and returns a :class:`CriterionResult`; the CLI ``verify`` subcommand and
the acceptance test module both run these.  Suites:

* ``spectra``: classification oracle, spectral theorem, radius contraction,
  measures, highland tribes, perturbation first-order check
* ``walks``:   stationary states, doubled-walk consistency
* ``elt``:     lattice behavior, figure-pattern reproduction
* ``all``:     everything, in criterion order

Everything is deterministic: corpora are generated from fixed seeds.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import datasets
from .balance import (Verdict, apply_flip_set, bipartite_partition, classify, perturbation_estimate,
                      verify_spectral_theorem)
from .core import SignedGraph, _transition_edge_values, build_graph, unsigned_counterpart
from .dynamics import (
    ELTConfig,
    StationaryKind,
    certain_propagation_check,
    doubled_walk_simulate,
    elt_lattice_simulate,
    elt_simulate,
    linear_adjacency_simulate,
    predict_stationary,
    random_walk_simulate,
)
from .generate import BalancedPlan, FlipKPlan, AntibalancedPlan, LatticeParams, SSBMParams, ring_lattice, ssbm
from .spectral import _extremes, _solved_distances, _solved_radius, _spectrum, balance_measures


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.criterion}: {self.detail} ({self.seconds:.2f}s)"


CRITERIA: dict[str, Callable[[], CriterionResult]] = {}


def criterion(name: str):
    """Register a check returning ``(passed, detail)`` as criterion ``name``,
    wrapped to time it and return a :class:`CriterionResult`."""
    def register(check: Callable[[], tuple[bool, str]]) -> Callable[[], CriterionResult]:
        @functools.wraps(check)
        def run() -> CriterionResult:
            started = time.perf_counter()
            passed, detail = check()
            return CriterionResult(name, passed, detail, time.perf_counter() - started)
        CRITERIA[name] = run
        return run
    return register


# ---------------------------------------------------------------------------
# desk-scale corpus and the independent cycle-sign oracle
# ---------------------------------------------------------------------------

def random_connected_corpus(count: int, max_n: int = 6, seed: int = 2024) -> list[SignedGraph]:
    """Connected unit-weight signed graphs: random tree plus random extras."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        edges = {}
        for child in range(1, n):
            parent = int(rng.integers(0, child))
            edges[(min(parent, child), max(parent, child))] = None
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        extra = int(rng.integers(0, len(possible) + 1))
        for idx in rng.permutation(len(possible))[:extra]:
            edges[possible[idx]] = None
        signed = [(i, j, 1.0 if rng.random() < 0.5 else -1.0) for i, j in sorted(edges)]
        graphs.append(build_graph(n, signed))
    return graphs


@functools.cache  # criteria 1 and 3 read the same 500 graphs: they are drawn and built once
def _desk_corpus() -> tuple[SignedGraph, ...]:
    return tuple(random_connected_corpus(500))


def enumerate_simple_cycles(G: SignedGraph) -> list[list[int]]:
    """All simple cycles as node sequences (each cycle once, up to rotation
    and reflection).  Exponential; intended for desk-scale oracles only."""
    n = G.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(G.i.tolist(), G.j.tolist()):
        adj[i].append(j)
        adj[j].append(i)
    cycles = []

    def extend(path: list[int]) -> None:
        head, start = path[-1], path[0]
        for nxt in adj[head]:
            if nxt == start and len(path) >= 3 and path[1] < path[-1]:
                cycles.append(list(path))
            elif nxt > start and nxt not in path:
                path.append(nxt)
                extend(path)
                path.pop()

    for start in range(n):
        extend([start])
    return cycles


def cycle_sign_oracle(G: SignedGraph) -> tuple[bool, bool]:
    """(balanced, antibalanced) by exhaustive simple-cycle enumeration.

    Balanced: every cycle carries an even number of negative edges;
    antibalanced: an even number of positive edges.
    """
    weight = {}
    for i, j, w in zip(G.i.tolist(), G.j.tolist(), G.w.tolist()):
        weight[i, j] = weight[j, i] = w
    balanced = True
    antibalanced = True
    for cycle in enumerate_simple_cycles(G):
        negatives = positives = 0
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if weight[a, b] < 0:
                negatives += 1
            else:
                positives += 1
        if negatives % 2:
            balanced = False
        if positives % 2:
            antibalanced = False
        if not balanced and not antibalanced:
            break
    return balanced, antibalanced


# ---------------------------------------------------------------------------
# SSBM corpora (reference experiment configuration)
# ---------------------------------------------------------------------------

REFERENCE = SSBMParams(n1=6, n2=10, p_in=0.8, p_out=0.1, eta=0.0, alpha=0.1)  # each draw sets eta and seed


@functools.cache  # a pure function of (eta, seed) returning an immutable graph: each pair is drawn once
def reference_ssbm(eta: float, seed: int) -> SignedGraph:
    return ssbm(replace(REFERENCE, eta=eta, seed=seed))


def ssbm_with_verdict(eta: float, verdict: Verdict, count: int, seed0: int,
                      require_nonbipartite: bool = False) -> list[SignedGraph]:
    out: list[SignedGraph] = []
    seed = seed0
    while len(out) < count:
        G = reference_ssbm(eta, seed)
        seed += 1
        if classify(G).verdict is not verdict:
            continue
        if require_nonbipartite and bipartite_partition(G) is not None:
            continue
        out.append(G)
    return out


# ---------------------------------------------------------------------------
# criteria, registered in criterion order
# ---------------------------------------------------------------------------

@criterion("1-classification-oracle")
def criterion_classification_oracle() -> tuple[bool, str]:
    """1: classify agrees with exhaustive cycle-sign enumeration, 500 graphs."""
    started = time.perf_counter()
    corpus = _desk_corpus()
    mismatches = 0
    for G in corpus:
        c = classify(G)
        balanced, antibalanced = cycle_sign_oracle(G)
        if (c.is_balanced, c.is_antibalanced) != (balanced, antibalanced):
            mismatches += 1
    elapsed = time.perf_counter() - started
    return (mismatches == 0 and elapsed < 30.0,
            f"{len(corpus)} graphs, {mismatches} mismatches, {elapsed:.1f}s (< 30s)")


@criterion("2-spectral-theorem")
def criterion_spectral_theorem() -> tuple[bool, str]:
    """2: signed/unsigned spectra correspondence on 100 + 100 SSBM draws."""
    worst_vals = worst_lead = 0.0
    for eta, verdict in ((0.0, Verdict.BALANCED), (1.0, Verdict.ANTIBALANCED)):
        for G in ssbm_with_verdict(eta, verdict, 100, seed0=0):
            report = verify_spectral_theorem(G, classify(G))
            worst_vals = max(worst_vals, report.eigenvalue_max_dev)
            worst_lead = max(worst_lead, report.leading_magnitude_dev)
    return (worst_vals < 1e-9 and worst_lead < 1e-8,
            f"max eigenvalue dev {worst_vals:.2e} (< 1e-9), max leading |u| dev {worst_lead:.2e} (< 1e-8)")


@criterion("3-radius-contraction")
def criterion_radius_contraction() -> tuple[bool, str]:
    """3: strictly unbalanced <=> rho(W) < rho(|W|) - 1e-9, both directions,
    on radii solved whatever the verdict."""
    corpus = _desk_corpus()
    exceptions = 0
    for G in corpus:
        contracted = _solved_radius(G) < _extremes(G, "|W|", (1,))[0] - 1e-9
        strictly = classify(G).verdict is Verdict.STRICTLY_UNBALANCED
        if contracted != strictly:
            exceptions += 1
    return exceptions == 0, f"{len(corpus)} graphs, {exceptions} exceptions"


@criterion("4-measures")
def criterion_measures() -> tuple[bool, str]:
    """4: d_b/d_a vanish exactly on the matching class; scale invariance; on
    distances solved whatever the verdict."""
    ok = True
    worst_scale = 0.0
    # (eta, verdict, draws, d_b zero?, d_a zero?); the first 10 draws of each group are also rescaled
    for eta, verdict, count, b_zero, a_zero in ((0.0, Verdict.BALANCED, 100, True, False),
                                                (1.0, Verdict.ANTIBALANCED, 100, False, True),
                                                (0.1, Verdict.STRICTLY_UNBALANCED, 50, False, False)):
        for k, G in enumerate(ssbm_with_verdict(eta, verdict, count, seed0=0)):
            d_b, d_a = _solved_distances(G)
            ok &= (d_b < 1e-8 if b_zero else d_b > 1e-8) and (d_a < 1e-8 if a_zero else d_a > 1e-8)
            if k < 10:
                for factor in (10.0, 0.01):
                    scaled_b, scaled_a = _solved_distances(G.with_weights(G.w * factor))
                    worst_scale = max(worst_scale, abs(scaled_b - d_b), abs(scaled_a - d_a))
    return ok and worst_scale < 1e-10, f"zero-iff over 250 draws, scale dev {worst_scale:.2e} (< 1e-10)"


PUBLISHED_TRIBES_D_B = 0.155
PUBLISHED_TRIBES_D_A = 0.529
TRIBES_TOLERANCE = 0.002
PUBLISHED_TRIBES_EDGES = 58


@criterion("5-highland-tribes")
def criterion_highland_tribes() -> tuple[bool, str]:
    """5: the Gahuku-Gama network obeys the paper's theorems and, on a
    published coding, reproduces the published measures.

    Theorem checks run on whatever network ``datasets.highland_tribes()``
    loads: verdict strictly unbalanced on 16 nodes; rho(W) < rho(|W|) - 1e-9
    (criterion 3's separation); d_b and d_a above criterion 4's 1e-8 zero
    threshold; d_b < d_a (closer to balanced, as reported for this network);
    d_b and d_a unchanged to 1e-12 when every weight is scaled by 10; all in
    under a second.

    The published comparison (d_b and d_a within ``TRIBES_TOLERANCE`` of the
    published values) runs only on a published coding: a file supplied through
    ``SIGNEDNET_TRIBES_PATH``, or the bundled file once it is a transcription
    (``datasets.BUNDLED_TRIBES_IS_RECONSTRUCTION`` false).  On the bundled
    reconstruction the detail line says that the comparison was not run.
    """
    started = time.perf_counter()
    G = datasets.highland_tribes()
    m = balance_measures(G)
    verdict = classify(G).verdict
    scaled = balance_measures(G.with_weights(10.0 * G.w))
    scale_dev = max(abs(scaled.d_b - m.d_b), abs(scaled.d_a - m.d_a))
    problems = []
    if verdict is not Verdict.STRICTLY_UNBALANCED or G.n != 16:
        problems.append("expected a strictly unbalanced network on 16 nodes")
    if not m.contraction > 1e-9:
        problems.append(f"rho gap {m.contraction:.2e} not > 1e-9")
    if not (m.d_b > 1e-8 and m.d_a > 1e-8):
        problems.append("d_b and d_a not both > 1e-8")
    if not m.d_b < m.d_a:
        problems.append("d_b not < d_a")
    if not scale_dev <= 1e-12:
        problems.append(f"scale dev {scale_dev:.2e} > 1e-12")
    published_coding = datasets.highland_tribes_is_published()
    if published_coding and not (abs(m.d_b - PUBLISHED_TRIBES_D_B) <= TRIBES_TOLERANCE
                                 and abs(m.d_a - PUBLISHED_TRIBES_D_A) <= TRIBES_TOLERANCE):
        problems.append(f"loaded coding disagrees with the published values beyond {TRIBES_TOLERANCE}; "
                        f"see README data provenance")
    elapsed = time.perf_counter() - started
    if not elapsed < 1.0:
        problems.append(f"took {elapsed:.2f}s, limit 1s")
    detail = (
        f"d_b={m.d_b:.4f} (published {PUBLISHED_TRIBES_D_B}), d_a={m.d_a:.4f} (published {PUBLISHED_TRIBES_D_A}), "
        f"rho(W)={m.spectral_radius_signed:.4f}, rho(|W|)={m.spectral_radius_unsigned:.4f}, "
        f"verdict={verdict.value}, n={G.n}, m={G.num_edges}"
    )
    if published_coding:
        detail += f"; published comparison run at tolerance {TRIBES_TOLERANCE}"
    else:
        detail += (f"; published comparison not run: the bundled edge list is a reconstruction "
                   f"({G.num_edges} edges, the published coding has {PUBLISHED_TRIBES_EDGES}); "
                   f"see README data provenance")
    if problems:
        detail += " -- " + "; ".join(problems)
    return not problems, detail


@criterion("6-stationary-states")
def criterion_stationary_states() -> tuple[bool, str]:
    """6: iterated walks match the closed-form limits for all three classes;
    a prediction of the wrong kind counts as an infinite deviation."""
    rng = np.random.default_rng(7)
    worst: dict[StationaryKind, float] = {}

    def random_unit_l1(n: int) -> np.ndarray:
        x = rng.standard_normal(n)
        return x / np.abs(x).sum()

    for eta, verdict, kind in ((0.0, Verdict.BALANCED, StationaryKind.FIXED),
                               (1.0, Verdict.ANTIBALANCED, StationaryKind.ALTERNATING_PAIR),
                               (0.1, Verdict.STRICTLY_UNBALANCED, StationaryKind.ZERO)):
        worst[kind] = 0.0
        pure = kind is not StationaryKind.ZERO
        for G in ssbm_with_verdict(eta, verdict, 50, seed0=300, require_nonbipartite=pure):
            x0 = random_unit_l1(G.n)
            pred = predict_stationary(G, x0)
            states = random_walk_simulate(G, x0, _horizon(G, kind)).states
            limits = np.array(pred.vectors)  # the last states: (fixed,), (odd, even) or (zero,)
            dev = np.max(np.abs(states[-len(limits):] - limits)) if pred.kind is kind else np.inf
            worst[kind] = max(worst[kind], float(dev))

    worst_fixed, worst_pair, worst_decay = worst.values()  # in table order
    return (worst_fixed < 1e-6 and worst_pair < 1e-6 and worst_decay < 1e-8,
            f"fixed dev {worst_fixed:.2e} (< 1e-6), pair dev {worst_pair:.2e} (< 1e-6), "
            f"decay {worst_decay:.2e} (< 1e-8), 150 draws")


def _horizon(G: SignedGraph, kind: StationaryKind) -> int:
    """Steps for a walk to reach its ``kind`` of limit: until the whole walk
    falls below 1e-10 when it decays, else until the subdominant transition
    mode falls below 1e-9 (at most 20000, and even for the alternating pair)."""
    moduli = np.sort(np.abs(_spectrum(G, _transition_edge_values(G)).eigenvalues))
    if kind is StationaryKind.ZERO:
        return int(np.ceil(10.0 / (-np.log10(moduli[-1]))))
    sub = moduli[-2]
    T = 20000 if sub >= 1.0 - 1e-12 else min(20000, int(np.ceil(np.log(1e-9) / np.log(sub))) + 2)
    return T + T % 2 if kind is StationaryKind.ALTERNATING_PAIR else T


@criterion("7-perturbation")
def criterion_perturbation() -> tuple[bool, str]:
    """7: first-order d_b prediction within 15% on >= 90% of 30 single flips
    of balanced (eta = 0) draws."""
    hits = 0
    trials = 30
    for trial in range(trials):
        G = ssbm(SSBMParams(n1=30, n2=30, p_in=0.8, p_out=0.1, eta=0.0, alpha=0.1, seed=trial))
        rng = np.random.default_rng(1000 + trial)
        k = int(rng.integers(0, G.num_edges))
        flip = [(G.i[k], G.j[k])]
        predicted_db = -perturbation_estimate(G, flip).delta_max
        measured_db = balance_measures(apply_flip_set(G, flip)).d_b
        if abs(measured_db - predicted_db) / measured_db < 0.15:
            hits += 1
    return hits >= int(np.ceil(0.9 * trials)), f"{hits}/{trials} trials within 15% (need >= 27)"


@criterion("8-elt-lattice")
def criterion_elt_lattice() -> tuple[bool, str]:
    """8: ELT ring-lattice behavior at n=40, dbar=4, alpha=0.1."""
    n, dbar, alpha, horizon = 40, 4, 0.1, 30
    problems: list[str] = []

    def lattice(plan):
        return ring_lattice(LatticeParams(n=n, dbar=dbar, alpha=alpha, sign_plan=plan))

    def run(G, theta_l, mode):
        cfg = ELTConfig(theta_l=theta_l, alpha=alpha, l0=1.0, horizon=horizon)
        return elt_lattice_simulate(G, seed_center=0, cfg=cfg, mode=mode)

    # spread beyond the seeded neighbourhood iff theta_l <= dbar/2
    for theta_l in (1.0, 2.0, 2.5):
        G = lattice(BalancedPlan("all"))
        _, acts = run(G, theta_l, "balanced")
        spread = bool(acts.ever_active() - acts.active(0))
        certain = certain_propagation_check(G, theta_l)
        if spread != certain:
            problems.append(f"spread at theta_l={theta_l} is {spread}")
        if certain:
            # steady growth rate; the single step that closes the ring absorbs
            # whatever remains (the two frontiers meet), so it is exempt
            expected = dbar - 2 * (int(np.ceil(theta_l)) - 1)
            if len(acts.ever_active()) != n:
                problems.append(f"theta_l={theta_l}: lattice never saturates")
            for t in range(1, horizon + 1):
                if len(acts.active(t)) == n:
                    break
                new = len(acts.new_active(t))
                if new != expected:
                    problems.append(f"theta_l={theta_l}, t={t}: {new} new, expected {expected}")
                    break

    # sign preservation / inversion
    _, acts = run(lattice(BalancedPlan("arc:20")), 2.0, "balanced")
    for t in range(1, horizon + 1):
        if not (acts.plus(t - 1) <= acts.plus(t) and acts.minus(t - 1) <= acts.minus(t)):
            problems.append(f"balanced mode lost a sign at t={t}")
            break
    _, acts = run(lattice(AntibalancedPlan("all")), 2.0, "antibalanced")
    for t in range(1, horizon + 1):
        if not (acts.plus(t - 1) <= acts.minus(t) and acts.minus(t - 1) <= acts.plus(t)):
            problems.append(f"antibalanced mode failed to invert at t={t}")
            break

    # k-flip perturbations never activate more nodes per step than balanced
    _, acts_b = run(lattice(BalancedPlan("all")), 2.0, "balanced")
    for seed in range(5):
        _, acts_f = run(lattice(FlipKPlan(k=2, seed=seed)), 2.0, "balanced")
        for t in range(horizon + 1):
            if len(acts_f.active(t)) > len(acts_b.active(t)):
                problems.append(f"flip-2 seed {seed} exceeded balanced count at t={t}")
                break

    return (not problems,
            "spread iff theta_l <= dbar/2 at {1, 2, 2.5}; per-step counts, sign patterns, "
            "flip-2 bound all hold" if not problems else "; ".join(problems))


@criterion("9-doubled-walk")
def criterion_doubled_walk() -> tuple[bool, str]:
    """9: two-species sum/difference match unsigned/signed walks to 1e-12."""
    rng = np.random.default_rng(11)
    worst = 0.0
    corpus = random_connected_corpus(20, max_n=12, seed=77)
    for G in corpus:
        xp = rng.random(G.n)
        xm = rng.random(G.n)
        plus, minus = doubled_walk_simulate(G, xp, xm, 50)
        signed = random_walk_simulate(G, xp - xm, 50)
        unsigned = random_walk_simulate(unsigned_counterpart(G), xp + xm, 50)
        worst = max(worst, float(np.max(np.abs((plus.states - minus.states) - signed.states))))
        worst = max(worst, float(np.max(np.abs((plus.states + minus.states) - unsigned.states))))
    return worst < 1e-12, f"max deviation {worst:.2e} (< 1e-12) over {len(corpus)} graphs, 50 steps"


@criterion("10-figure-patterns")
def criterion_figure_patterns() -> tuple[bool, str]:
    """10: sign patterns of the three dynamics, exact from the certificate in the
    pure regimes (eta 0, 1), over 90% from the planted blocks near them."""
    steps = 10
    problems: list[str] = []
    near: dict[float, str] = {}

    def simulate_all(G, x0):
        lin = linear_adjacency_simulate(G, x0, steps).states
        rw = random_walk_simulate(G, x0, steps).states
        cfg = ELTConfig(theta_l=1.0, alpha=0.1, l0=1.0, horizon=steps)
        elt, _ = elt_simulate(G, x0, cfg)
        return {"linear": lin, "rw": rw, "elt": elt.states}

    def agreement(states, target):
        """Share of the nonzero states of steps 1.. whose sign is ``target``'s."""
        signs = np.sign(states[1:])
        nonzero = signs != 0
        return float(np.mean(signs[nonzero] == target[nonzero])) if nonzero.any() else 1.0

    planted = REFERENCE.planted_signs().astype(float)
    for eta, verdict in ((0.0, Verdict.BALANCED), (1.0, Verdict.ANTIBALANCED),
                         (0.05, Verdict.STRICTLY_UNBALANCED), (0.95, Verdict.STRICTLY_UNBALANCED)):
        pure = verdict is not Verdict.STRICTLY_UNBALANCED
        G = ssbm_with_verdict(eta, verdict, 1, seed0=42, require_nonbipartite=pure)[0]
        s = classify(G).certificate.s.astype(float) if pure else planted
        alternation = -1.0 if eta > 0.5 else 1.0  # toward antibalance the signs alternate
        target = np.power(alternation, np.arange(1, steps + 1))[:, None] * s
        fracs = {model: agreement(states, target) for model, states in simulate_all(G, s).items()}
        for model, frac in fracs.items():
            if pure and frac != 1.0:
                problems.append(f"eta={eta:g} {model}: sign agreement {frac:.3f} != 1")
            elif not pure and frac <= 0.9:
                problems.append(f"eta={eta:g} {model}: agreement {frac:.3f} <= 0.9")
        near[eta] = ", ".join(f"{k}={v:.2f}" for k, v in fracs.items())

    detail = f"pure regimes exact; near-balanced agreement {near[0.05]}; near-antibalanced {near[0.95]}"
    return not problems, detail if not problems else "; ".join(problems)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITES: dict[str, list[str]] = {
    "spectra": ["1-classification-oracle", "2-spectral-theorem", "3-radius-contraction",
                "4-measures", "5-highland-tribes", "7-perturbation"],
    "walks": ["6-stationary-states", "9-doubled-walk"],
    "elt": ["8-elt-lattice", "10-figure-patterns"],
    "all": list(CRITERIA),
}


def run_suite(suite: str, report: Optional[Callable[[str], None]] = print) -> list[CriterionResult]:
    """Run every criterion in a suite, reporting one line per criterion."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results = []
    for name in SUITES[suite]:
        result = CRITERIA[name]()
        results.append(result)
        if report is not None:
            report(result.line())
    return results
