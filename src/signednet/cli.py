"""Command-line surface: classify | measure | generate | simulate | verify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification failure.
All randomized commands take an explicit seed and are fully reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .balance import EXACT_FRUSTRATION_EDGE_CAP, classify, frustration
from .core import SignedGraph
from .dynamics import (
    ELTConfig,
    _closed_neighbourhood,
    elt_simulate,
    linear_adjacency_simulate,
    predict_stationary,
    simulate_walk_until_stationary,
)
from .errors import (
    BipartiteUnsupportedError,
    IdOutOfRangeError,
    NonFiniteStateError,
    ParamOutOfRangeError,
    SignedNetError,
)
from .generate import (
    FlipKPlan,
    LatticeParams,
    SSBMParams,
    check_config_keys,
    config_field,
    random_signed_tree,
    ring_lattice,
    seeded_rng,
    sign_plan_from_json,
    ssbm,
)
from .io import (
    _joined_json,
    activation_sets_to_json,
    classification_to_json,
    dump_json,
    frustration_to_json,
    load_graph,
    measures_to_json,
    write_edge_list,
    write_trajectory_csv,
)
from .spectral import _distances, balance_measures
from .verify import SUITES, run_suite

USAGE_EXIT, DATA_EXIT, VERIFY_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="signednet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"signednet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="balance verdict, certificates and measures")
    p_classify.add_argument("--input", required=True, help="edge-list file")
    p_classify.add_argument("--output", help="write JSON here instead of stdout")
    p_classify.add_argument("--frustration", choices=["balanced", "antibalanced"],
                            help="also report the edges disturbing this structure (exact up to 25 "
                                 "edges; beyond, the better of the signs of the P_sym end and all +1)")

    p_measure = sub.add_parser("measure", help="d_b, d_a and spectral radii")
    p_measure.add_argument("--input", required=True)
    p_measure.add_argument("--output")

    p_generate = sub.add_parser("generate", help="write a synthetic network as an edge list")
    p_generate.add_argument("kind", choices=["ssbm", "lattice", "tree"])
    p_generate.add_argument("--config", required=True, help="parameter JSON file")
    p_generate.add_argument("--output", required=True)
    p_generate.add_argument("--seed", type=int,
                            help="overrides the seed in the config (for a lattice, the flip_k plan's seed)")

    p_simulate = sub.add_parser("simulate", help="run a dynamics model, write trajectory CSV")
    p_simulate.add_argument("model", choices=["linear", "rw", "elt"])
    p_simulate.add_argument("--input", required=True)
    p_simulate.add_argument("--config", required=True, help="simulation JSON file")
    p_simulate.add_argument("--output", required=True, help="trajectory CSV path")
    p_simulate.add_argument("--seed", type=int, default=0, help="seed for random initial states")
    p_simulate.add_argument("--format", choices=["csv", "json"], default="csv",
                            help="trajectory file format")

    p_verify = sub.add_parser("verify", help="run acceptance suites")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--output", help="write the report here as well")
    return parser


# ---------------------------------------------------------------------------
# initial-state mini-language
# ---------------------------------------------------------------------------

def _spec_node(text: str, G: SignedGraph, spec: str) -> int:
    """A node id named in an initial-state spec, range-checked against G."""
    try:
        node = int(text)
    except ValueError:
        raise SignedNetError(f"initial-state spec {spec!r}: node id {text!r} is not an integer") from None
    if not 0 <= node < G.n:
        raise IdOutOfRangeError(f"initial-state spec {spec!r}: node {node} is outside [0, {G.n})")
    return node


def initial_state(spec: str, G: SignedGraph, l0: float, seed: int) -> np.ndarray:
    """Resolve an initial-state spec.

    ``uniform``: every node at l0.  ``node:<id>=<v>,...``: explicit sparse
    assignment.  ``bipartition``: +/- l0 following the balance certificate
    (antibalance certificate when only that exists).  ``neighbourhood:<id>``:
    ELT lattice seeding of a closed neighbourhood, signs following the edge
    signs.  ``random``: seeded standard normals normalized to unit l1 norm.
    """
    if spec == "uniform":
        return np.full(G.n, l0)
    if spec == "random":
        x = seeded_rng(seed).standard_normal(G.n)
        return x / np.abs(x).sum()
    if spec == "bipartition":
        part = classify(G).certificate
        if part is None:
            raise SignedNetError("graph is strictly unbalanced: no certificate bipartition to seed from")
        return part.s.astype(float) * l0
    head, _, rest = spec.partition(":")
    if head == "node" and rest:
        x = np.zeros(G.n)
        for item in rest.split(","):
            node, _, value = item.partition("=")
            i = _spec_node(node, G, spec)
            try:
                x[i] = float(value) if value else l0
            except ValueError:
                raise SignedNetError(f"initial-state spec {spec!r}: value {value!r} is not a number") from None
            if not np.isfinite(x[i]):
                raise SignedNetError(f"initial-state spec {spec!r}: value {value!r} is not finite")
        return x
    if head == "neighbourhood" and rest:
        seed = _closed_neighbourhood(G, _spec_node(rest, G, spec))
        return np.where(seed != 0, l0 * seed, 0.0)  # +0.0 off the neighbourhood, also for l0 < 0
    raise SignedNetError(f"unknown initial-state spec {spec!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit(doc, output) -> None:
    if output:
        dump_json(doc, output)
    else:
        print(dump_json(doc))


def _cmd_classify(args) -> int:
    G = load_graph(args.input)
    doc = classification_to_json(classify(G), _distances(G))
    if G.labels:
        doc["labels"] = list(G.labels)
    if args.frustration:
        mode = "exact" if G.num_edges <= EXACT_FRUSTRATION_EDGE_CAP else "heuristic"
        doc["frustration"] = frustration_to_json(frustration(G, args.frustration, mode=mode))
    _emit(doc, args.output)
    return 0


def _cmd_measure(args) -> int:
    G = load_graph(args.input)
    doc = measures_to_json(balance_measures(G), classify(G).verdict)
    _emit(doc, args.output)
    return 0


#: the config keys of each generator, its parameter record's fields, each
#: mapped to whether it is required (has no default)
_GENERATE_KEYS = {
    "ssbm": {f.name: f.default is dataclasses.MISSING for f in dataclasses.fields(SSBMParams)},
    "lattice": {f.name: f.default is dataclasses.MISSING for f in dataclasses.fields(LatticeParams)},
    "tree": {p.name: p.default is p.empty for p in inspect.signature(random_signed_tree).parameters.values()},
}
#: the numeric generator config keys and their JSON types
_NUMBER_KEYS = {"n1": int, "n2": int, "n": int, "dbar": int, "seed": int,
                "p_in": float, "p_out": float, "eta": float, "alpha": float, "sign_prob": float}


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``; ``what`` names the file in errors."""
    data = Path(path).read_bytes()
    try:
        config = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParamOutOfRangeError(f"the {what} is not UTF-8 text: byte 0x{data[exc.start]:02x} "
                                   f"at offset {exc.start}") from None
    except RecursionError:
        raise ParamOutOfRangeError(f"the {what} is nested too deeply to parse") from None
    if not isinstance(config, dict):
        raise ParamOutOfRangeError(f"the {what} must be a JSON object")
    return config


def _cmd_generate(args) -> int:
    config = _read_json_object(args.config, "generate config")
    accepted = _GENERATE_KEYS[args.kind]
    lattice_seed = args.kind == "lattice" and "seed" in config
    check_config_keys(config, f"{args.kind} config", accepted,
                      "; a lattice's seed is sign_plan.seed, in a flip_k plan" if lattice_seed else "")
    required = [key for key, needed in accepted.items() if needed]
    missing = [key for key in required if key not in config]
    if missing:
        raise ParamOutOfRangeError(f"missing {args.kind} config key{'s' * (len(missing) > 1)} "
                                   f"{', '.join(map(repr, missing))}; required keys: {', '.join(required)}")
    if args.seed is not None and args.kind != "lattice":
        config["seed"] = args.seed
    for key, kind in _NUMBER_KEYS.items():
        if key in config:
            config[key] = config_field(config, key, None, kind)
    if args.kind == "ssbm":
        G = ssbm(SSBMParams(**config))
    elif args.kind == "lattice":
        plan_doc = config.pop("sign_plan")
        plan = sign_plan_from_json(plan_doc)
        if args.seed is not None:  # a lattice's only randomness is its flip_k plan
            if not isinstance(plan, FlipKPlan):
                raise ParamOutOfRangeError(f"--seed sets the seed of a flip_k sign_plan; "
                                           f"the {plan_doc['kind']!r} sign_plan takes no seed")
            plan = dataclasses.replace(plan, seed=args.seed)
        G = ring_lattice(LatticeParams(sign_plan=plan, **config))
        config["sign_plan"] = {"kind": plan_doc["kind"], **dataclasses.asdict(plan)}  # the plan as drawn
    else:
        G = random_signed_tree(**config)
    write_edge_list(G, args.output, header=f"{args.kind} {json.dumps(config, sort_keys=True)}")
    return 0


#: the simulate config keys; one config may serve every model, and only
#: ``elt`` reads the last three
_SIMULATE_KEYS = ("horizon", "l0", "init", "theta_l", "alpha", "general_thresholds")


def _cmd_simulate(args) -> int:
    G = load_graph(args.input)
    config = _read_json_object(args.config, "simulate config")
    check_config_keys(config, "simulate config", _SIMULATE_KEYS)
    horizon = config_field(config, "horizon", 50, int)
    l0 = config_field(config, "l0", 1.0, float)
    x0 = initial_state(config_field(config, "init", "uniform", str), G, l0, args.seed)

    summary: dict = {"model": args.model, "horizon": horizon}
    if args.model == "linear":
        traj = linear_adjacency_simulate(G, x0, horizon)
    elif args.model == "rw":
        traj = simulate_walk_until_stationary(G, x0, max_steps=horizon)
        summary["realized_final_state"] = traj.final
        summary["steps_run"] = traj.horizon
        try:
            pred = predict_stationary(G, x0)
            summary["stationary_prediction"] = {
                "kind": pred.kind.value,
                "vectors": list(pred.vectors),
            }
        except BipartiteUnsupportedError as exc:
            summary["stationary_prediction"] = {"kind": "unsupported", "reason": str(exc)}
    else:
        cfg = ELTConfig(
            theta_l=config_field(config, "theta_l", 1.0, float),
            alpha=config_field(config, "alpha", 1.0, float),
            l0=l0,
            horizon=horizon,
            general_thresholds=config_field(config, "general_thresholds", None, list),
        )
        traj, acts = elt_simulate(G, x0, cfg)
        summary["activation_sets"] = activation_sets_to_json(acts)

    finite = np.isfinite(traj.states).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite))
        raise NonFiniteStateError(f"simulate {args.model}: the state is not finite from step {step} "
                                  f"of {traj.horizon}; lower the horizon or rescale the weights")
    text = dump_json(summary)
    if args.format == "json":  # the document holds the states, then the summary's members
        Path(args.output).write_text(_joined_json(dump_json({"states": traj.states}), text) + "\n")
    else:
        write_trajectory_csv(traj.states, args.output)
    print(text)
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, report=print if args.format == "text" else None)
    doc = [
        {"criterion": r.criterion, "passed": r.passed, "detail": r.detail, "seconds": round(r.seconds, 3)}
        for r in results
    ]
    if args.format == "json":
        print(dump_json(doc))
    if args.output:
        dump_json(doc, args.output)
    if not all(r.passed for r in results):
        return VERIFY_EXIT
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "classify": _cmd_classify,
        "measure": _cmd_measure,
        "generate": _cmd_generate,
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (SignedNetError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
