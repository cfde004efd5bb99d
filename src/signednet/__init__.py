"""signednet: balance classification, spectra and dynamics of weighted
signed networks.

The package classifies connected signed graphs as balanced, antibalanced,
both, or strictly unbalanced; computes the spectral quantities separating the
classes (notably the distances d_b and d_a and the spectral-radius
contraction); simulates linear adjacency dynamics, signed random walks and
the extended linear threshold model; and generates the signed stochastic
block model, signed ring lattices and random signed trees used to exercise
all of it.  The ``signednet`` command line exposes the same functionality.
"""

from .core import (
    Edge,
    SignedGraph,
    build_graph,
    components,
    unsigned_counterpart,
)
from .balance import (
    BalanceClassification,
    Bipartition,
    FrustrationReport,
    PerturbationEstimate,
    Verdict,
    bipartite_partition,
    classify,
    frustration,
    negate,
    perturbation_estimate,
    switch,
    verify_spectral_theorem,
)
from .spectral import BalanceMeasures, balance_measures
from .dynamics import (
    ActivationSets,
    ELTConfig,
    StationaryKind,
    StationaryPrediction,
    Trajectory,
    certain_propagation_check,
    doubled_walk_simulate,
    elt_lattice_simulate,
    elt_simulate,
    linear_adjacency_simulate,
    predict_stationary,
    random_walk_simulate,
    simulate_walk_until_stationary,
)
from .generate import (
    AntibalancedPlan,
    BalancedPlan,
    FlipKPlan,
    LatticeParams,
    SSBMParams,
    random_signed_tree,
    ring_lattice,
    ssbm,
)
from .io import load_graph, parse_edge_list, write_edge_list

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
