"""Exception types raised by signednet.

Everything derives from ``SignedNetError`` so callers (and the CLI) can catch
data problems in one place without swallowing unrelated bugs.
"""


class SignedNetError(ValueError):
    """Base class for all signednet data and usage errors."""


# ---- graph construction -------------------------------------------------

class GraphConstructionError(SignedNetError):
    """Invalid input to the graph constructor."""


class SelfLoopError(GraphConstructionError):
    pass


class DuplicateEdgeError(GraphConstructionError):
    pass


class ZeroWeightError(GraphConstructionError):
    pass


class NonFiniteWeightError(GraphConstructionError):
    """Edge weight is nan or infinite, or a node's weighted degree overflows."""


class IdOutOfRangeError(GraphConstructionError):
    pass


class DisconnectedError(GraphConstructionError):
    pass


# ---- edge-list files ----------------------------------------------------

class EdgeListParseError(SignedNetError):
    """Malformed edge-list file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnwritableLabelError(SignedNetError):
    """A node label that an edge list would not read back as the same label."""


# ---- balance / spectral preconditions ------------------------------------

class NotBalancedError(SignedNetError):
    pass


class WrongVerdictError(SignedNetError):
    """Operation requires a different balance verdict."""


class TooLargeError(SignedNetError):
    """Exact search refused beyond its size cap."""


class EdgeNotPresentError(SignedNetError):
    pass


class LanczosNotConvergedError(SignedNetError):
    """An extreme eigenvalue did not converge within the Lanczos step cap."""


# ---- dynamics -------------------------------------------------------------

class DimensionMismatchError(SignedNetError):
    pass


class NonpositiveThresholdError(SignedNetError):
    pass


class NegativeDensityError(SignedNetError):
    pass


class NotLatticeError(SignedNetError):
    pass


class InconsistentModeError(SignedNetError):
    pass


class BipartiteUnsupportedError(SignedNetError):
    """No closed-form stationary state is available for bipartite graphs."""


class NonFiniteStateError(SignedNetError):
    """A simulated state overflowed to inf or nan; the message names the first such step."""


# ---- generators -----------------------------------------------------------

class ParamOutOfRangeError(SignedNetError):
    pass


class GaveUpConnectivityError(SignedNetError):
    """Generator failed to produce a connected graph within its retry budget."""
