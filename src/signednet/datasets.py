"""Bundled reference networks."""

import os
from importlib import resources

from .core import SignedGraph
from .io import load_graph, parse_edge_list

#: set this environment variable to an edge-list path to replace the bundled
#: highland-tribes reconstruction with another coding of the network
TRIBES_PATH_ENV = "SIGNEDNET_TRIBES_PATH"

#: the bundled highland-tribes edge list is a reconstruction, not a published
#: coding, so verification does not compare it with the published measures;
#: set to False in the same commit that replaces it with a transcription
BUNDLED_TRIBES_IS_RECONSTRUCTION = True


def highland_tribes() -> SignedGraph:
    """Gahuku-Gama alliance network (Read 1954), weight magnitude 0.1.

    16 subtribes in three mutually hostile alliance blocs; friendly ("rova")
    ties are positive, hostile ("hina") ties negative.  The bundled edge list
    is a three-bloc reconstruction with 75 edges (31 positive, 44 negative),
    not Read's 58-edge coding used in the literature; set
    ``SIGNEDNET_TRIBES_PATH`` to load a published coding instead (or call
    ``load_graph`` on its file).  See the README's data-provenance section.
    """
    override = os.environ.get(TRIBES_PATH_ENV)
    if override:
        return load_graph(override)
    return parse_edge_list(resources.files("signednet").joinpath("data/highland_tribes.edges").read_text())


def highland_tribes_is_published() -> bool:
    """Whether ``highland_tribes()`` loads a published coding: any supplied
    file, or the bundled one once it is a transcription."""
    return bool(os.environ.get(TRIBES_PATH_ENV)) or not BUNDLED_TRIBES_IS_RECONSTRUCTION
