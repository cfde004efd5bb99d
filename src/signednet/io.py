"""Edge-list text format, trajectory CSV and JSON serialization.

Edge-list format: UTF-8 text (a leading byte-order mark is dropped);
full-line comments start with ``#``; an optional first data line ``n <N>``
fixes the node count; every other data line is ``i j w`` with whitespace
separation.  Node tokens may all be integers (used directly as 0-based ids,
node count inferred as max id + 1 unless declared) or all be arbitrary
labels, which are mapped to ids in order of first appearance with the label
table retained on the graph.

Integer-id text, which is what ``format_edge_list`` and ``generate`` write,
is read in one ``np.loadtxt`` pass when it is ASCII, has no ``#`` after its
leading comment lines and no line break other than LF or CRLF, and every
data line after the optional header is three tokens that ``loadtxt`` reads
without error or warning.  Any other text goes through a loop over the
lines.  Both routes give the same graph; only the loop reads labels and
raises :class:`~signednet.errors.EdgeListParseError`, so every error and
its line number is the loop's.

Edge lists are written as a ``#`` line per header line, the ``n N`` line,
then ``i j w`` per edge in edge order.  A labelled graph is written with its
labels and reads back with its ids in order of first appearance; labels
that would not read back as the same labels are refused with
:class:`~signednet.errors.UnwritableLabelError` before anything is written.

Trajectory CSV: a ``t,node,value`` header, then one row per step ``t`` and
node, ``t``-major; every line ends in CRLF (``\\r\\n``, the ``csv`` module's
default terminator).

Float encoding: every float an edge list, a trajectory CSV or a JSON
document holds is ``repr`` of the value as a Python float, the shortest
text that reads back to the same double, ``-0.0`` included; ``nan`` and
``inf`` are written only to the CSV, since JSON output refuses them with
``ValueError``.  A float64 array is encoded by :func:`_float_texts`,
one ``repr`` per distinct bit pattern, so a trajectory of few distinct
states costs few calls.

JSON: :func:`dump_json` writes exactly the text of ``json.dumps(doc,
indent=2, allow_nan=False)``, with arrays written as the lists of their
values.  Each list of non-container values is one call of a C
encoder (``json.JSONEncoder`` without indent, its item separator the line
break and indent of that depth), each list of such lists one call over
all its values, and only the nesting is laid out in Python.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import warnings
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .core import SignedGraph, _connected_graph
from .errors import EdgeListParseError, UnwritableLabelError

PathLike = Union[str, Path]


def _data_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


#: characters where ``str.splitlines`` ends a line and ``np.loadtxt`` does not
_LOOP_ONLY_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
_EDGE_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def _integer_edges(text: str) -> Optional[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """``(n, i, j, w)`` of integer-id text, read in one ``np.loadtxt`` pass.

    Returns exactly what the line loop of :func:`parse_edge_list` passes to
    ``_connected_graph``, or None for text the loop must decide: non-ASCII
    text, a line break the loop sees and ``loadtxt`` does not, a ``#`` after
    the first data line, a bad ``n`` header, no edge line, or any line
    ``loadtxt`` refuses or warns about (labels, a non-integer or out-of-int64
    id, a weight ``float`` would read differently, a line without 3 tokens).
    """
    if not text.isascii() or text.count("\r") != text.count("\r\n") or any(c in text for c in _LOOP_ONLY_BREAKS):
        return None
    declared_n, start = None, 0
    while start < len(text):  # leading blank and comment lines, then the optional ``n N`` header
        end = text.find("\n", start) + 1 or len(text)
        line = text[start:end].strip()
        if line and not line.startswith("#"):
            parts = line.split()
            if len(parts) == 2 and parts[0] == "n":
                try:
                    declared_n = int(parts[1])
                except ValueError:
                    return None
                start = end
            break
        start = end
    if text.find("#", start) >= 0:
        return None
    body = io.BytesIO(text.encode("ascii"))  # a byte stream needs a quarter of a StringIO's memory
    body.seek(start)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy < 2 reads the id "1.0" as 1 with only a DeprecationWarning
        try:
            edges = np.loadtxt(body, dtype=_EDGE_DTYPE, comments=None, quotechar=None, ndmin=1)
        except (ValueError, Warning):  # an empty body warns that it holds no data
            return None
    i, j = edges["i"], edges["j"]
    n = declared_n if declared_n is not None else 1 + int(max(i.max(), j.max()))
    return n, i, j, edges["w"]


def parse_edge_list(text: str) -> SignedGraph:
    """Parse edge-list text into a validated :class:`SignedGraph`."""
    text = text.removeprefix("\ufeff")
    edges = _integer_edges(text)
    if edges is not None:
        return _connected_graph(*edges)
    declared_n: Optional[int] = None
    header_line = 0  # the line of the 'n N' header, once read
    ids_i: list[int] = []
    ids_j: list[int] = []
    weights: list[float] = []
    labels: Optional[dict[str, int]] = None  # set when the first edge line has a non-integer id
    first = True

    for line_no, line in _data_lines(text):
        parts = line.split()
        if first and len(parts) == 2 and parts[0] == "n":
            try:
                declared_n, header_line = int(parts[1]), line_no
            except ValueError:
                raise EdgeListParseError(line_no, f"invalid node count {parts[1]!r}")
            first = False
            continue
        first = False
        if len(parts) != 3:
            raise EdgeListParseError(line_no, f"expected 'i j w', got {line!r}")
        tok_i, tok_j, tok_w = parts
        try:
            w = float(tok_w)
        except ValueError:
            raise EdgeListParseError(line_no, f"invalid weight {tok_w!r}")
        if labels is None:
            try:
                i, j = int(tok_i), int(tok_j)
            except ValueError:
                if weights:
                    raise EdgeListParseError(line_no, f"mixed integer ids and labels at {line!r}")
                labels = {}
        if labels is not None:
            i = labels.setdefault(tok_i, len(labels))
            j = labels.setdefault(tok_j, len(labels))
        ids_i.append(i)
        ids_j.append(j)
        weights.append(w)

    if not weights and declared_n is None:
        raise EdgeListParseError(1, "no edges found")
    label_table = None
    if labels is not None:
        label_table = list(labels)  # dicts keep insertion order, which is id order
        if declared_n is not None and declared_n != len(labels):
            raise EdgeListParseError(header_line, f"declared n {declared_n} does not match {len(labels)} labels")
        n = len(labels)
    else:
        n = declared_n if declared_n is not None else 1 + max(max(ids_i), max(ids_j))
    return _connected_graph(n, ids_i, ids_j, weights, labels=label_table)


def load_graph(path: PathLike) -> SignedGraph:
    """Parse the UTF-8 edge-list file at ``path``; an undecodable byte is an error at its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[:exc.start].decode("utf-8") + "?").splitlines())  # "?" stands for the bad byte
        raise EdgeListParseError(line_no, f"byte 0x{data[exc.start]:02x} is not UTF-8 text") from None
    return parse_edge_list(text)


_EDGE_BLOCK = 2**16  # edges formatted per block; bounds the text held at once


def _float_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each value of ``values`` as a Python float, in C order, with
    one ``repr`` call per distinct bit pattern (float equality would merge
    ``-0.0`` with ``0.0``): the shortest text that reads back to the double."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.int64).ravel(),
                              return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _node_names(G: SignedGraph) -> Optional[np.ndarray]:
    """The labels as an object array, checked to read back as the same labels;
    None for an unlabelled graph."""
    if G.labels is None:
        return None
    seen: set[str] = set()
    for label in G.labels:
        if label.split() != [label] or label.startswith("#"):
            raise UnwritableLabelError(f"label {label!r} cannot be written to an edge list: a label must be "
                                       f"nonempty, hold no whitespace and not start with '#'")
        if label in seen:
            raise UnwritableLabelError(f"label {label!r} is repeated; an edge list would read it back as one node")
        seen.add(label)
    try:
        "".join(G.labels).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise UnwritableLabelError(f"a label holds {exc.object[exc.start]!r}, which UTF-8 cannot encode") from None
    if G.num_edges == 0:
        raise UnwritableLabelError("a labelled graph without edges reads back without its labels")
    a, b = G.labels[G.i[0]], G.labels[G.j[0]]
    try:
        int(a), int(b)  # the parser reads integer ids when this succeeds on the first edge line
    except ValueError:
        return np.array(G.labels, dtype=object)
    raise UnwritableLabelError(f"labels {a!r} and {b!r} of the first edge read back as integer ids, "
                               f"so every label would be read as one")


def _edge_list_blocks(G: SignedGraph, header: Optional[str], names: Optional[np.ndarray]) -> Iterator[str]:
    """The text of :func:`format_edge_list`: the header and ``n`` lines, then
    the edge lines in blocks of :data:`_EDGE_BLOCK`."""
    lines = [f"# {h}" for h in header.splitlines()] if header else []
    yield "".join(f"{line}\n" for line in [*lines, f"n {G.n}"])
    for start in range(0, G.num_edges, _EDGE_BLOCK):
        block = slice(start, start + _EDGE_BLOCK)
        i, j = G.i[block], G.j[block]
        if names is not None:
            i, j = names[i], names[j]
        yield "".join([f"{a} {b} {w}\n" for a, b, w in zip(i.tolist(), j.tolist(), _float_texts(G.w[block]))])


def format_edge_list(G: SignedGraph, header: Optional[str] = None) -> str:
    """Serialize a graph; ``load`` of the result reproduces it exactly, except
    that a labelled graph reads back with its ids in order of first
    appearance in the edge lines.  Raises :class:`UnwritableLabelError` for
    labels that would not read back as the same labels: empty, holding
    whitespace or a character UTF-8 cannot encode, starting with ``#`` or
    repeated, no edges to carry them, or a first edge whose two labels both
    read as integer ids."""
    return "".join(_edge_list_blocks(G, header, _node_names(G)))


def write_edge_list(G: SignedGraph, path: PathLike, header: Optional[str] = None) -> None:
    """Write :func:`format_edge_list` text as UTF-8, one block of edges at a
    time; labels are checked before the file is opened."""
    names = _node_names(G)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_edge_list_blocks(G, header, names))


# ---------------------------------------------------------------------------
# trajectory CSV and activation JSON
# ---------------------------------------------------------------------------

_BLOCK_VALUES = 2048  # values formatted per block; bounds the extra memory
_T = "<t>"  # step placeholder in the row template


def write_trajectory_csv(states: np.ndarray, path: PathLike) -> None:
    """Write a (T+1, n) state array as CSV rows ``t,node,value``."""
    states = np.asarray(states)
    n = states.shape[1]
    template = "".join(f"{_T},{node},%s\r\n" for node in range(n))
    step = max(1, _BLOCK_VALUES // max(n, 1))
    with open(path, "w", newline="") as fh:
        fh.write("t,node,value\r\n")
        for start in range(0, states.shape[0], step):
            block = states[start:start + step]
            values = _float_texts(block)
            fh.write("".join(
                template.replace(_T, str(start + r)) % tuple(values[r * n:(r + 1) * n])
                for r in range(block.shape[0])
            ))


def activation_sets_to_json(activations) -> list[dict]:
    """One record per step: active node lists split by state sign, read off
    each step's int8 sign row, whose nonzero ids come out in ascending order."""
    return [
        {"t": t, "plus": np.flatnonzero(row > 0).tolist(), "minus": np.flatnonzero(row < 0).tolist()}
        for t, row in enumerate(activations._signs)
    ]


# ---------------------------------------------------------------------------
# JSON views of analysis results
# ---------------------------------------------------------------------------

def classification_to_json(classification, measures=None) -> dict:
    balanced, antibalanced = classification.balanced_partition, classification.antibalanced_partition
    doc = {
        "verdict": classification.verdict.value,
        "balanced_partition": None if balanced is None else balanced.s.tolist(),
        "antibalanced_partition": None if antibalanced is None else antibalanced.s.tolist(),
    }
    if measures is not None:
        doc["d_b"] = measures.d_b
        doc["d_a"] = measures.d_a
    return doc


def measures_to_json(measures, verdict) -> dict:
    return {
        "d_b": measures.d_b,
        "d_a": measures.d_a,
        "rho_signed": measures.spectral_radius_signed,
        "rho_unsigned": measures.spectral_radius_unsigned,
        "contraction": measures.contraction,
        "verdict": verdict.value,
    }


def frustration_to_json(report) -> dict:
    return {
        "target": report.target,
        "flip_count": report.flip_count,
        "flipped_weight": report.flipped_weight,
        "flip_set": [[e.i, e.j, e.w] for e in report.flip_set],
        "exact": report.exact,
    }


#: the values ``json`` lays out over several lines; any other value is one
#: token of the C encoder
_CONTAINERS = (dict, list, tuple, np.ndarray)


@functools.cache
def _encoder(depth: int):
    """The JSON text of a value, from a C JSON encoder whose item separator
    starts the next item at ``depth``, as ``json.dumps(indent=2)`` does
    inside a container at ``depth - 1``.  The C encoder is built once per
    depth and called as ``JSONEncoder.encode`` calls it, which builds one on
    every call; ``encode`` itself where ``json`` has no C encoder."""
    options = json.JSONEncoder(separators=(",\n" + "  " * depth, ": "), allow_nan=False, check_circular=False)
    if json.encoder.c_make_encoder is None:
        return options.encode
    encode = json.encoder.c_make_encoder(None, options.default, json.encoder.encode_basestring_ascii, options.indent,
                                         options.key_separator, options.item_separator, options.sort_keys,
                                         options.skipkeys, options.allow_nan)
    return lambda value: "".join(encode(value, 0))


def _texts(values) -> list[str]:
    """The JSON text of each item of a list, or each ``"key": value`` of a
    dict, none of them a container, from one C-encoder call: an encoded
    string holds no raw line break, so only separators split on one."""
    return _encoder(0)(values)[1:-1].split(",\n") if values else []


def _block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Item texts laid out as ``json.dumps(indent=2)`` lays out a container at ``depth``."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def _holds_no_container(values) -> bool:
    return not any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _layout(value, depth: int) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)`` for a value at
    ``depth``, with arrays written as the lists of their values."""
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64 or value.ndim not in (1, 2):
            return _layout(value.tolist(), depth)
        if not np.isfinite(value).all():
            raise ValueError("Out of range float values are not JSON compliant")
        texts = _float_texts(value)
        if value.ndim == 1:
            return _block(texts, depth)
        n = value.shape[1]
        return _block([_block(texts[r * n:(r + 1) * n], depth + 1) for r in range(value.shape[0])], depth)
    if isinstance(value, dict):
        # a container value is encoded as the placeholder 0, then replaced
        items = _texts({k: 0 if isinstance(v, _CONTAINERS) else v for k, v in value.items()})
        return _block([t[:-1] + _layout(v, depth + 1) if isinstance(v, _CONTAINERS) else t
                       for t, v in zip(items, value.values())], depth, "{}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _holds_no_container(value):  # one C call lays the list out
            return "[\n" + "  " * (depth + 1) + _encoder(depth + 1)(value)[1:-1] + "\n" + "  " * depth + "]"
        if all(isinstance(v, (list, tuple)) for v in value):  # one C call encodes every value of a table
            flat = list(itertools.chain.from_iterable(value))
            if _holds_no_container(flat):
                texts, pad = _texts(flat), "\n" + "  " * (depth + 2)
                opening, sep, closing = "[" + pad, "," + pad, "\n" + "  " * (depth + 1) + "]"
                return _block([opening + sep.join(texts[end - len(row):end]) + closing if row else "[]"
                               for row, end in zip(value, itertools.accumulate(map(len, value)))], depth)
        scalars = iter(_texts([v for v in value if not isinstance(v, _CONTAINERS)]))
        return _block([_layout(v, depth + 1) if isinstance(v, _CONTAINERS) else next(scalars) for v in value], depth)
    return _texts([value])[0]


def dump_json(doc, path: Optional[PathLike] = None) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False)``, with arrays written as
    the lists of their values; written to ``path`` with a final line break
    when given."""
    text = _layout(doc, 0)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
