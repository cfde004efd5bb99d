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
``ValueError``.  A float64 array (trajectory states, JSON arrays, edge
weights) is encoded without calling ``repr``: :func:`_float_chars` turns
each distinct bit pattern into the same text by uint64 array arithmetic
(Schubfach's shortest digits, then ``repr``'s layout) in blocks of
:data:`_FLOAT_BLOCK` values, so a trajectory of few distinct states costs
little.  The CSV rows are assembled as bytes from those text rows;
:func:`_float_texts` gives the texts as Python strings.

JSON: :func:`dump_json` writes exactly the text of ``json.dumps(doc,
indent=2, allow_nan=False)``, with arrays written as the lists of their
values.  Each list of non-container values is one call of a C
encoder (``json.JSONEncoder`` without indent, its item separator the line
break and indent of that depth), each block of :data:`_TABLE_ROWS` rows of
a list of such lists one call over all their values, and only the nesting
is laid out in Python.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import warnings
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Union

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


# ---------------------------------------------------------------------------
# float text: shortest round-trip digits by uint64 array arithmetic
# ---------------------------------------------------------------------------

_FLOAT_BLOCK = 2048  # doubles formatted per block; bounds the temporaries near half a megabyte
_TEXT_WIDTH = 24  # the longest text, "-1.2345678901234567e-308"
_BIAS = 400  # decimal exponents are stored plus _BIAS, so that every operand is a uint64


def _u64(value: int) -> np.ndarray:
    return np.array(value, np.uint64)  # a 0-d array: cheaper in a ufunc call than a numpy scalar


_SIGN, _MANTISSA, _INF = _u64(2**63), _u64(2**52 - 1), _u64(0x7FF << 52)
_LOW32, _32, _E4, _E8 = _u64(2**32 - 1), _u64(32), _u64(10**4), _u64(10**8)
_1, _2, _3, _4, _7, _10, _40, _51, _63, _EXPONENT = map(_u64, (1, 2, 3, 4, 7, 10, 40, 51, 63, 0xFFE))
_NONZERO = _u64(2**63 - 1)
_ROUND_UP = _u64(0b11001000)  # bit j set when vb & 7 == j rounds s up: past the midpoint, or on it with s odd


class _FloatTables(NamedTuple):
    #: by binary index: the column of ``scaling`` and of ``powers``
    scaling_of: np.ndarray
    powers_of: np.ndarray
    #: rows: the hidden bit, the shift h + 2, and the offsets of the lower and
    #: upper bounds from the scaled value (the lower one as its two's
    #: complement); one column per distinct set
    scaling: np.ndarray
    #: rows: the four 32-bit limbs of the 128-bit power of ten g, low first,
    #: and the biased decimal exponent k of the result; one column per k
    powers: np.ndarray
    tens: np.ndarray  # 10^0 to 10^17
    normalize: np.ndarray  # by digit count: 10^(17 - count)
    #: by the biased decimal point position x (the digits of d 10^e fill x
    #: - _BIAS places before the point): 10^(4 - zeros after "0."), the
    #: index of the last digit before the point, the shortest text length
    #: (point + 3 in positional layout, 0 in scientific), whether scientific
    scale: np.ndarray
    point: np.ndarray
    lowest: np.ndarray
    scientific: np.ndarray
    suffix: np.ndarray  # (5, 1024) by x: "e+XX" or "e-XXX" in scientific layout
    groups: np.ndarray  # the four ASCII digits of each of 0000 to 9999 as one uint32


@functools.cache
def _float_tables() -> _FloatTables:
    """The tables of :func:`_float_chars`, built once; each g from Python
    integers.  A double with biased binary exponent ``be`` and significand
    bits ``m`` has binary index ``be << 1 | (m == 0)``.  Exponent 0 shares the
    entries of exponent 1, ``m == 0`` marks the uneven spacing below a power
    of two only from exponent 2 on, and inf and nan get finite garbage."""
    index = np.arange(4096)
    be = np.clip(index >> 1, 1, 2046)
    uneven = (index & 1) * (be > 1)
    q = be - 1075  # the double is c 2^q
    k = (q * 1262611 - 524031 * uneven) >> 22  # floor(log10(2^q)), of 3/4 2^q when uneven
    r = (-k * 1741647) >> 19  # floor(log2(10^-k))
    h = q + r + 1  # 1 <= h <= 4
    ks, first, powers_of = np.unique(k, return_index=True, return_inverse=True)
    g = [((10**-kk if kk <= 0 else 1) << max(127 - rr, 0)) // ((1 if kk <= 0 else 10**kk) << max(rr - 127, 0)) + 1
         for kk, rr in zip(ks.tolist(), r[first].tolist())]  # floor(10^-k 2^(127 - r)) + 1, in [2^127, 2^128)
    powers = np.array([[v >> (32 * limb) & 0xFFFFFFFF for v in g] for limb in range(4)] + [(ks + _BIAS).tolist()],
                      np.uint64)
    _, first, scaling_of = np.unique((index > 1) * 16 + h * 2 + uneven, return_index=True, return_inverse=True)
    scaling = np.array([(index > 1) << 52, h + 2, -((2 - uneven) << h), 2 << h])[:, first].astype(np.uint64)
    x = np.arange(1024) - _BIAS  # repr's decimal point position
    positional = (-4 < x) & (x <= 16)
    point = np.where(positional, np.maximum(x - 1, 0), 0)
    suffix = np.zeros((5, 1024), np.uint8)
    exponents = [b"e%+03d" % (e - 1) for e in x[~positional].tolist()]
    suffix[:, ~positional] = np.array(exponents, "S5").view(np.uint8).reshape(-1, 5).T
    tens = 10 ** np.arange(18, dtype=np.uint64)
    digits = np.arange(10000, dtype=np.uint16)[:, None] // tens[3::-1].astype(np.uint16) % np.uint16(10) + np.uint16(48)
    return _FloatTables(scaling_of.ravel().astype(np.uint8), powers_of.ravel().astype(np.uint16),
                        scaling, powers, tens,
                        tens[np.maximum(17 - np.arange(19), 0)], tens[np.where(positional, np.minimum(x + 3, 4), 4)],
                        point.astype(np.uint8), ((point + 3) * positional).astype(np.uint8), ~positional, suffix,
                        digits.astype(np.uint8).view(np.uint32).ravel())


def _round_to_odd(cp: np.ndarray, g: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^128) of each cp < 2^60, its last bit set when bits 65
    to 127 of g cp are not all zero, for the 128-bit g given as four rows of
    32-bit limbs: the exact product in 32-bit limbs, computed in place in cp
    and five buffers like it."""
    a0 = cp & _LOW32
    a1 = np.right_shift(cp, _32, out=cp)
    b, c, x = a0 * g[1], a1 * g[0], a0 * g[0]  # x = floor(cp (g mod 2^64) / 2^64), by columns
    x >>= _32
    tmp = b & _LOW32
    x += tmp
    x += np.bitwise_and(c, _LOW32, out=tmp)
    x >>= _32
    x += np.right_shift(b, _32, out=b)
    x += np.right_shift(c, _32, out=c)
    x += np.multiply(a1, g[1], out=tmp)
    low, mid, high = np.multiply(a0, g[2], out=b), np.multiply(a0, g[3], out=c), np.multiply(a1, g[2], out=a0)
    top = np.multiply(a1, g[3], out=a1)  # top 2^128 + y1 2^96 + y0 2^64 = cp (g >> 64) 2^64 + x 2^64
    y0 = np.bitwise_and(low, _LOW32, out=tmp)
    y0 += x  # its low half is that of y0, its high half that of x plus y0's carry
    y1 = np.right_shift(low, _32, out=low)
    y1 += np.bitwise_and(mid, _LOW32, out=x)
    y1 += np.bitwise_and(high, _LOW32, out=x)
    y1 += np.right_shift(y0, _32, out=x)
    top += np.right_shift(mid, _32, out=mid)
    top += np.right_shift(high, _32, out=high)
    top += np.right_shift(y1, _32, out=x)
    y1 &= _LOW32
    y0 &= _LOW32
    y1 |= np.right_shift(y0, _1, out=y0)
    y1 += _NONZERO  # bit 63 set when y1 is not zero
    top |= np.right_shift(y1, _63, out=y1)
    return top


def _shortest(bits: np.ndarray, t: _FloatTables) -> tuple[np.ndarray, np.ndarray]:
    """``(d, e)`` for each finite nonzero double (uint64 bit patterns, sign
    ignored): d 10^(e - _BIAS) is the decimal with the fewest digits that reads
    back as the double, the closest such, and of two as close the one with an
    even last digit.  This is Giulietti's Schubfach without Java's two-digit
    minimum: the value and the ends of its rounding interval scaled by
    10^-k, with k from the binary exponent, decide between the one-digit-shorter
    multiples of 10^(k+1) and the two multiples of 10^k around the value."""
    m = bits & _MANTISSA
    index = ((bits >> _51) & _EXPONENT) | (m == 0)
    scaling = t.scaling.take(t.scaling_of.take(index), axis=1)
    c = m | scaling[0]
    cp = np.empty((3, len(bits)), np.uint64)
    np.left_shift(c, scaling[1], out=cp[0])
    np.add(cp[0], scaling[2:], out=cp[1:])
    del m, scaling
    g = t.powers.take(t.powers_of.take(index), axis=1)
    del index
    vb, lower, upper = _round_to_odd(cp, g)
    odd = c & _1  # an even significand reads back from the ends of its interval too
    lower += odd
    upper -= odd
    s = vb >> _2
    s10 = s // _10
    s40 = s10 * _40
    u10 = lower <= s40
    w10 = (s40 + _40) <= upper
    shorter = (u10 != w10) & (s >= _10)  # exactly one multiple of 10^(k+1) is inside
    s4 = vb - (vb & _3)
    w_in = (s4 + _4) <= upper
    up = np.where((lower <= s4) != w_in, w_in, (_ROUND_UP >> (vb & _7)) & _1)  # else the closer
    return np.where(shorter, s10 + w10, s + up), g[4] + shorter


_ROWS = np.arange(_TEXT_WIDTH, dtype=np.uint8)[:, None]
_DIGIT_ROWS = np.arange(1, 22, dtype=np.uint8)[:, None]


def _float_block(bits: np.ndarray, t: _FloatTables) -> np.ndarray:
    """The ``repr`` text of each double in ``bits`` as a column of a
    (_TEXT_WIDTH, len(bits)) uint8 array, padded with NUL bytes."""
    n = len(bits)
    d, e = _shortest(bits, t)
    count = np.searchsorted(t.tens, d, side="right").astype(np.uint64)  # the digits of d
    x = e + count
    # the digit stream as 21 digits in three words: the zeros after "0.", the
    # digits of d, zeros; the words split into groups of four digits
    # (floor_divide and a multiply-subtract: np.divmod is several times slower)
    lo = d * t.normalize.take(count)
    hi = lo // _E8
    lo -= hi * _E8
    del d, e, count
    scale = t.scale.take(x)
    lo *= scale
    hi *= scale
    words = np.empty((3, n), np.uint64)
    carry = lo // _E8
    np.subtract(lo, carry * _E8, out=words[2])
    hi += carry
    np.floor_divide(hi, _E8, out=words[0])
    np.subtract(hi, words[0] * _E8, out=words[1])
    del hi, lo, carry, scale
    groups = np.empty((3, 2, n), np.uint64)
    np.floor_divide(words, _E4, out=groups[:, 0])
    np.subtract(words, groups[:, 0] * _E4, out=groups[:, 1])
    chars = t.groups.take(groups.reshape(6, n), mode="clip").view(np.uint8).reshape(6, n, 4)
    del words, groups
    field = np.zeros((_TEXT_WIDTH + 3, n), np.uint8)  # "000" and the stream, then three NUL rows
    field[:24].reshape(6, 4, n)[...] = chars.transpose(0, 2, 1)
    del chars
    stream, shifted = field[3:], field[2:-1]
    last = ((stream[:21] != 48) * _DIGIT_ROWS).max(axis=0)  # one past the last nonzero digit
    point = t.point.take(x)
    end = np.maximum(t.lowest.take(x), last + 1)
    sci = t.scientific.take(x)
    any_sci = sci.any()
    if any_sci:
        end -= sci & (last == 1)  # one digit: no point
    after = _ROWS < end
    text = stream * (_ROWS <= point)
    point += 1
    text += shifted * ((_ROWS > point) & after)
    text += np.uint8(46) * ((_ROWS == point) & after)
    if any_sci:  # the suffix at rows end to end + 4: row end + j starts row j of a padded mask
        starts = np.zeros((_TEXT_WIDTH + 4, n), np.uint8)
        np.equal(_ROWS, end, out=starts[4:].view(bool))
        for j, chars in enumerate(t.suffix.take(x, axis=1)):
            if j < 4 or chars.any():  # a fifth character only for a three-digit exponent
                text += starts[4 - j:4 - j + _TEXT_WIDTH] * chars
    magnitude = bits & ~_SIGN
    if ((magnitude == 0) | (magnitude >= _INF)).any():
        for word, mask in ((b"0.0", magnitude == 0), (b"inf", magnitude == _INF), (b"nan", magnitude > _INF)):
            text[:, mask] = np.frombuffer(word.ljust(_TEXT_WIDTH, b"\0"), np.uint8)[:, None]
    negative = (bits - _SIGN) <= _INF  # nan is written without its sign
    if negative.any():  # shifted down a row, "-" in row 0
        text[1:] += negative * (text[:-1] - text[1:])
        text[0] += negative * (np.uint8(45) - text[0])
    return text


def _float_chars(bits: np.ndarray) -> np.ndarray:
    """The ``repr`` text of each double in ``bits`` (uint64 bit patterns) as a
    row of an (len(bits), _TEXT_WIDTH) uint8 array, padded with NUL bytes:
    Schubfach digits and ``repr``'s layout, in blocks of _FLOAT_BLOCK."""
    t = _float_tables()
    out = np.empty((len(bits), _TEXT_WIDTH), np.uint8)
    for start in range(0, len(bits), _FLOAT_BLOCK):
        out[start:start + _FLOAT_BLOCK] = _float_block(bits[start:start + _FLOAT_BLOCK], t).T
    return out


def _distinct_float_chars(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(chars, inverse)``: the ``_float_chars`` row of each distinct bit
    pattern of ``values`` (float equality would merge ``-0.0`` with ``0.0``),
    and the row of each value, in C order."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.int64).ravel(),
                              return_inverse=True)
    return _float_chars(bits.view(np.uint64)), inverse.ravel()


def _float_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each value of ``values`` as a Python float, in C order: the
    shortest text that reads back to the double, from one ``_float_chars`` row
    per distinct bit pattern."""
    chars, inverse = _distinct_float_chars(values)
    lines = np.zeros((len(chars), _TEXT_WIDTH + 1), np.uint8)
    lines[:, :-1], lines[:, -1] = chars, 10
    texts = np.array(lines[lines != 0].tobytes().decode("ascii").split("\n")[:-1], dtype=object)
    return texts[inverse].tolist()


_EDGE_BLOCK = 2**16  # edges formatted per block; bounds the text held at once


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

_BLOCK_VALUES = 4096  # values written per block; bounds the extra memory


def _byte_texts(values) -> np.ndarray:
    """The ASCII text of each value as a fixed-width bytes array."""
    texts = [str(v).encode("ascii") for v in values]
    return np.array(texts, dtype=f"S{max(map(len, texts), default=1)}")


def write_trajectory_csv(states: np.ndarray, path: PathLike) -> None:
    """Write a (T+1, n) state array as CSV rows ``t,node,value``.  A block of
    whole steps is one fixed-width record per row (the step, ``,node,``, the
    value's text row, CRLF, each padded with NUL bytes), written as the
    record bytes without the NULs."""
    states = np.asarray(states)
    n = states.shape[1]
    nodes = _byte_texts(f",{node}," for node in range(n))
    record = np.dtype([("t", _byte_texts([states.shape[0]]).dtype), ("node", nodes.dtype),
                       ("value", f"S{_TEXT_WIDTH}"), ("end", "S2")])
    step = max(1, _BLOCK_VALUES // max(n, 1))
    with open(path, "wb") as fh:
        fh.write(b"t,node,value\r\n")
        for start in range(0, states.shape[0], step):
            block = states[start:start + step]
            chars, inverse = _distinct_float_chars(block)
            rows = np.empty(block.shape, record)
            rows["t"] = _byte_texts(range(start, start + len(block)))[:, None]
            rows["node"] = nodes
            # mode "clip" writes straight into the field; the default mode would buffer the whole take
            np.take(chars.view(record["value"]).ravel(), inverse, out=rows["value"].reshape(-1), mode="clip")
            rows["end"] = b"\r\n"
            fh.write(rows.tobytes().translate(None, b"\0"))


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


_TABLE_ROWS = 4096  # table rows encoded per block; bounds the texts held at once


def _table_rows(rows: list, depth: int) -> str:
    """The rows of a table at ``depth``, each laid out as ``_layout`` lays it
    out, joined by the item separator: rows of non-container values from one
    C call over all their values."""
    flat = list(itertools.chain.from_iterable(rows))
    if not _holds_no_container(flat):
        return (",\n" + "  " * depth).join(_layout(row, depth) for row in rows)
    texts, pad = _texts(flat), "\n" + "  " * (depth + 1)
    opening, sep, closing = "[" + pad, "," + pad, "\n" + "  " * depth + "]"
    return (",\n" + "  " * depth).join([opening + sep.join(texts[end - len(row):end]) + closing if row else "[]"
                                         for row, end in zip(rows, itertools.accumulate(map(len, rows)))])


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
        if all(isinstance(v, (list, tuple)) for v in value):  # a table, such as a flip set
            return _block([_table_rows(value[start:start + _TABLE_ROWS], depth + 1)
                           for start in range(0, len(value), _TABLE_ROWS)], depth)
        scalars = iter(_texts([v for v in value if not isinstance(v, _CONTAINERS)]))
        return _block([_layout(v, depth + 1) if isinstance(v, _CONTAINERS) else next(scalars) for v in value], depth)
    return _texts([value])[0]


def _joined_json(*texts: str) -> str:
    """The layout of one object holding, in order, the members of the
    nonempty objects that :func:`dump_json` laid out as ``texts``: their
    members sit at the same depth, so each text is reused as it stands."""
    return "{\n" + ",\n".join(t[2:-2] for t in texts) + "\n}"


def dump_json(doc, path: Optional[PathLike] = None) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False)``, with arrays written as
    the lists of their values; written to ``path`` with a final line break
    when given."""
    text = _layout(doc, 0)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
