import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import signednet as sn
import signednet.io as sio
from signednet.cli import _cmd_simulate, build_parser, initial_state, main
from signednet.core import _KEY_MAX_NODES
from signednet.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListParseError,
    IdOutOfRangeError,
    NonFiniteStateError,
    NonFiniteWeightError,
    NonpositiveThresholdError,
    SignedNetError,
    UnwritableLabelError,
    ZeroWeightError,
)
from signednet.io import (
    _BLOCK_VALUES,
    dump_json,
    format_edge_list,
    load_graph,
    parse_edge_list,
    write_trajectory_csv,
)

from helpers import format_edge_list_reference, read_trajectory_csv, write_trajectory_reference


class TestEdgeListFormat:
    def test_basic_parse_with_comments_and_count(self):
        G = parse_edge_list("# a comment\nn 3\n0 1 1.0\n# more\n1 2 -0.5\n0 2 1.0\n")
        assert G.n == 3 and G.edges[1] == (1, 2, -0.5)

    def test_node_count_inferred(self):
        G = parse_edge_list("0 1 1\n1 2 1\n0 2 1\n")
        assert G.n == 3

    def test_labels_mapped_in_first_appearance_order(self):
        G = parse_edge_list("alpha beta 1\nbeta gamma -1\nalpha gamma 1\n")
        assert G.labels == ("alpha", "beta", "gamma")
        assert G.edges[1] == (1, 2, -1.0)

    def test_malformed_line_names_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("0 1 1.0\n0 1\n")

    def test_bad_weight_rejected(self):
        with pytest.raises(EdgeListParseError, match="weight"):
            parse_edge_list("0 1 heavy\n")

    def test_mixed_ids_and_labels_rejected(self):
        with pytest.raises(EdgeListParseError, match="mixed"):
            parse_edge_list("0 1 1.0\n0 alpha -1.0\n")

    def test_round_trip_byte_identical(self):
        G = sn.ssbm(sn.SSBMParams(n1=5, n2=5, p_in=0.7, p_out=0.3, eta=0.2, alpha=0.1, seed=3))
        text = format_edge_list(G)
        assert format_edge_list(parse_edge_list(text)) == text

    def test_round_trip_preserves_labels(self, tmp_path):
        G = parse_edge_list("x y 1.5\ny z -2.5\n")
        path = tmp_path / "g.edges"
        sn.write_edge_list(G, path, header="demo")
        again = load_graph(path)
        assert again.labels == G.labels and again.edges == G.edges


def parse_outcome(text: str, loop: bool = False):
    """What ``parse_edge_list`` makes of ``text``: the graph (weights as bit
    patterns) or the error's type and message.  ``loop`` forces the line loop."""
    with mock.patch.object(sio, "_integer_edges", return_value=None) if loop else contextlib.nullcontext():
        try:
            G = parse_edge_list(text)
        except SignedNetError as exc:
            return type(exc), str(exc)
    return G.n, G.labels, G.i.tolist(), G.j.tolist(), G.w.view(np.int64).tolist()


def _id_tokens(v: int) -> list[str]:
    return [str(v), f"+{v}", f"00{v}"] + (["-0"] if v == 0 else [])


_DECIMALS = st.one_of(
    st.floats().map(repr),
    st.from_regex(r"[+-]?([0-9]{1,25}(\.[0-9]{0,25})?|\.[0-9]{1,25})([eE][+-]?[0-9]{1,3})?", fullmatch=True),
)
_WEIGHT_TOKENS = st.one_of(
    _DECIMALS,
    st.sampled_from(["1", "-1", "0", "-0.0", ".5", "5.", "1E3", "+.5e-3", "nan", "-nan", "inf", "-Infinity",
                     "1e400", "1e-400", "1_0", "0x1p3", "1j", "heavy"]),
)
# characters where the loop and loadtxt might part ways: comments, line breaks
# only one of them sees, whitespace, NUL, non-ASCII digits and separators
_ODD_CHARS = "#\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x00\x85\u2028 \t\u00e9\u0661_.+-e"


@st.composite
def integer_id_texts(draw):
    """Integer-id edge-list text in the forms people and ``generate`` write:
    a path plus random pairs, with or without the ``n`` header, comment, blank
    and whitespace-only lines, a byte-order mark, LF or CRLF endings, spaces
    or tabs.  Half the files are wild: repeated pairs, self-loops, unused ids,
    a wrong header, odd weight tokens, comments between edges and at times one
    odd character inserted anywhere."""
    wild = draw(st.booleans())
    n = draw(st.integers(2, 8))
    pairs = [(k, k + 1) for k in range(n - 1)]
    if wild:
        pairs += draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=4))
    else:
        pairs += draw(st.sets(st.sampled_from([(a, b) for a in range(n) for b in range(a + 2, n)]), max_size=4)
                      if n > 2 else st.just(set()))
    pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in draw(st.permutations(pairs))]
    weights = _WEIGHT_TOKENS if wild else st.builds(
        lambda w, neg: repr(-w if neg else w), st.floats(1e-3, 1e3), st.booleans())
    sep = st.sampled_from([" ", "  ", "\t", " \t"])
    pad = st.sampled_from(["", "", " ", "\t"])
    filler = st.sampled_from(["", " ", "\t ", "# a comment", "  # n 3", "#"])
    lines = [draw(filler) for _ in range(draw(st.integers(0, 2)))]
    header = draw(st.sampled_from([None, n, n + 1] if wild else [None, n]))
    if header is not None:
        lines.append(f"n{draw(sep)}{header}")
    between = filler if wild else st.sampled_from(["", " ", "\t "])
    for a, b in pairs:
        tokens = [draw(st.sampled_from(_id_tokens(a))), draw(st.sampled_from(_id_tokens(b))), draw(weights)]
        lines.append(draw(pad) + draw(sep).join(tokens) + draw(pad))
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(between))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    if wild and draw(st.booleans()):  # put one odd character in place of a separator, or anywhere
        odd = draw(st.sampled_from(_ODD_CHARS))
        gaps = [k for k, c in enumerate(text) if c in " \t\n"]
        if gaps and draw(st.booleans()):
            at = draw(st.sampled_from(gaps))
            text = text[:at] + odd + text[at + 1:]
        else:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + odd + text[at:]
    return draw(st.sampled_from(["", "\ufeff"])) + text


class TestArrayParse:
    """Integer-id text takes one ``np.loadtxt`` pass (``io._integer_edges``),
    which either returns exactly what the line loop returns or hands the text
    to the loop; labels and every error stay the loop's."""

    @given(integer_id_texts())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_loop(self, text):
        assert parse_outcome(text) == parse_outcome(text, loop=True)

    @given(st.lists(_DECIMALS.filter(lambda t: 1e-15 <= abs(float(t)) < math.inf), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_weights_read_bit_for_bit(self, tokens):
        text = "".join(f"{k} {k + 1} {w}\n" for k, w in enumerate(tokens))
        assert sio._integer_edges(text) is not None
        assert parse_outcome(text) == parse_outcome(text, loop=True)

    @pytest.mark.parametrize("text, expected", [
        ("".join(f"{k} {k + 1} 1\n" for k in range(9)) + "1_0 0 1\n",
         "".join(f"{k} {k + 1} 1\n" for k in range(9)) + "10 0 1\n"),
        ("0 1 \u0661\n1 2 1\n0 2 1\n", "0 1 1.0\n1 2 1\n0 2 1\n"),
        ("0 1 1\x0c1 2 1\n0 2 1\n", "0 1 1\n1 2 1\n0 2 1\n"),
        ("0 1 1\r1 2 1\n0 2 1\n", "0 1 1\n1 2 1\n0 2 1\n"),
        ("# c\r0 1 1\n1 2 1\n0 2 1\n", "0 1 1\n1 2 1\n0 2 1\n"),
        ("# c\x0b0 1 1\n1 2 1\n0 2 1\n", "0 1 1\n1 2 1\n0 2 1\n"),
        ("0 1\x1e1\n1 2 1\n0 2 1\n", (EdgeListParseError, "line 1: expected 'i j w', got '0 1'")),
        ("0 1 0x1p3\n1 2 1\n0 2 1\n", (EdgeListParseError, "line 1: invalid weight '0x1p3'")),
        ("0 1 1\n1 2 1\n0 1e3 1\n", (EdgeListParseError, "line 3: mixed integer ids and labels at '0 1e3 1'")),
        ("0 1.0 1\n1.0 2 1\n0 2 1\n", (3, ("0", "1.0", "2"), [0, 1, 0], [1, 2, 2], [np.float64(1).view(np.int64)] * 3)),
        ("0 1 1\n1 2 1\n2 +3 1\n3 4 1\n4 5 1\n5 6 1\n6 007 1\n",
         "0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n5 6 1\n6 7 1\n"),
        ("0 1 1\n1 99999999999999999999 1\n",
         (IdOutOfRangeError, "node ids must be below 9223372036854775807, got a node count of 100000000000000000000")),
        ("0 1 1 # c\n1 2 1\n0 2 1\n", (EdgeListParseError, "line 1: expected 'i j w', got '0 1 1 # c'")),
        ("0 1 nan\n1 2 1\n0 2 1\n", (NonFiniteWeightError, "edge (0, 1) has non-finite weight nan")),
        ("0 1 1e400\n1 2 1\n0 2 1\n", (NonFiniteWeightError, "edge (0, 1) has non-finite weight inf")),
        ("0 1 1e-400\n1 2 1\n0 2 1\n", (ZeroWeightError, "edge (0, 1) has weight 0.0; |w| must exceed 1e-15")),
        ("0 " + "0" * 1000 + "1 0." + "3" * 2000 + "\n1 2 1\n0 2 1\n", "0 1 0.3333333333333333\n1 2 1\n0 2 1\n"),
        ("# header only\nn 1\n", (1, None, [], [], [])),
        ("# c\n# d\nn 5\na b 1\nb c -1\n", (EdgeListParseError, "line 3: declared n 5 does not match 3 labels")),
    ], ids=["underscore-id", "arabic-indic-weight", "form-feed-break", "bare-cr-break", "bare-cr-ends-a-comment",
            "vertical-tab-ends-a-comment", "record-separator-splits-an-edge", "hex-weight",
            "exponent-id", "float-id-is-a-label", "plus-and-zero-padded-ids", "20-digit-id", "inline-comment",
            "nan-weight", "overflowing-weight", "underflowing-weight", "long-tokens", "header-only",
            "label-count-names-the-header-line"])
    def test_the_loops_reading_of_edge_cases(self, text, expected):
        if isinstance(expected, str):
            expected = parse_outcome(expected, loop=True)
        assert parse_outcome(text) == parse_outcome(text, loop=True) == expected

    @pytest.mark.parametrize("labels", [False, True])
    def test_written_files_take_the_array_path(self, monkeypatch, labels):
        G = sn.ssbm(sn.SSBMParams(n1=20, n2=20, p_in=0.3, p_out=0.1, eta=0.2, alpha=0.7, seed=5))
        text = format_edge_list(G, header='ssbm {"n1": 20}')
        expected = parse_outcome(text, loop=True)

        def no_loop(text):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(sio, "_data_lines", no_loop)
        for variant in (text, "\ufeff" + text.replace("\n", "\r\n"), text.replace(" ", "\t")):
            assert parse_outcome(variant) == expected

    def test_a_loadtxt_warning_hands_the_text_to_the_loop(self, monkeypatch):
        # numpy 1.24 reads the id "1.0" as 1 with only a DeprecationWarning; the loop reads a label
        calls = []

        def lenient_loadtxt(fname, dtype, **kwargs):
            calls.append(fname)
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return np.array([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], dtype=dtype)

        monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
        text = "0 1.0 1\n1.0 2 1\n0 2 1\n"
        assert parse_outcome(text) == parse_outcome(text, loop=True)
        assert parse_edge_list(text).labels == ("0", "1.0", "2") and len(calls) == 2


class TestEdgeListWriter:
    @pytest.mark.parametrize("text", [
        "n 1\n",
        "".join(f"{k} {k + 1} {0.5 + k}\n" for k in range(14)),  # exactly two blocks
        "".join(f"v{k} v{k + 1} -{1 / (k + 1)!r}\n" for k in range(30)),
    ], ids=["no-edges", "two-blocks", "labels"])
    @pytest.mark.parametrize("header", [None, "", "one line", "two\nlines"])
    def test_blocks_match_one_join(self, tmp_path, monkeypatch, text, header):
        monkeypatch.setattr(sio, "_EDGE_BLOCK", 7)
        G = parse_edge_list(text)
        expected = format_edge_list_reference(G, header)
        assert format_edge_list(G, header=header) == expected
        sn.write_edge_list(G, tmp_path / "g.edges", header=header)
        assert (tmp_path / "g.edges").read_bytes() == expected.encode("utf-8")


    @pytest.mark.parametrize("weights", ["one", "two", "many"])
    @pytest.mark.parametrize("labels", [False, True])
    def test_distinct_weight_texts_match_one_repr_per_edge(self, tmp_path, monkeypatch, weights, labels):
        # the writer calls repr once per distinct weight; the reference once per edge
        monkeypatch.setattr(sio, "_EDGE_BLOCK", 50)
        G = sn.ssbm(sn.SSBMParams(n1=15, n2=15, p_in=0.6, p_out=0.3, eta=0.1, alpha=0.1, seed=4))
        rng, m = np.random.default_rng(1), G.num_edges
        w = {"one": np.full(m, 0.1), "two": G.w,
             "many": rng.uniform(1.0, 10.0, m) * 10.0 ** rng.integers(-14, 300, m) * rng.choice([-1.0, 1.0], m)}[weights]
        G = sn.build_graph(G.n, zip(G.i.tolist(), G.j.tolist(), w.tolist()),
                           labels=[f"v{k}" for k in range(G.n)] if labels else None)
        expected = format_edge_list_reference(G, "a header")
        assert len(set(G.w.tolist())) == {"one": 1, "two": 2, "many": G.num_edges}[weights]
        assert format_edge_list(G, header="a header") == expected
        sn.write_edge_list(G, tmp_path / "g.edges", header="a header")
        assert (tmp_path / "g.edges").read_bytes() == expected.encode("utf-8")


def _labelled_triangle(labels) -> sn.SignedGraph:
    return sn.build_graph(3, [(0, 1, 1.0), (1, 2, -1.0), (0, 2, 1.0)], labels=labels)


def _edge_set(G):
    """The edges by label pair, which a relabelling leaves unchanged."""
    names = G.labels if G.labels is not None else range(G.n)
    return {(frozenset((names[e.i], names[e.j])), e.w) for e in G.edges}


class TestLabelRoundTrip:
    """A labelled graph either reads back as the same labelled graph, its ids
    in order of first appearance, or is refused before anything is written."""

    @pytest.mark.parametrize("labels, problem", [
        (["2", "0", "1"], "read back as integer ids"),
        (["+1", "1_0", "\u0661"], "read back as integer ids"),
        (["a b", "c", "d"], "hold no whitespace"),
        (["a", "", "c"], "nonempty"),
        (["a", "b\x1c", "c"], "hold no whitespace"),
        (["a", "b", "#c"], "not start with '#'"),
        (["a", "b", "a"], "repeated"),
        (["a", "b\udc80", "c"], "UTF-8 cannot encode"),
    ], ids=["integer-like", "integer-like-forms", "space", "empty", "separator-char", "hash", "repeated",
            "lone-surrogate"])
    def test_unreadable_labels_are_refused_before_writing(self, tmp_path, labels, problem):
        G = _labelled_triangle(labels)
        with pytest.raises(UnwritableLabelError, match=problem):
            format_edge_list(G)
        path = tmp_path / "g.edges"
        with pytest.raises(UnwritableLabelError, match=problem):
            sn.write_edge_list(G, path)
        assert not path.exists()

    def test_labelled_graph_without_edges_is_refused(self):
        with pytest.raises(UnwritableLabelError, match="without edges"):
            format_edge_list(sn.build_graph(1, [], labels=["only"]))

    @pytest.mark.parametrize("labels", [["a", "2", "1"], ["2", "a", "1"], ["1.0", "2", "3"], ["x", "y", "z"]])
    def test_an_integer_like_label_off_the_first_edge_is_kept(self, labels):
        # the first edge is (0, 1): one label there that is not an integer makes every token a label
        G = _labelled_triangle(labels)
        again = parse_edge_list(format_edge_list(G))
        assert again.labels == G.labels and again.edges == G.edges

    def test_ids_read_back_in_order_of_first_appearance(self):
        G = sn.build_graph(3, [(1, 2, 1.0), (0, 2, -1.0)], labels=["c", "a", "b"])
        again = parse_edge_list(format_edge_list(G))
        assert again.labels == ("a", "b", "c") and _edge_set(again) == _edge_set(G)

    @given(st.lists(st.text(max_size=4), min_size=3, max_size=3), st.permutations([0, 1, 2]))
    @example(["0", "1", "2"], [0, 1, 2])
    @example(["a", "b", "c"], [2, 1, 0])
    @settings(max_examples=200, deadline=None)
    def test_written_labels_read_back_or_are_refused(self, labels, order):
        G = sn.build_graph(3, [(order[0], order[1], 1.0), (order[1], order[2], -2.5)], labels=labels)
        try:
            text = format_edge_list(G)
        except UnwritableLabelError:
            return
        again = parse_edge_list(text)
        assert again.labels is not None and sorted(again.labels) == sorted(G.labels)
        assert _edge_set(again) == _edge_set(G)


_SPECIAL_VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
                   1e300, -1e300, 1.0, -1.0, 0.1, 1 / 3]


@st.composite
def trajectories(draw):
    """States mixing special and arbitrary floats, heavily repeated, in shapes
    around the writer's block size: no rows, one node, a block boundary
    inside the array, and rows wider than one block."""
    block = _BLOCK_VALUES
    n = draw(st.sampled_from([0, 1, 2, 3, 500, block - 1, block, block + 1]))
    per_block = max(1, block // max(n, 1))
    rows = draw(st.sampled_from([0, 1, 2, per_block - 1, per_block, per_block + 1, 2 * per_block + 1]))
    pool = draw(st.lists(st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats(width=64)), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = np.array(pool)[rng.integers(len(pool), size=(rows, n))]
    if draw(st.booleans()):  # also many distinct values, of every magnitude
        distinct = rng.standard_normal(states.shape) * 10.0 ** rng.integers(-320, 300, states.shape)
        states = np.where(rng.random(states.shape) < 0.5, distinct, states)
    return states


def assert_same_lines(actual, expected):
    """Equal text or bytes; on failure names the first differing line, since
    pytest's own diff of megabyte strings takes minutes."""
    if actual != expected:
        got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
        k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"line {k}: {got[k:k + 1]!r} != {want[k:k + 1]!r} ({len(got)} vs {len(want)} lines)")


class TestTrajectoryCSV:
    def test_round_trip(self, tmp_path):
        states = np.array([[0.0, 1.0], [0.5, -0.25], [0.125, 0.0]])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(states, path)
        assert path.read_text().splitlines()[0] == "t,node,value"
        assert np.array_equal(read_trajectory_csv(path), states)

    @pytest.mark.parametrize("rows, problem", [
        ("0,0,1.5\r\n0,1,2.5\r\n1,1,3.5\r\n", "t=1, node=0 is missing"),
        ("0,0,1.5\r\n0,0,2.5\r\n", "t=0, node=0 is repeated"),
    ])
    def test_reference_reader_refuses_incomplete_grids(self, tmp_path, rows, problem):
        path = tmp_path / "traj.csv"
        path.write_text("t,node,value\r\n" + rows, newline="")
        with pytest.raises(ValueError, match=problem):
            read_trajectory_csv(path)

    @given(trajectories())
    @example(np.array([[0.0, -0.0, np.nan, -np.nan], [-0.0, 0.0, np.inf, -np.inf]]))  # -0.0 == 0.0 as floats
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_the_csv_writer_reference(self, states):
        with tempfile.TemporaryDirectory() as tmp:
            ref_path, path = Path(tmp) / "ref.csv", Path(tmp) / "traj.csv"
            with open(ref_path, "w", newline="") as fh:
                write_trajectory_reference(states, fh)
            write_trajectory_csv(states, path)
            assert_same_lines(path.read_bytes(), ref_path.read_bytes())

    def test_each_block_is_one_formatter_call(self, tmp_path, monkeypatch):
        n = 1000
        steps = _BLOCK_VALUES // n  # whole steps per block
        assert steps * n > 2048
        states = np.random.default_rng(5).standard_normal((3 * steps, n))  # three blocks of distinct values
        calls = []
        float_block = sio._float_block
        monkeypatch.setattr(sio, "_float_block", lambda bits, t: calls.append(len(bits)) or float_block(bits, t))
        write_trajectory_csv(states, tmp_path / "traj.csv")
        assert calls == [steps * n] * 3
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            write_trajectory_reference(states, fh)
        assert_same_lines((tmp_path / "traj.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes())

    @pytest.mark.parametrize("shape", [(0,), (7,), (3, 4), (4, 3)])
    def test_float_texts_are_one_repr_per_value(self, shape):
        values = np.array(_SPECIAL_VALUES)[np.random.default_rng(2).integers(len(_SPECIAL_VALUES), size=shape)]
        for array in (values, values.T):  # C order of a transposed view too
            assert sio._float_texts(array) == [repr(v) for v in array.ravel().tolist()]


def _with_neighbours(values) -> np.ndarray:
    """Each double of ``values``, its neighbours one ulp below and above, and
    the negatives of all three."""
    bits = np.array(values, dtype=np.float64).view(np.uint64)
    near = np.concatenate([bits - 1, bits, bits + 1]).view(np.float64)
    return np.concatenate([near, -near])


class TestFloatTexts:
    """``_float_texts`` is ``repr`` of each value, with ``repr`` as the oracle."""

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
    @example([0, 1, 2**63, 2**63 + 1, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF0000000000001,
              0xFFF8000000000123, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF])
    @settings(max_examples=500, deadline=None)
    def test_raw_bit_patterns_match_repr(self, patterns):
        # every pattern occurs: subnormals, nan of every sign and payload, -0.0, inf
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            texts = sio._float_texts(values)
        assert texts == [repr(v) for v in values.tolist()]

    @pytest.mark.parametrize("block", [None, 7])
    def test_powers_and_layout_switches_match_repr(self, monkeypatch, block):
        if block is not None:  # many blocks, the last one short
            monkeypatch.setattr(sio, "_BLOCK_VALUES", block)
        powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
        values = _with_neighbours(powers + [1e-5, 1e-4, 1e15, 1e16, 2.0**53, 0.1 + 0.2, 1.5e-300])
        assert sio._float_texts(values) == [repr(v) for v in values.tolist()]


def _as_lists(doc):
    """``doc`` with every array replaced by its nested lists of Python numbers."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _as_lists(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(_as_lists, doc))
    return doc


_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, 0.1, 1 / 3]))
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200), _FINITE, st.text())
_FLOAT_ARRAYS = st.builds(
    lambda pool, shape, seed: np.array(pool)[np.random.default_rng(seed).integers(len(pool), size=shape)],
    st.lists(_FINITE, min_size=1, max_size=6),
    st.one_of(st.tuples(st.integers(0, 6)), st.tuples(st.integers(0, 4), st.integers(0, 4))),
    st.integers(0, 2**32 - 1),
)
_KEYS = st.one_of(st.text(), st.sampled_from(["\u00e9t\u00e9", "\u4e2d", "\U0001f600", "a\nb", ""]))
JSON_DOCS = st.recursive(
    st.one_of(_JSON_SCALARS, _FLOAT_ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=5),
        st.lists(st.lists(_JSON_SCALARS, max_size=4), max_size=5),  # a table, such as a flip set
    ),
    max_leaves=25,
)


class TestDumpJSON:
    """``dump_json`` writes exactly the text ``json.dumps(indent=2)`` writes
    for the same document with its arrays as lists."""

    @given(JSON_DOCS)
    @example({"states": np.array([[0.0, -0.0], [5e-324, 0.1]]), "t": [[1, 2, -0.1], []], "\u00e9": {}})
    @example([[], [[]], {}, [{}], ()])
    @settings(max_examples=300, deadline=None)
    def test_text_matches_json_dumps(self, doc):
        assert dump_json(doc) == json.dumps(_as_lists(doc), indent=2, allow_nan=False)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("place", ["scalar", "list", "table", "dict", "array", "row", "nested-array"])
    def test_a_non_finite_value_raises_value_error(self, value, place):
        doc = {"scalar": value, "list": [1.0, value], "table": [[0, 1, 0.5], [1, 2, value]],
               "dict": {"a": {"b": value}}, "array": np.array([0.5, value]),
               "row": np.array([[0.5, 1.0], [value, 2.0]]), "nested-array": {"v": [np.zeros(3), np.array([value])]}}[place]
        with pytest.raises(ValueError):
            json.dumps(_as_lists(doc), indent=2, allow_nan=False)
        with pytest.raises(ValueError):
            dump_json(doc)

    @pytest.mark.parametrize("doc", [{"a": np.int64(3)}, [1, {2}], {(1, 2): 0}])
    def test_what_json_cannot_encode_raises_type_error(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            dump_json(doc)

    def test_arrays_take_the_distinct_value_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sio, "_float_texts", lambda a: calls.append(a.shape) or [repr(v) for v in a.ravel().tolist()])
        states = np.tile([0.5, -0.25], (30, 5))
        assert dump_json({"states": states}) == json.dumps({"states": states.tolist()}, indent=2)
        assert calls == [(30, 10)]

    def test_a_table_is_encoded_in_one_call(self, monkeypatch):
        calls, texts = [], sio._texts
        monkeypatch.setattr(sio, "_texts", lambda values: calls.append(len(values)) or texts(values))
        doc = {"flip_set": [[k, k + 1, -0.1] for k in range(50)]}
        assert dump_json(doc) == json.dumps(doc, indent=2)
        assert calls == [1, 150]  # the dict's one item, then every value of the table

    @pytest.mark.parametrize("table", [
        [[k, k + 1, -0.1 * k] for k in range(7)],
        [[0, 1, 0.5], [], [1, 2, -0.5], [2, 3, [4]], [3, 4, {"a": 1}], (5, 6, 7.5), [6, 7, None]],
    ], ids=["values", "containers-in-one-block"])
    def test_a_table_is_laid_out_in_blocks_of_rows(self, monkeypatch, table):
        monkeypatch.setattr(sio, "_TABLE_ROWS", 2)
        doc = {"flip_set": table, "more": [table]}
        assert dump_json(doc) == json.dumps(doc, indent=2)

    def test_c_encoders_are_built_once_per_depth(self, monkeypatch):
        built, make = [], json.encoder.c_make_encoder
        monkeypatch.setattr(json.encoder, "c_make_encoder", lambda *args: built.append(args[5]) or make(*args))
        doc = {"verdict": "balanced", "partition": [1, -1, 1], "flip_set": [[0, 1, -0.1]], "more": {"x": [0.5]}}
        sio._encoder.cache_clear()
        try:
            first = dump_json(doc)
            depths = len(built)
            assert dump_json(doc) == first == json.dumps(doc, indent=2)
        finally:
            sio._encoder.cache_clear()
        assert depths == len(set(built)) == len(built)  # no second call builds one

    def test_without_a_c_encoder_the_text_is_the_same(self, monkeypatch):
        doc = {"states": np.array([[0.5, -0.0]]), "flip_set": [[0, 1, -0.1]], "more": {"x": [0.5, "é"]}}
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        sio._encoder.cache_clear()
        try:
            assert dump_json(doc) == json.dumps(_as_lists(doc), indent=2)
        finally:
            sio._encoder.cache_clear()

    def test_file_output_ends_in_a_line_break(self, tmp_path):
        doc = {"x": np.array([1.0, 2.5])}
        assert dump_json(doc, tmp_path / "doc.json") == dump_json(doc)
        assert (tmp_path / "doc.json").read_text() == dump_json(doc) + "\n"


class TestCLI:
    def write_triangle(self, tmp_path, sign=1.0):
        path = tmp_path / "tri.edges"
        path.write_text(f"0 1 {sign}\n1 2 {sign}\n0 2 {sign}\n")
        return path

    def test_classify_json(self, tmp_path, capsys):
        path = self.write_triangle(tmp_path)
        assert main(["classify", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "balanced"
        assert doc["d_b"] == pytest.approx(0.0, abs=1e-12)
        assert doc["balanced_partition"] == [1, 1, 1]

    def test_classify_with_frustration_report(self, tmp_path, capsys):
        path = tmp_path / "four.edges"
        path.write_text("0 1 1\n0 2 1\n1 2 1\n1 3 1\n2 3 -1\n")
        assert main(["classify", "--input", str(path), "--frustration", "balanced"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "strictly_unbalanced"
        assert doc["frustration"]["flip_count"] == 1
        assert doc["frustration"]["flip_set"] == [[2, 3, -1.0]]
        assert doc["frustration"]["exact"] is True

    def test_classify_frustration_falls_back_to_heuristic_on_large_input(self, tmp_path, capsys):
        G = sn.ring_lattice(sn.LatticeParams(n=20, dbar=4, alpha=0.1, sign_plan=sn.BalancedPlan()))
        path = tmp_path / "lat.edges"
        sn.write_edge_list(G, path)
        assert main(["classify", "--input", str(path), "--frustration", "balanced"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frustration"]["exact"] is False
        assert doc["frustration"]["flip_count"] == 0

    def test_measure_json(self, tmp_path, capsys):
        path = self.write_triangle(tmp_path, sign=-1.0)
        assert main(["measure", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "antibalanced"
        assert doc["d_a"] == pytest.approx(0.0, abs=1e-12)
        assert doc["rho_signed"] == pytest.approx(doc["rho_unsigned"])

    def test_missing_file_is_data_error(self, capsys):
        assert main(["classify", "--input", "/nonexistent/file.edges"]) == 2

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n")
        assert main(["classify", "--input", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])  # missing --input
        assert exc.value.code == 1

    def test_generate_round_trips_through_classify(self, tmp_path, capsys):
        config = tmp_path / "ssbm.json"
        config.write_text(json.dumps(
            {"n1": 6, "n2": 10, "p_in": 0.8, "p_out": 0.1, "eta": 0.0, "alpha": 0.1, "seed": 5}))
        out = tmp_path / "net.edges"
        assert main(["generate", "ssbm", "--config", str(config), "--output", str(out)]) == 0
        assert main(["classify", "--input", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "balanced"

    def test_generate_deterministic_files(self, tmp_path):
        config = tmp_path / "lat.json"
        config.write_text(json.dumps(
            {"n": 20, "dbar": 4, "alpha": 0.1, "sign_plan": {"kind": "flip_k", "k": 2, "seed": 9}}))
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        assert main(["generate", "lattice", "--config", str(config), "--output", str(a)]) == 0
        assert main(["generate", "lattice", "--config", str(config), "--output", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_generate_tree_and_seed_override(self, tmp_path):
        config = tmp_path / "tree.json"
        config.write_text(json.dumps({"n": 9, "sign_prob": 0.5, "seed": 1}))
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        assert main(["generate", "tree", "--config", str(config), "--output", str(a)]) == 0
        assert main(["generate", "tree", "--config", str(config), "--output", str(b), "--seed", "2"]) == 0
        assert a.read_text() != b.read_text()

    def test_simulate_rw_emits_prediction_and_csv(self, tmp_path, capsys):
        net = tmp_path / "net.edges"
        cfgf = tmp_path / "gen.json"
        cfgf.write_text(json.dumps(
            {"n1": 6, "n2": 10, "p_in": 0.8, "p_out": 0.1, "eta": 0.0, "alpha": 0.1, "seed": 5}))
        main(["generate", "ssbm", "--config", str(cfgf), "--output", str(net)])
        capsys.readouterr()
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"horizon": 4000, "init": "bipartition", "l0": 1.0}))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "rw", "--input", str(net), "--config", str(sim), "--output", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        pred = np.array(summary["stationary_prediction"]["vectors"][0])
        realized = np.array(summary["realized_final_state"])
        assert summary["stationary_prediction"]["kind"] == "fixed"
        assert np.max(np.abs(pred - realized)) < 1e-6
        states = read_trajectory_csv(out)
        assert states.shape[1] == 16

    def test_simulate_elt_reports_activations(self, tmp_path, capsys):
        net = tmp_path / "net.edges"
        latcfg = tmp_path / "lat.json"
        latcfg.write_text(json.dumps(
            {"n": 20, "dbar": 4, "alpha": 0.1, "sign_plan": {"kind": "balanced", "rule": "all"}}))
        main(["generate", "lattice", "--config", str(latcfg), "--output", str(net)])
        capsys.readouterr()
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps(
            {"horizon": 10, "init": "neighbourhood:0", "l0": 1.0, "theta_l": 2.0, "alpha": 0.1}))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "elt", "--input", str(net), "--config", str(sim), "--output", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["activation_sets"][0]["plus"] == [0, 1, 2, 18, 19]
        assert len(summary["activation_sets"]) == 11

    def test_simulate_linear_json_format(self, tmp_path, capsys):
        path = self.write_triangle(tmp_path)
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"horizon": 3, "init": "node:0=1.0"}))
        out = tmp_path / "traj.json"
        assert main(["simulate", "linear", "--input", str(path), "--config", str(sim),
                     "--output", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["states"][1] == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("model, config", [
        ("rw", {"horizon": 40, "init": "random"}),
        ("elt", {"horizon": 8, "init": "uniform", "theta_l": 1.5, "alpha": 0.1}),
    ])
    def test_simulate_json_states_match_the_csv(self, tmp_path, capsys, model, config):
        G = sn.ssbm(sn.SSBMParams(n1=20, n2=20, p_in=0.4, p_out=0.1, eta=0.05, alpha=0.1, seed=2))
        net, sim = tmp_path / "net.edges", tmp_path / "sim.json"
        sn.write_edge_list(G, net)
        sim.write_text(json.dumps(config))
        printed = {}
        for fmt in ("csv", "json"):
            assert main(["simulate", model, "--input", str(net), "--config", str(sim),
                         "--output", str(tmp_path / f"traj.{fmt}"), "--format", fmt, "--seed", "3"]) == 0
            printed[fmt] = capsys.readouterr().out
        assert printed["csv"] == printed["json"]
        text = (tmp_path / "traj.json").read_text()
        doc = json.loads(text)
        assert np.array_equal(np.array(doc["states"]), read_trajectory_csv(tmp_path / "traj.csv"))
        assert printed["json"] == json.dumps(json.loads(printed["json"]), indent=2) + "\n"
        assert text == json.dumps(doc, indent=2) + "\n"  # the layout and float texts of json.dumps
        assert {k: v for k, v in doc.items() if k != "states"} == json.loads(printed["json"])

    def test_repeated_calls_in_one_process_match_separate_runs(self, tmp_path, capsys):
        path = self.write_triangle(tmp_path, sign=-1.0)
        calls = [
            ["measure", "--input", str(path)],
            ["classify"],  # usage error: missing --input
            ["--version"],
            ["classify", "--input", str(path), "--frustration", "balanced"],
            ["nosuchcommand"],
            ["measure", "--input", str(path)],
        ]
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        env = {**os.environ, "PYTHONPATH": str(Path(sn.__file__).resolve().parents[1])}
        separate = []
        for argv in calls:
            run = subprocess.run([sys.executable, "-m", "signednet.cli", *argv],
                                 env=env, capture_output=True, text=True)
            separate.append((run.returncode, run.stdout, run.stderr))
        assert in_process == separate
        assert [code for code, _, _ in in_process] == [0, 1, 0, 0, 1, 0]

    def test_verify_subcommand_runs_a_suite(self, capsys):
        assert main(["verify", "walks"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_verify_json_format(self, capsys):
        assert main(["verify", "elt", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["passed"] for r in doc] == [True, True]


class TestUnreadableFiles:
    """A file that is not UTF-8 text, or a config nested too deeply to parse,
    is a data error: exit 2 and one error line."""

    @pytest.mark.parametrize("data, line_no, byte", [
        (b"\xff0 1 1\n1 2 1\n", 1, "0xff"),
        (b"0 1 1\n# caf\xe9\n1 2 1\n", 2, "0xe9"),
        (b"0 1 1\r\n1 2 1\r\n\r\n0 2 \x80\r\n", 4, "0x80"),  # CRLF and an empty line count once each
        (b"\xef\xbb\xbf0 1 1\n1 2 \xff\n", 2, "0xff"),  # after a byte-order mark
    ], ids=["first-byte", "comment", "crlf", "byte-order-mark"])
    @pytest.mark.parametrize("command", ["classify", "measure"])
    def test_edge_list_names_the_line(self, tmp_path, capsys, command, data, line_no, byte):
        path = tmp_path / "bad.edges"
        path.write_bytes(data)
        assert main([command, "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: line {line_no}: byte {byte} is not UTF-8 text\n"
        with pytest.raises(EdgeListParseError) as exc:
            load_graph(path)
        assert exc.value.line_no == line_no

    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path):
        path = tmp_path / "bom.edges"
        path.write_bytes(b"\xef\xbb\xbf2 0 1\n0 1 -1\n1 2 1\n")
        expected = parse_edge_list("2 0 1\n0 1 -1\n1 2 1\n").edges
        for G in (load_graph(path), parse_edge_list("\ufeff2 0 1\n0 1 -1\n1 2 1\n")):
            assert (G.n, G.labels, G.edges) == (3, None, expected)

    @pytest.mark.parametrize("data, problem", [
        (b'{"horizon": 3, "n1": \xff}', "is not UTF-8 text: byte 0xff at offset 21"),
        (b"[" * 100_000 + b"]" * 100_000, "is nested too deeply to parse"),
    ], ids=["undecodable", "deep"])
    @pytest.mark.parametrize("command", [["generate", "ssbm"], ["simulate", "rw", "--input", "{net}"]],
                             ids=["generate", "simulate"])
    def test_config(self, tmp_path, capsys, command, data, problem):
        net, config = tmp_path / "tri.edges", tmp_path / "config.json"
        net.write_text("0 1 1\n1 2 -1\n0 2 1\n")
        config.write_bytes(data)
        argv = [arg.format(net=net) for arg in command]
        assert main([*argv, "--config", str(config), "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: the {command[0]} config {problem}\n"
        assert not (tmp_path / "out").exists()


class TestNonFiniteWeights:
    @pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
    def test_build_graph_rejects(self, w):
        with pytest.raises(NonFiniteWeightError, match=r"\(1, 2\)"):
            sn.build_graph(3, [(0, 1, 1.0), (1, 2, w), (0, 2, 1.0)])

    @pytest.mark.parametrize("command", ["measure", "classify"])
    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_cli_exits_with_data_error(self, tmp_path, capsys, command, token):
        path = tmp_path / "bad.edges"
        path.write_text(f"0 1 1\n1 2 {token}\n0 2 -1\n")
        assert main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite weight" in captured.err

    def test_dump_json_refuses_nan(self):
        with pytest.raises(ValueError):
            dump_json({"d_b": float("nan")})


class TestFarNodeIds:
    """Node ids far beyond the edge count fail fast: a connected graph has
    n <= m + 1, and ids or node counts beyond int64 are refused outright."""

    @pytest.mark.parametrize("text, error", [
        ("99999999999999999999 1 1.0\n0 1 1\n",
         "node ids must be below 9223372036854775807, got a node count of 100000000000000000000"),
        ("0 9223372036854775807 1\n",
         "node ids must be below 9223372036854775807, got a node count of 9223372036854775808"),
        ("-99999999999999999999 1 1\n0 1 1\n",
         "edge (-99999999999999999999, 1) uses a node id outside [0, 2)"),
        ("0 1 1\n1 1000000 1\n", "graph is disconnected: node 2 is not reachable from node 0"),
        ("n 1000000000000\n0 1 1\n", "graph is disconnected: node 2 is not reachable from node 0"),
        ("0 5 1\n5 1000000 1\n1 2 1\n", "graph is disconnected: node 1 is not reachable from node 0"),
    ])
    def test_cli_exits_with_one_error_line(self, tmp_path, capsys, text, error):
        path = tmp_path / "far.edges"
        path.write_text(text)
        for command in ("classify", "measure"):
            assert main([command, "--input", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {error}\n"

    def test_far_id_fails_without_allocating_by_id(self):
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedError, match="node 2 is not reachable"):
                parse_edge_list("0 1 1\n1 1000000 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("n, edges, error, message", [
        (10**15, [(0, 1, 1.0), (1, 0, 1.0)], DuplicateEdgeError, "unordered pair (0, 1) appears more than once"),
        (10**15, [(0, 1, 1.0), (1, 10**15 - 1, -1.0)], DisconnectedError,
         "graph is disconnected: node 2 is not reachable from node 0"),
        (2**63 - 1, [(0, 1, 1.0), (5, 2**62, 1.0)], DisconnectedError,
         "graph is disconnected: node 2 is not reachable from node 0"),
    ])
    def test_far_ids_are_validated_and_searched_on_the_ids_in_use(self, n, edges, error, message):
        tracemalloc.start()
        try:
            with pytest.raises(error) as got:
                sn.build_graph(n, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(got.value) == message
        assert peak < 2**20

    @pytest.mark.parametrize("n", [_KEY_MAX_NODES + 1, 2**63, 10**20])
    def test_components_refuses_node_counts_beyond_the_pair_key_range(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(IdOutOfRangeError, match=f"components\\(\\) splits at most {_KEY_MAX_NODES} nodes"):
                sn.components(n, [(0, 1, 1.0), (1, 2, -1.0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_ids_beyond_int64_are_out_of_range(self):
        with pytest.raises(IdOutOfRangeError, match=r"edge \(0, 100000000000000000000\) uses a node id outside"):
            sn.build_graph(3, [(0, 1, 1.0), (0, 10**20, 1.0)])
        with pytest.raises(IdOutOfRangeError, match="node ids must be below"):
            sn.build_graph(2**63, [(0, 1, 1.0)])


class TestInitialStateSpecs:
    def test_uniform_and_node_spec(self, triangle_positive):
        from signednet.cli import initial_state

        assert np.allclose(initial_state("uniform", triangle_positive, 0.5, 0), 0.5)
        x = initial_state("node:1=2.5,2=-1", triangle_positive, 1.0, 0)
        assert np.allclose(x, [0.0, 2.5, -1.0])

    def test_bipartition_spec_uses_certificate(self, triangle_two_negative):
        from signednet.cli import initial_state

        x = initial_state("bipartition", triangle_two_negative, 2.0, 0)
        assert np.allclose(x, [2.0, -2.0, -2.0])

    def test_random_spec_is_seeded_unit_l1(self, triangle_positive):
        from signednet.cli import initial_state

        a = initial_state("random", triangle_positive, 1.0, 7)
        b = initial_state("random", triangle_positive, 1.0, 7)
        assert np.array_equal(a, b)
        assert np.abs(a).sum() == pytest.approx(1.0)

    def test_neighbourhood_spec_follows_the_edge_signs(self, strictly_unbalanced_4):
        W = strictly_unbalanced_4.weight_matrix
        for center in range(4):
            for l0 in (0.5, -0.5):
                x = initial_state(f"neighbourhood:{center}", strictly_unbalanced_4, l0, 0)
                expected = l0 * np.sign(W[center]) + 0.0
                expected[center] = l0
                assert np.array_equal(x, expected) and not np.signbit(x[expected == 0]).any()


class TestSimulateInputBoundary:
    """Bad initial-state specs and config fields are data errors (exit 2)."""

    def run(self, tmp_path, capsys, config):
        net = tmp_path / "tri.edges"
        net.write_text("0 1 1\n1 2 -1\n0 2 1\n")
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps(config))
        codes = [main(["simulate", model, "--input", str(net), "--config", str(sim),
                       "--output", str(tmp_path / "traj.csv")]) for model in ("linear", "rw", "elt")]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return codes, err

    def test_non_integer_node_id(self, tmp_path, capsys, triangle_positive):
        codes, err = self.run(tmp_path, capsys, {"init": "node:abc"})
        assert codes == [2, 2, 2] and "'abc' is not an integer" in err
        with pytest.raises(SignedNetError):
            initial_state("node:abc", triangle_positive, 1.0, 0)

    def test_node_id_beyond_last_node(self, tmp_path, capsys, triangle_positive):
        codes, err = self.run(tmp_path, capsys, {"init": "node:5=1"})
        assert codes == [2, 2, 2] and "node 5 is outside [0, 3)" in err
        with pytest.raises(IdOutOfRangeError):
            initial_state("node:5=1", triangle_positive, 1.0, 0)

    def test_neighbourhood_center_beyond_last_node(self, tmp_path, capsys, triangle_positive):
        codes, err = self.run(tmp_path, capsys, {"init": "neighbourhood:7"})
        assert codes == [2, 2, 2] and "node 7 is outside [0, 3)" in err
        with pytest.raises(IdOutOfRangeError):
            initial_state("neighbourhood:7", triangle_positive, 1.0, 0)

    def test_negative_node_id_does_not_wrap_to_last_node(self, tmp_path, capsys, triangle_positive):
        codes, err = self.run(tmp_path, capsys, {"init": "node:-1=2"})
        assert codes == [2, 2, 2] and "node -1 is outside [0, 3)" in err
        with pytest.raises(IdOutOfRangeError):
            initial_state("node:-1=2", triangle_positive, 1.0, 0)

    def test_negative_horizon(self, tmp_path, capsys):
        codes, err = self.run(tmp_path, capsys, {"horizon": -2})
        assert codes == [2, 2, 2] and "horizon must be a nonnegative integer, got -2" in err

    def test_bad_node_values(self, tmp_path, capsys):
        for value in ("zz", "nan"):
            codes, err = self.run(tmp_path, capsys, {"init": f"node:1={value}"})
            assert codes == [2, 2, 2] and f"value '{value}'" in err

    @pytest.mark.parametrize("config, expected, message", [
        ({"l0": "abc"}, [2, 2, 2], "l0 must be a finite number, got 'abc'"),
        ({"l0": float("nan")}, [2, 2, 2], "l0 must be a finite number, got nan"),
        ({"l0": 10 ** 400}, [2, 2, 2], "l0 must be a finite number, got 1000"),  # beyond the float range
        ({"init": 7}, [2, 2, 2], "init must be a string, got 7"),
        ({"horizon": 2.5}, [2, 2, 2], "horizon must be a nonnegative integer, got 2.5"),
        ({"horizon": True}, [2, 2, 2], "horizon must be a nonnegative integer, got True"),
        ({"theta_l": "x"}, [0, 0, 2], "theta_l must be a finite number, got 'x'"),
        ({"theta_l": float("inf")}, [0, 0, 2], "theta_l must be a finite number, got inf"),
        ({"alpha": float("nan")}, [0, 0, 2], "alpha must be a finite number, got nan"),
        ({"general_thresholds": "abc"}, [0, 0, 2], "general_thresholds must be null or a list, got 'abc'"),
        ({"general_thresholds": [["x", 1, 1]]}, [0, 0, 2], "general_thresholds must be a rectangular numeric table"),
        ({"horizon": 2, "general_thresholds": [[1, 1, 1], [1]]}, [0, 0, 2],
         "general_thresholds must be a rectangular numeric table"),
        ({"horizon": 1, "general_thresholds": [[float("nan"), 1, 1]]}, [0, 0, 2],
         "every threshold must be positive and finite"),
        ([1], [2, 2, 2], "the simulate config must be a JSON object"),
        # rw stops once the walk settles (step 2 here) and stores only the steps it ran
        ({"horizon": 10**12}, [2, 0, 2], "1000000000000 steps of 3 values would store 3000000000003 values, "
                                         "above the cap of 67108864; lower the horizon"),
        ({"horizn": 3, "thetal": 9}, [2, 2, 2], "unknown simulate config keys 'horizn', 'thetal'; accepted keys: "
                                                "horizon, l0, init, theta_l, alpha, general_thresholds"),
        ({"horizon": 3, "seed": 1}, [2, 2, 2], "unknown simulate config key 'seed'; accepted keys: "
                                               "horizon, l0, init, theta_l, alpha, general_thresholds"),
    ])
    def test_bad_config_fields(self, tmp_path, capsys, config, expected, message):
        codes, err = self.run(tmp_path, capsys, config)
        assert codes == expected and message in err

    def test_overflowing_states_are_refused_before_writing(self, tmp_path, capsys):
        codes, err = self.run(tmp_path, capsys, {"horizon": 2000})
        message = ("error: simulate linear: the state is not finite from step 1026 of 2000; "
                   "lower the horizon or rescale the weights\n")
        assert codes == [2, 0, 0] and err == message
        env = {**os.environ, "PYTHONPATH": str(Path(sn.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-m", "signednet.cli", "simulate", "linear", "--input",
                              str(tmp_path / "tri.edges"), "--config", str(tmp_path / "sim.json"),
                              "--output", str(tmp_path / "overflow.csv")], env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == (2, "", message)  # no numpy overflow warnings
        for fmt in ("csv", "json"):
            argv = ["simulate", "linear", "--input", str(tmp_path / "tri.edges"), "--config",
                    str(tmp_path / "sim.json"), "--output", str(tmp_path / f"overflow.{fmt}"), "--format", fmt]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert not (tmp_path / f"overflow.{fmt}").exists()
            with pytest.raises(NonFiniteStateError, match="from step 1026"):
                _cmd_simulate(build_parser().parse_args(argv))

    @pytest.mark.parametrize("model", ["linear", "elt"])
    def test_oversized_horizon_fails_at_once_in_a_fresh_process(self, tmp_path, model):
        net, sim, out = tmp_path / "tri.edges", tmp_path / "sim.json", tmp_path / "traj.csv"
        net.write_text("0 1 1\n1 2 -1\n0 2 1\n")
        sim.write_text(json.dumps({"horizon": 10**12}))
        env = {**os.environ, "PYTHONPATH": str(Path(sn.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-m", "signednet.cli", "simulate", model, "--input", str(net),
                              "--config", str(sim), "--output", str(out)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("error: 1000000000000 steps") and run.stderr.count("\n") == 1
        assert not out.exists()

    def test_negative_seed_for_a_random_start(self, tmp_path, capsys):
        net, sim = tmp_path / "tri.edges", tmp_path / "sim.json"
        net.write_text("0 1 1\n1 2 -1\n0 2 1\n")
        sim.write_text(json.dumps({"init": "random"}))
        for model in ("linear", "rw", "elt"):
            out = tmp_path / f"{model}.csv"
            assert main(["simulate", model, "--input", str(net), "--config", str(sim), "--output", str(out),
                         "--seed", "-1"]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: seed must be a nonnegative integer, got -1\n")
            assert not out.exists()

    def test_integral_float_horizon_is_accepted(self, tmp_path, capsys):
        codes, _ = self.run(tmp_path, capsys, {"horizon": 2.0})
        assert codes == [0, 0, 0]
        assert read_trajectory_csv(tmp_path / "traj.csv").shape[0] == 3

    def test_rw_counts_only_the_steps_it_runs(self, tmp_path, capsys):
        net, sim, out = tmp_path / "ring.edges", tmp_path / "sim.json", tmp_path / "traj.csv"
        sn.write_edge_list(sn.ring_lattice(sn.LatticeParams(n=700, dbar=4, alpha=0.1, sign_plan=sn.BalancedPlan())), net)
        sim.write_text(json.dumps({"horizon": 100_000}))  # 100 001 rows of 700 values would pass the cap
        assert main(["simulate", "rw", "--input", str(net), "--config", str(sim), "--output", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["steps_run"] == 2
        assert read_trajectory_csv(out).shape == (3, 700)

    def test_elt_config_refuses_non_finite_values(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(NonpositiveThresholdError, match="positive and finite"):
                sn.ELTConfig(theta_l=bad, alpha=1.0, l0=1.0, horizon=2)
            with pytest.raises(NonpositiveThresholdError, match="positive and finite"):
                sn.ELTConfig(theta_l=1.0, alpha=1.0, l0=1.0, horizon=1, general_thresholds=[[1.0, bad]])


class TestGenerateInputBoundary:
    """Bad generator configs and seeds are data errors with one error line."""

    LATTICE = {"n": 20, "dbar": 4, "alpha": 0.1}

    @pytest.mark.parametrize("kind, config, flags, message", [
        ("lattice", {**LATTICE, "sign_plan": {"kind": "flip_k", "k": "x"}}, [],
         "a flip_k sign_plan needs integer k and seed, got {'kind': 'flip_k', 'k': 'x'}"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "flip_k"}}, [],
         "a flip_k sign_plan needs integer k and seed, got {'kind': 'flip_k'}"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "balanced", "rule": "arc:x"}}, [],
         "unknown bipartition rule 'arc:x'"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "antibalanced", "rule": 5}}, [], "unknown bipartition rule 5"),
        ("lattice", {**LATTICE, "sign_plan": "all"}, [], "sign_plan must be a JSON object, got 'all'"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "flip_k", "k": 2, "seed": -1}}, [],
         "seed must be a nonnegative integer, got -1"),
        ("tree", {"n": 9, "sign_prob": 0.5, "seed": -1}, [], "seed must be a nonnegative integer, got -1"),
        ("ssbm", {"n1": 6, "n2": 10, "p_in": 0.8, "p_out": 0.1, "eta": 0.0, "alpha": 0.1}, ["--seed", "-1"],
         "seed must be a nonnegative integer, got -1"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "flip_k", "k": 2.7}}, [],
         "a flip_k sign_plan needs integer k and seed, got {'kind': 'flip_k', 'k': 2.7}"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "flip_k", "k": True}}, [],
         "a flip_k sign_plan needs integer k and seed, got {'kind': 'flip_k', 'k': True}"),
        ("tree", {"n": True, "sign_prob": 0.5, "seed": 3}, [], "n must be a nonnegative integer, got True"),
        ("ssbm", {"n1": 6, "n2": 10.5, "p_in": 0.8, "p_out": 0.1, "eta": 0.0}, [],
         "n2 must be a nonnegative integer, got 10.5"),
        ("lattice", {**LATTICE, "dbar": "4", "sign_plan": {"kind": "balanced"}}, [],
         "dbar must be a nonnegative integer, got '4'"),
        ("tree", [9, 0.5], [], "the generate config must be a JSON object"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "balanced", "rule": "arc:7"}}, ["--seed", "3"],
         "--seed sets the seed of a flip_k sign_plan; the 'balanced' sign_plan takes no seed"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "antibalanced"}}, ["--seed", "3"],
         "--seed sets the seed of a flip_k sign_plan; the 'antibalanced' sign_plan takes no seed"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "flip_k", "k": 2}}, ["--seed", "-1"],
         "seed must be a nonnegative integer, got -1"),
        ("ssbm", {"n1": 6, "n2": 10, "p_in": 0.8, "p_out": 0.1, "eta": 0.0, "colour": "red"}, [],
         "unknown ssbm config key 'colour'; accepted keys: n1, n2, p_in, p_out, eta, alpha, seed"),
        ("lattice", {**LATTICE, "seed": 3, "sign_plan": {"kind": "flip_k", "k": 2}}, [],
         "unknown lattice config key 'seed'; accepted keys: n, dbar, alpha, sign_plan; "
         "a lattice's seed is sign_plan.seed, in a flip_k plan"),
        ("tree", {"n": 9, "sign_prob": 0.5, "depth": 2, "branching": 3}, ["--seed", "4"],
         "unknown tree config keys 'branching', 'depth'; accepted keys: n, sign_prob, seed, alpha"),
        ("lattice", LATTICE, [], "missing lattice config key 'sign_plan'; required keys: n, dbar, alpha, sign_plan"),
        ("ssbm", {"n1": 6, "n2": 10, "p_in": 0.8, "p_out": 0.1}, [],
         "missing ssbm config key 'eta'; required keys: n1, n2, p_in, p_out, eta"),
        ("ssbm", {"n1": 6, "n2": 10}, ["--seed", "4"],
         "missing ssbm config keys 'p_in', 'p_out', 'eta'; required keys: n1, n2, p_in, p_out, eta"),
        ("tree", {"sign_prob": 0.5, "seed": 3}, [], "missing tree config key 'n'; required keys: n, sign_prob"),
        ("tree", {"n": 9, "sign_prob": "0.3"}, [], "sign_prob must be a finite number, got '0.3'"),
        ("ssbm", {"n1": 5, "n2": 5, "p_in": 0.9, "p_out": 0.5, "eta": True, "alpha": True}, [],
         "eta must be a finite number, got True"),
        ("ssbm", {"n1": 5, "n2": 5, "p_in": 0.9, "p_out": 0.5, "eta": 0.0, "alpha": True}, [],
         "alpha must be a finite number, got True"),
        ("lattice", {**LATTICE, "alpha": None, "sign_plan": {"kind": "balanced"}}, [],
         "alpha must be a finite number, got None"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "balanced", "rul": "arc:3", "seed": 4}}, [],
         "unknown balanced sign_plan keys 'rul', 'seed'; accepted keys: kind, rule"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "antibalanced", "k": 2}}, [],
         "unknown antibalanced sign_plan key 'k'; accepted keys: kind, rule"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "flip_k", "k": 2, "rule": "arc:3"}}, [],
         "unknown flip_k sign_plan key 'rule'; accepted keys: kind, k, seed, base_rule"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "fllip_k", "k": 2}}, [], "unknown sign plan kind 'fllip_k'"),
        ("lattice", {**LATTICE, "sign_plan": {"kind": ["flip_k"]}}, [], "unknown sign plan kind ['flip_k']"),
        # refused before anything of that size is allocated
        ("tree", {"n": 10**13, "sign_prob": 0.5}, [],
         "the tree would have 9999999999999 edges, above the cap of 4194304"),
        ("ssbm", {"n1": 10**13, "n2": 10, "p_in": 0.8, "p_out": 0.1, "eta": 0.0}, [],
         "the ssbm would have 10000000000010 nodes, above the cap of 4194304"),
        ("lattice", {"n": 10**13, "dbar": 4, "alpha": 0.1, "sign_plan": {"kind": "balanced"}}, [],
         "the lattice would have 20000000000000 edges, above the cap of 4194304"),
    ])
    def test_bad_configs_exit_2_with_one_error_line(self, tmp_path, capsys, kind, config, flags, message):
        cfg, out = tmp_path / "gen.json", tmp_path / "net.edges"
        cfg.write_text(json.dumps(config))
        assert main(["generate", kind, "--config", str(cfg), "--output", str(out), *flags]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind, config, flags", [
        ("ssbm", {"n1": 6, "n2": 10, "p_in": 0.8, "p_out": 0.1, "eta": 0.05}, ["--seed", "4"]),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "flip_k", "k": 3}}, ["--seed", "5"]),
        ("lattice", {**LATTICE, "sign_plan": {"kind": "antibalanced", "rule": "arc:7"}}, []),
        ("tree", {"n": 12, "sign_prob": 0.5}, ["--seed", "6"]),
    ])
    def test_header_regenerates_the_file(self, tmp_path, kind, config, flags):
        cfg, out, again = tmp_path / "gen.json", tmp_path / "net.edges", tmp_path / "again.edges"
        cfg.write_text(json.dumps(config))
        assert main(["generate", kind, "--config", str(cfg), "--output", str(out), *flags]) == 0
        head, _, header = out.read_text().partition("\n")[0].partition(" ")[2].partition(" ")
        assert head == kind
        cfg.write_text(header)
        assert main(["generate", kind, "--config", str(cfg), "--output", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_seed_overrides_the_seed_of_a_flip_k_lattice_plan(self, tmp_path):
        def lattice(plan_seed, flags):
            cfg, out = tmp_path / "lat.json", tmp_path / "lat.edges"
            cfg.write_text(json.dumps({**self.LATTICE, "sign_plan": {"kind": "flip_k", "k": 3, "seed": plan_seed}}))
            assert main(["generate", "lattice", "--config", str(cfg), "--output", str(out), *flags]) == 0
            return out.read_text()

        overridden = lattice(1, ["--seed", "3"])
        assert overridden == lattice(3, [])
        assert overridden != lattice(1, [])


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_LISTS, _OBJECTS = st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)
#: JSON values that no numeric config field accepts
_NOT_A_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=4), _LISTS, _OBJECTS, _NON_FINITE)
_NOT_A_COUNT = st.one_of(_NOT_A_NUMBER, st.integers(max_value=-1), st.integers(-10**6, 10**6).map(lambda k: k + 0.5))
_NOT_A_PROBABILITY = st.one_of(_NOT_A_NUMBER, st.floats(1.0, 1e300, exclude_min=True), st.floats(-1e300, -1e-300))
_NOT_POSITIVE = st.one_of(_NOT_A_NUMBER, st.floats(-1e300, 0.0))
_NOT_A_RULE = st.one_of(st.none(), st.booleans(), st.integers(), _LISTS, _OBJECTS, st.text("xyz:", max_size=4),
                        st.sampled_from(["arc:x", "arc:-1", "arc:13", "blocks:0", "blocks:-2", "ALL"]))
_NOT_A_PLAN = st.one_of(
    st.one_of(st.none(), st.booleans(), st.text(max_size=4), _LISTS, _NON_FINITE),
    st.fixed_dictionaries({"kind": st.sampled_from([[], {}, [1], {"a": 1}, None, 1, "flip"])}),
    st.fixed_dictionaries({"kind": st.sampled_from(["balanced", "antibalanced"]), "rule": _NOT_A_RULE}),
    st.fixed_dictionaries({"kind": st.just("flip_k"), "k": st.one_of(_NOT_A_COUNT, st.integers(25, 10**30))}),
    st.fixed_dictionaries({"kind": st.just("flip_k"), "k": st.just(2), "seed": _NOT_A_COUNT}),
    st.fixed_dictionaries({"kind": st.just("flip_k"), "k": st.just(2), "base_rule": _NOT_A_RULE}),
    st.fixed_dictionaries({"kind": st.sampled_from(["balanced", "flip_k"]), "k": st.just(2), "rul": st.just("all")}),
)
_NOT_AN_INIT = st.one_of(_NOT_A_NUMBER, st.sampled_from(
    ["", "node:", "node:x", "node:4=1", "node:-1", "node:1=zz", "node:1=inf", "neighbourhood:9", "bipartition"]))


#: per command, a valid small config and the wrong values of each key it reads
_CONFIG_CASES = {
    "ssbm": ({"n1": 5, "n2": 5, "p_in": 0.8, "p_out": 0.3, "eta": 0.1, "alpha": 1.0, "seed": 1},
             {"n1": _NOT_A_COUNT, "n2": _NOT_A_COUNT, "p_in": _NOT_A_PROBABILITY, "p_out": _NOT_A_PROBABILITY,
              "eta": _NOT_A_PROBABILITY, "alpha": _NOT_POSITIVE, "seed": _NOT_A_COUNT}),
    "lattice": ({"n": 12, "dbar": 4, "alpha": 1.0, "sign_plan": {"kind": "flip_k", "k": 2, "seed": 0}},
                {"n": st.one_of(_NOT_A_COUNT, st.integers(0, 4)),
                 "dbar": st.one_of(_NOT_A_COUNT, st.sampled_from([0, 1, 3, 12, 14])),
                 "alpha": _NOT_POSITIVE, "sign_plan": _NOT_A_PLAN}),
    "tree": ({"n": 10, "sign_prob": 0.3, "seed": 0, "alpha": 1.0},
             {"n": st.one_of(_NOT_A_COUNT, st.just(0)), "sign_prob": _NOT_A_PROBABILITY, "seed": _NOT_A_COUNT,
              "alpha": _NOT_POSITIVE}),
    "linear": ({"horizon": 5, "l0": 1.0, "init": "uniform"},
               {"horizon": _NOT_A_COUNT, "l0": _NOT_A_NUMBER, "init": _NOT_AN_INIT}),
    "elt": ({"horizon": 5, "l0": 1.0, "init": "uniform", "theta_l": 1.0, "alpha": 1.0},
            {"horizon": _NOT_A_COUNT, "l0": _NOT_POSITIVE, "init": _NOT_AN_INIT, "theta_l": _NOT_POSITIVE,
             "alpha": _NOT_POSITIVE,
             "general_thresholds": st.one_of(
                 st.booleans(), st.text(max_size=4), _OBJECTS, _NON_FINITE, st.floats(-1e300, 1e300),
                 st.lists(st.lists(st.floats(0.1, 5.0), max_size=4), max_size=4),
                 st.sampled_from([[[-1.0] * 4] * 5, [[math.nan] * 4] * 5, [["x"] * 4] * 5]))}),
}
_CONFIG_CASES["rw"] = _CONFIG_CASES["linear"]
_REQUIRED_KEYS = {"ssbm": ["n1", "n2", "p_in", "p_out", "eta"], "lattice": ["n", "dbar", "alpha", "sign_plan"],
                  "tree": ["n", "sign_prob"]}


def _malformed_configs(command: str, change: str):
    """The valid config of ``command`` with ``change``: one key set to a wrong
    value, a required key dropped, an unknown key added, or not an object."""
    base, wrong = _CONFIG_CASES[command]
    if change == "not an object":
        return st.one_of(st.none(), st.booleans(), st.text(max_size=4), _LISTS, _NON_FINITE)
    if change == "missing":
        return st.sampled_from(_REQUIRED_KEYS[command]).map(lambda key: {k: v for k, v in base.items() if k != key})
    if change == "unknown":
        accepted = {*wrong, "theta_l", "alpha", "general_thresholds"}  # a linear or rw config accepts the elt keys
        return st.builds(lambda key, value: {**base, key: value},
                         st.text(max_size=6).filter(lambda key: key not in accepted), st.integers())
    return wrong[change].map(lambda value: {**base, change: value})


class TestMalformedConfigs:
    """A malformed generate or simulate config is a named data error: exit 2,
    one ``error:`` line, nothing written, never a traceback."""

    @pytest.mark.parametrize("command, change", [
        (command, change) for command, (_, wrong) in _CONFIG_CASES.items()
        for change in [*wrong, "unknown", "not an object", *["missing"] * (command in _REQUIRED_KEYS)]
    ])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_exit_2_with_one_error_line(self, command, change, data):
        config = data.draw(_malformed_configs(command, change))
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out, net = Path(tmp) / "config.json", Path(tmp) / "out", Path(tmp) / "net.edges"
            cfg.write_text(json.dumps(config))
            net.write_text("0 1 1\n1 2 1\n0 2 1\n2 3 1\n0 3 -1\n")  # strictly unbalanced: no bipartition to seed from
            if command in _REQUIRED_KEYS:
                argv = ["generate", command, "--config", str(cfg), "--output", str(out)]
            else:
                argv = ["simulate", command, "--input", str(net), "--config", str(cfg), "--output", str(out)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            err = stderr.getvalue()
            assert (code, stdout.getvalue(), len(err.splitlines())) == (2, "", 1), (config, err)
            assert err.startswith("error: ") and err.endswith("\n") and not out.exists()


class TestDegreeChecksComeFirst:
    """A single node and a tree have every distance fixed by their verdict
    ("both"), but the degree checks run before anything is returned."""

    @pytest.mark.parametrize("text, error", [
        ("n 1\n", "node 0 has zero degree; transition matrices are undefined"),
        ("0 1 1e308\n0 2 1e308\n", "the weighted degree of node 0 exceeds the float range; rescale the weights"),
    ], ids=["single-node", "overflowing-star"])
    @pytest.mark.parametrize("command", ["classify", "measure"])
    def test_in_process(self, tmp_path, capsys, text, error, command):
        path = tmp_path / "g.edges"
        path.write_text(text)
        assert main([command, "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


class TestWeightsNearFloatMax:
    """Weights near the float maximum give finite JSON with nothing on
    stderr, or one error line when a degree overflows."""

    CASES = {
        "edge": ("n 2\n0 1 1e308\n", None),
        "triangle": ("0 1 1e308\n1 2 1e308\n0 2 1e308\n",
                     "error: the weighted degree of node 0 exceeds the float range; rescale the weights\n"),
    }

    @staticmethod
    def check(code, out, err, expected_error):
        if expected_error is None:
            assert (code, err) == (0, "")
            doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON output"))
            numbers = [v for v in doc.values() if isinstance(v, float)]
            assert numbers and all(np.isfinite(numbers))
        else:
            assert (code, out, err) == (2, "", expected_error)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", ["classify", "measure"])
    def test_in_process(self, tmp_path, capsys, case, command):
        text, expected_error = self.CASES[case]
        path = tmp_path / "big.edges"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the run instead of reaching stderr
            code = main([command, "--input", str(path)])
        captured = capsys.readouterr()
        self.check(code, captured.out, captured.err, expected_error)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", ["classify", "measure"])
    def test_in_a_fresh_process(self, tmp_path, case, command):
        text, expected_error = self.CASES[case]
        path = tmp_path / "big.edges"
        path.write_text(text)
        env = {**os.environ, "PYTHONPATH": str(Path(sn.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-m", "signednet.cli", command, "--input", str(path)],
                             env=env, capture_output=True, text=True)
        self.check(run.returncode, run.stdout, run.stderr, expected_error)
