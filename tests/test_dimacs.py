"""Parity of the chunked DIMACS parser with the line-by-line parser it replaced.

``parse_graph`` below the imports is a verbatim copy of the earlier parser,
which split the whole text into lines and handled each one.  The tests
assert that ``dimacs.parse_graph`` builds the same graph (IDs and
adjacency masks) or raises the same ``InputError`` message, line number
included, on hypothesis texts and on fixed texts, with chunks cut after
every line, every few characters and at the default size.  More tests
check that a plain edge list is taken in bulk, that only dense inputs
take the one-way ORs and the transpose, that on a dense text a self-loop
taken in bulk still raises first, with its own line number, whether the
diagonal check finds it or a later bad line sends the text through the
line-by-line rerun, that a bulk chunk stopped part-way by an ID that is
not a key still parses to the same graph, and that parsing holds no more
memory than the earlier parsers did: ``bulk_parse_graph`` is a verbatim
copy of the chunked parser that ORed every edge both ways, its helpers
named through ``dimacs``.
"""

import contextlib
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isreconf import GenProfile, Graph, InputError, dimacs, gen_instance


# -- the earlier implementation, verbatim --------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse `c` comments, one `p edge <n> <m>` line, then `e <u> <v>` lines.

    Vertex IDs are 1-based; duplicate edges are merged; self-loops and
    out-of-range endpoints are rejected with the offending line number.
    """
    n = None
    adj: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise InputError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n = int(fields[2])
                int(fields[3])
            except ValueError:
                raise InputError(f"line {lineno}: malformed problem line") from None
            if n < 0:
                raise InputError(f"line {lineno}: negative vertex count")
            adj = [0] * n
        elif fields[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before the problem line")
            if len(fields) != 3:
                raise InputError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise InputError(f"line {lineno}: malformed edge line") from None
            if u == v:
                raise InputError(f"line {lineno}: self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"line {lineno}: vertex out of range 1..{n}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        else:
            raise InputError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise InputError("missing problem line 'p edge <n> <m>'")
    return Graph._from_adj(list(range(1, n + 1)), adj)


# -- the two-way bulk parser, verbatim but for its names --------------------------


def bulk_parse_graph(text: str) -> Graph:
    """Parse `c` comments, one `p edge <n> <m>` line, then `e <u> <v>` lines.

    Vertex IDs are 1-based; duplicate edges are merged; self-loops and
    out-of-range endpoints are rejected with the offending line number.
    One pass over chunks cut after a newline, one line each up to the
    problem line and about 64K characters after it: a chunk of nothing but
    plain `e <u> <v>` lines is split once, its IDs looked up and
    range-checked and its self-loops checked in bulk; any other chunk (a
    header line, comments, blank lines, other line ends, a bad line) goes
    line by line, with the same messages and line numbers.  Memory beyond
    the text is the adjacency masks, one chunk and an index from ID text to
    position, the size of the graph's own ID index.
    """
    n = None
    adj: list[int] = []
    position = None             # "1".."n" -> 0..n-1, built for the first chunk after the header
    lineno = 0
    end = len(text)
    start = 0
    while start < end:
        cut = text.find("\n", start if n is None else start + dimacs._CHUNK_CHARS - 1) + 1 or end
        chunk = text[start:cut]
        start = cut
        if n is not None:
            count = chunk.count("\n") + (chunk[-1] != "\n")
            if position is None:
                position = {str(v): v - 1 for v in range(1, n + 1)}
            if bulk_plain_edges(chunk, count, position, adj):
                lineno += count
                continue
        lines = chunk.splitlines()
        n, adj = dimacs._parse_lines(lines, lineno, n, adj)
        lineno += len(lines)
    if n is None:
        raise InputError("missing problem line 'p edge <n> <m>'")
    del position                # before the graph builds its own ID index
    return Graph._from_adj(list(range(1, n + 1)), adj)


def bulk_plain_edges(chunk: str, count: int, position: dict[str, int], adj: list[int]) -> bool:
    """OR a chunk of `count` plain `e <u> <v>` lines with distinct ends into adj.

    `position` maps each vertex ID, written in decimal, to its 0-based
    position.  Returns False, with adj untouched, for any other chunk.
    Only the bytes `e`, digits, space, tab and newline, every line starting
    with `e`, three tokens a line, every third token `e` and the others
    vertex IDs make each line exactly one `e` and two IDs between blanks,
    which the line-by-line parser reads the same way.  An ID with a
    leading zero is not a key, so its chunk goes line by line.
    """
    # isascii first: encode() would raise on a lone surrogate
    if (not chunk.isascii() or chunk.encode().translate(None, dimacs._PLAIN_BYTES)
            or (chunk[0] == "e") + chunk.count("\ne") != count):
        return False
    toks = chunk.split()
    if len(toks) != 3 * count or toks[::3].count("e") != count:
        return False
    try:
        us = list(map(position.__getitem__, toks[1::3]))
        vs = list(map(position.__getitem__, toks[2::3]))
    except KeyError:            # out of range, a leading zero or an `e` out of place
        return False
    if any(map(operator.eq, us, vs)):
        return False
    for u, v in zip(us, vs):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return True


# -- helpers --------------------------------------------------------------------


CHUNK_SIZES = (1, 7, 64, dimacs._CHUNK_CHARS)


def outcome(parse, text):
    try:
        g = parse(text)
    except InputError as exc:
        return "error", str(exc)
    return "graph", g._uid, g._adj


def assert_parity(text, sizes=CHUNK_SIZES):
    want = outcome(parse_graph, text)
    for size in sizes:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dimacs, "_CHUNK_CHARS", size)
            assert outcome(dimacs.parse_graph, text) == want, (size, text)


def plain_text(n, edges):
    return f"p edge {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


# -- generated texts ------------------------------------------------------------


# a space as the "end" joins two lines into one
ENDINGS = ["\n"] * 12 + ["\r\n", "\r", "\x0c", "\x85", " "]
BLANKS = st.sampled_from(["", " ", "\t", "  ", " \t"])
ODD_TOKENS = ["+3", "1_0", "٣", "e", "x", "1e2", "-1", "0", "01"]


@st.composite
def lines(draw, n):
    vertex = st.integers(1, max(n, 1))
    kind = draw(st.sampled_from(["edge"] * 8 + ["padded", "comment", "blank", "odd", "p",
                                                 "loop", "range", "short", "long",
                                                 "misaligned"]))
    if kind == "edge":
        return [f"e {draw(vertex)} {draw(vertex)}"]
    if kind == "padded":
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        return [f"{draw(BLANKS)}e{sep}{draw(vertex)}{sep}{draw(vertex)}{draw(BLANKS)}"]
    if kind == "comment":
        return [draw(st.sampled_from(["c", "c note", "c e 1 2", "  c\tx"]))]
    if kind == "blank":
        return [draw(BLANKS)]
    if kind == "odd":
        odd = draw(st.sampled_from(ODD_TOKENS))
        return [draw(st.sampled_from([f"e {odd} 1", f"e 1 {odd}", f"{odd} 1 2"]))]
    if kind == "p":
        return [f"p edge {draw(st.integers(0, 6))} {draw(st.integers(0, 9))}"]
    if kind == "loop":
        v = draw(vertex)
        return [f"e {v} {v}"]
    if kind == "range":
        return [f"e {draw(vertex)} {draw(st.sampled_from([0, n + 1, 10 ** 6]))}"]
    if kind == "short":
        return [draw(st.sampled_from(["e", "e 1", "p", "p edge 3"]))]
    if kind == "long":
        return [f"e {draw(vertex)} {draw(vertex)} {draw(vertex)}"]
    return ["e 1 2 e", "3 4"]


@st.composite
def texts(draw):
    n = draw(st.integers(0, 6))
    body = []
    if draw(st.integers(0, 9)):
        body.append([f"p edge {n} {draw(st.integers(0, 9))}"])
    body.extend(draw(st.lists(lines(n), max_size=30)))
    flat = [line for group in body for line in group]
    ends = [draw(st.sampled_from(ENDINGS)) for _ in flat]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(flat, ends))


@settings(max_examples=300, deadline=None)
@given(texts())
def test_generated_texts_match_the_line_parser(text):
    assert_parity(text)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                                             .filter(lambda e: e[0] != e[1]), max_size=40))))
def test_plain_edge_lists_match_the_line_parser(case):
    n, edges = case
    assert_parity(plain_text(n, edges))


# -- fixed texts ----------------------------------------------------------------


FIXED = [
    "",
    "\n\n",
    "p edge 0 0\n",
    "p edge 3 2\ne 1 2\ne 2 3",                       # no final newline
    "p edge 3 2\ne 1 2\ne 2 3\n",
    "c head\np edge 3 2\ne 1 2\nc mid\n\ne 2 3\n",
    "p edge 3 2\n  e 1 2\ne\t2\t3 \t\n",
    "p edge 3 2\r\ne 1 2\r\ne 2 3\r\n",
    "p edge 3 2\re 1 2\re 2 3\r",
    "p edge 3 2\ne 1 2\x0ce 2 3\x85e 1 3 ",
    "p edge 3 1\ne +3 1\n",
    "p edge 12 1\ne 1_0 2\n",
    "p edge 3 1\ne ٣ 1\n",
    "p edge 4 2\ne 1 2 e\n3 4\n",
    "p edge 4 2\ne 1 e\ne 2 3\n",
    "p edge 4 2\ne12 3 4\ne 1 2\n",
    "p edge 3 1\np edge 3 1\ne 1 2\n",
    "p edge 3 2\ne 1 2\ne 2 3\np edge 3 2\n",
    "p edge 3 1\ne 2 2\n",
    "p edge 3 1\ne 1 4\n",
    "p edge 3 1\ne 0 1\n",
    "e 1 2\np edge 3 1\n",
    "e 1 2\n",
    "p edge 3 1\ne 1 2\nx\n",
    "p edge 3 1\ne 1\n",
    "p edge 3 1\ne 1 2 3\n",
    "p edge 3 1\ne 1 " + "9" * 5000 + "\n",
    "p edge -1 0\n",
    "p node 3 0\n",
    "p edge x 0\n",
]


@pytest.mark.parametrize("text", FIXED)
def test_fixed_texts_match_the_line_parser(text):
    assert_parity(text)


# each one follows plain edge lines, so that it also falls inside a chunk
# that the bulk path looks at
LATE = [
    "e 1 2 e\n3 4\n",
    "e 1 e\ne 2 3\n",
    "e12 3 4\n",
    "e 1\r2\n",
    "e 1 2\r\n",
    "e 1 2\x0ce 2 3\n",
    "e 1 2\x85",
    "e 2 2\n",
    "e 1 10\n",
    "e 10 1\n",
    "e 0 1\n",
    "e 1 0\n",
    "e +3 1\n",
    "e 1_0 2\n",
    "e ٣ 1\n",
    "e 1 \ud800\n",
    "e 01 2\n",
    "e 1 002\n",
    "e 1 " + "9" * 5000 + "\n",
    "p edge 3 1\n",
    "\n",
    "c mid\n",
    "  e 1 2\n",
    "e\t1\t2 \t\n",
    "x\n",
    "e 1\n",
    "e 1 2 3\n",
    "e\n",
    "e 1 2",
]


@pytest.mark.parametrize("late", LATE)
def test_odd_lines_after_plain_lines_match_the_line_parser(late):
    for pad in range(12):
        text = "p edge 9 9\n" + "e 1 2\n" * pad + late + "e 3 4\n" * 3
        assert_parity(text, sizes=(1, 7, 16, 64))
    filler = "e 1 2\n" * (dimacs._CHUNK_CHARS // 6 + 1)
    assert_parity("p edge 9 9\n" + filler + late + "e 3 4\n", sizes=(dimacs._CHUNK_CHARS,))


def test_error_line_numbers_count_every_line_end():
    text = "p edge 3 2\r\ne 1 2\n\ne 2 3\x0cc\ne 3 3\n"
    with pytest.raises(InputError, match="line 6: self-loop at vertex 3"):
        dimacs.parse_graph(text)


# -- bulk path and memory ---------------------------------------------------------


def test_plain_edge_list_is_taken_in_bulk(monkeypatch):
    g, _, _, _ = gen_instance(1, GenProfile(n=400, width=6, rule="tar"))
    edges = list(g.edges())
    rng = random.Random(5)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    assert len(edges) >= 50_000
    text = plain_text(g.n, edges)
    calls = []
    line_parser = dimacs._parse_lines

    def counted(lines, lineno, n, adj):
        calls.append((lineno, len(lines)))
        return line_parser(lines, lineno, n, adj)

    monkeypatch.setattr(dimacs, "_parse_lines", counted)
    got = dimacs.parse_graph(text)
    assert calls == [(0, 1)]            # only the problem line goes line by line
    assert got._uid == g._uid and got._adj == g._adj


def traced_peak(parse, text):
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_memory_stays_at_the_masks():
    n = 20_000
    text = plain_text(n, [(v, v + 1) for v in range(1, n)])
    assert traced_peak(dimacs.parse_graph, text) <= 1.25 * traced_peak(parse_graph, text)


# -- dense inputs: one-way ORs and one transpose -------------------------------------


@contextlib.contextmanager
def transposes():
    """Record n for each call of dimacs._transpose_into inside the block."""
    calls = []
    transpose = dimacs._transpose_into

    def counted(adj, n):
        calls.append(n)
        transpose(adj, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimacs, "_transpose_into", counted)
        yield calls


def dense_edges(seed):
    """A gen_instance(n=600, width=12) graph and its edges, each in a random orientation."""
    g, _, _, _ = gen_instance(seed, GenProfile(n=600, width=12, rule="tar"))
    rng = random.Random(seed)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
    rng.shuffle(edges)
    return g, edges


def test_sparse_inputs_skip_the_transpose():
    n = 20_000
    rng = random.Random(2)
    pairs = ((rng.randint(1, n), rng.randint(1, n)) for _ in range(60_000))
    random_edges = [(u, v) for u, v in pairs if u != v]
    for edges in ([(v, v + 1) for v in range(1, n)], random_edges):
        with transposes() as calls:
            got = dimacs.parse_graph(plain_text(n, edges))
        assert calls == []
        assert got._adj == Graph(range(1, n + 1), edges)._adj


def test_a_bad_line_in_a_sparse_text_raises_from_the_first_pass(monkeypatch):
    # a sparse text's bulk chunks take no self-loop, so the first pass
    # already raises at the first bad line; no rerun reads the text again
    n = 20_000
    rng = random.Random(4)
    pairs = ((rng.randint(1, n), rng.randint(1, n)) for _ in range(20_000))
    text = plain_text(n, [(u, v) for u, v in pairs if u != v])
    calls = []
    read = dimacs._read_chunks

    def counted(text, bulk):
        calls.append(bulk)
        return read(text, bulk)

    monkeypatch.setattr(dimacs, "_read_chunks", counted)
    for bad in (f"e 1 {n + 1}\n", "e 9 9\n", "x\n"):
        calls.clear()
        want = outcome(parse_graph, text + bad)
        assert want[0] == "error" and want[1].startswith(f"line {text.count(chr(10)) + 1}: ")
        assert outcome(dimacs.parse_graph, text + bad) == want
        assert calls == [True]


def test_dense_input_takes_one_transpose():
    g, edges = dense_edges(0)
    assert 16 * len(edges) >= g.n ** 2
    with transposes() as calls:
        got = dimacs.parse_graph(plain_text(g.n, edges))
    assert calls == [g.n]
    assert got._uid == g._uid and got._adj == g._adj


def test_dense_text_with_odd_lines_matches_the_line_parser():
    g, edges = dense_edges(1)
    rng = random.Random(3)
    edges += [(v, u) for u, v in rng.sample(edges, 500)]       # each repeat turned around
    rng.shuffle(edges)
    lines = [f"e {u} {v}\n" for u, v in edges]
    mid = len(lines) // 2
    u, v = edges[mid]
    lines[mid:mid] = ["c a comment in the middle\n", f"e\t{v}\t{u}\n"]
    text = f"p edge {g.n} {len(edges)}\n" + "".join(lines)
    for size in (64, dimacs._CHUNK_CHARS):
        with transposes() as calls:
            assert_parity(text, sizes=(size,))
        assert calls == [g.n]
    assert dimacs.parse_graph(text)._adj == g._adj


LOOP = "e 7 7\n"


@pytest.mark.parametrize("late, transposed", [
    # a self-loop taken in bulk, then a chunk that raises: the rerun puts the loop first
    ({6: LOOP, 8: "e 1 601\n"}, []),
    # a lone self-loop taken in bulk, found on the diagonal after the transpose
    ({9: LOOP}, [600]),
    # an ID that is not a key stops a bulk chunk part-way; it goes line by line
    ({7: "e 05 3\n"}, [600]),
])
def test_late_lines_in_a_dense_text_match_the_line_parser(late, transposed):
    g, edges = dense_edges(2)
    lines = [f"e {u} {v}\n" for u, v in edges]
    for tenth in sorted(late, reverse=True):
        lines.insert(len(lines) * tenth // 10, late[tenth])
    text = f"p edge {g.n} {len(edges)}\n" + "".join(lines)
    want = outcome(parse_graph, text)
    if LOOP in lines:
        assert want == ("error", f"line {lines.index(LOOP) + 2}: self-loop at vertex 7")
    else:
        assert want[2] == Graph(range(1, g.n + 1), edges + [(5, 3)])._adj
    with transposes() as calls:
        assert_parity(text, sizes=(dimacs._CHUNK_CHARS,))
    assert calls == transposed


def test_dense_parse_memory_stays_at_the_two_way_parser():
    n = 2000
    rng = random.Random(11)
    edges = [(u, v) if rng.random() < 0.5 else (v, u)
             for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.15]
    text = plain_text(n, edges)
    with transposes() as calls:
        assert traced_peak(dimacs.parse_graph, text) <= 1.25 * traced_peak(bulk_parse_graph, text)
    assert calls == [n]

