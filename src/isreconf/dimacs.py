"""DIMACS-like graph files and the JSON instance sidecar."""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

from .errors import InputError
from .graph import Graph
from .rules import Rule, TAR, TJ, TS


# Characters of text cut per chunk; each chunk ends just after a newline.
_CHUNK_CHARS = 1 << 16
# Every byte a chunk of plain `e <u> <v>` lines may hold.
_PLAIN_BYTES = b"e0123456789 \t\n"


def parse_graph(text: str) -> Graph:
    """Parse `c` comments, one `p edge <n> <m>` line, then `e <u> <v>` lines.

    Vertex IDs are 1-based; duplicate edges are merged; self-loops and
    out-of-range endpoints are rejected with the offending line number.
    `_read_chunks` reads the text once, taking plain edge chunks in bulk.
    A sparse input's first pass raises at the first bad line.  A dense
    input's bulk chunks do not look for self-loops, so after a bad line,
    or after a self-loop found on the diagonal, the pass returns None and
    the text goes through `_read_chunks` again with every chunk read line
    by line: the first bad line raises with the same message and line
    number as in a plain line-by-line parse.  The rerun also holds one
    chunk at a time, never the text's whole line list.
    """
    n, adj = _read_chunks(text, bulk=True) or _read_chunks(text, bulk=False)
    return Graph._from_adj(list(range(1, n + 1)), adj)


def _read_chunks(text: str, bulk: bool) -> tuple[int, list[int]] | None:
    """One pass over text in chunks; returns (n, adj), or None to read it line by line.

    Chunks are cut after a newline, one line each up to the problem line
    and about 64K characters after it.  With `bulk`, `_plain_edges` takes a
    chunk of nothing but plain `e <u> <v>` lines at once; any other chunk
    (a header line, comments, blank lines, other line ends, a bad line)
    goes line by line, with the same messages and line numbers.  The first
    chunk after the problem line decides once whether the input is dense:
    at its characters per line, the text left holds at least n² / 16
    edges.  A dense input's bulk chunks OR each edge into the first
    endpoint's row only, and `_transpose_into` symmetrizes adj at the end;
    the line-by-line chunks OR both ways, and the closure is the same
    either way.  A dense input returns None on a bad line or on a
    self-loop its bulk chunks took, which one look down the diagonal
    finds, as such a loop may come before the first bad line.  Memory
    beyond the text is the adjacency masks, one chunk, an index from ID
    text to position, the size of the graph's own ID index, and on a dense
    input a table from ID text to bit, n² / 16 bytes.  The estimate is at
    most the text's length, so a dense input has n² at most 16 times that,
    which bounds the bit table and the transpose's work and strings.
    """
    n = None
    adj: list[int] = []
    position = None             # "1".."n" -> 0..n-1, built for the first chunk after the header
    bit = None                  # "1".."n" -> 1 << 0..n-1, on a dense input only
    lineno = 0
    end = len(text)
    start = 0
    while start < end:
        cut = text.find("\n", start if n is None else start + _CHUNK_CHARS - 1) + 1 or end
        chunk = text[start:cut]
        start = cut
        if bulk and n is not None:
            count = chunk.count("\n") + (chunk[-1] != "\n")
            if position is None:
                position = {str(v): v - 1 for v in range(1, n + 1)}
                # edges left, at this chunk's characters per line, against n² / 16
                if 16 * (end - cut + len(chunk)) * count >= n * n * len(chunk):
                    bit = {key: 1 << p for key, p in position.items()}
            if _plain_edges(chunk, count, position, adj, bit):
                lineno += count
                continue
        lines = chunk.splitlines()
        try:
            n, adj = _parse_lines(lines, lineno, n, adj)
        except InputError:
            if bit is None:         # a sparse pass raises at the first bad line
                raise
            return None
        lineno += len(lines)
    if n is None:
        raise InputError("missing problem line 'p edge <n> <m>'")
    if bit is not None:
        _transpose_into(adj, n)
        if any(row >> p & 1 for p, row in enumerate(adj)):
            return None
    return n, adj


def _plain_edges(chunk: str, count: int, position: dict[str, int], adj: list[int],
                 bit: dict[str, int] | None) -> bool:
    """OR a chunk of `count` plain `e <u> <v>` lines into adj, or return False.

    `position` maps each vertex ID, written in decimal, to its 0-based
    position.  Only the bytes `e`, digits, space, tab and newline, every
    line starting with `e`, three tokens a line, every third token `e` and
    the others vertex IDs make each line exactly one `e` and two IDs
    between blanks, which the line-by-line parser reads the same way.  An
    ID with a leading zero is not a key, so its chunk goes line by line.

    Without `bit`, adj is untouched unless every ID is a key and no line is
    a self-loop; then each edge goes into both rows.  With `bit`, which
    maps each ID to its position's bit, one loop ORs each edge into u's row
    only, self-loops included, and the caller symmetrizes adj and looks
    for self-loops on its diagonal.  An ID that is not a key stops the loop
    part-way and returns False; adj then holds some edges of this chunk's
    own lines, which the line-by-line parser ORs in again or rejects.
    """
    # isascii first: encode() would raise on a lone surrogate
    if (not chunk.isascii() or chunk.encode().translate(None, _PLAIN_BYTES)
            or (chunk[0] == "e") + chunk.count("\ne") != count):
        return False
    toks = chunk.split()
    if len(toks) != 3 * count or toks[::3].count("e") != count:
        return False
    try:
        if bit is not None:
            tok = iter(toks)
            for _, u, v in zip(tok, tok, tok):
                adj[position[u]] |= bit[v]
            return True
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


def _transpose_into(adj: list[int], n: int) -> None:
    """OR the transpose of the n × n bit matrix adj into adj, in place.

    Blocks of n / 16 rows: their `n`-digit binary strings are joined,
    highest row first, so that one strided slice reads column j of the
    block, highest row first, as the digits of one int.  About three
    blocks' worth of strings, 3n² / 16 characters, are alive at once; at
    n = 2000 that is less than a 64K chunk's tokens.  ORing in place is
    safe: a bit that a block adds to a row not yet read comes back to a
    row that already has it.
    """
    step = max(n >> 4, 1)
    width = f"0{n}b"
    for low in range(0, n, step):
        rows = "".join([format(row, width) for row in reversed(adj[low:low + step])])
        for j in range(n):
            column = int(rows[n - 1 - j::n], 2)
            if column:
                adj[j] |= column << low


def _parse_lines(lines: list[str], lineno: int, n: int | None,
                 adj: list[int]) -> tuple[int | None, list[int]]:
    """The line-by-line parser: lines numbered from lineno + 1; returns (n, adj)."""
    for lineno, raw in enumerate(lines, start=lineno + 1):
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
    return n, adj


def emit_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    """A parsed problem: graph, rule, and the two configurations."""

    graph: Graph
    rule: Rule
    start: frozenset[int]
    target: frozenset[int]


def load_sidecar(text: str) -> dict:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"sidecar is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InputError("sidecar must be a JSON object")
    return obj


def build_instance(g: Graph, sidecar: dict, rule_flag: str | None = None,
                   k_flag: int | None = None, check_target_floor: bool = True) -> Instance:
    """Combine graph, sidecar and flag overrides into a checked Instance."""
    kind = rule_flag or sidecar.get("rule")
    if kind not in (TAR, TJ, TS):
        raise InputError(f"rule must be one of tar, tj, ts (got {kind!r})")
    # a sidecar's k is dropped when --rule overrides its rule to tj or ts, but
    # an explicit --k there reaches Rule, which rejects it
    k = sidecar.get("k") if k_flag is None and kind == TAR else k_flag
    if kind == TAR and k is None:
        raise InputError("rule tar requires a threshold k")
    if k is not None and type(k) is not int:
        raise InputError(f"threshold k must be an integer (got {k!r})")
    rule = Rule(kind, k)
    sides = [sidecar.get(name) for name in ("start", "target")]
    if any(type(side) is not list or any(type(v) is not int for v in side) for side in sides):
        raise InputError("sidecar must carry integer arrays 'start' and 'target'")
    start, target = map(frozenset, sides)
    for name, side in (("start", start), ("target", target)):
        if not g.is_independent(side):
            raise InputError(f"{name} set is not independent")
    if kind == TAR:
        floor_sets = (start, target) if check_target_floor else (start,)
        if any(rule.k > len(side) for side in floor_sets):
            raise InputError("TAR threshold exceeds a configuration size")
    return Instance(g, rule, start, target)


def sidecar_json(rule: Rule, start, target) -> str:
    obj: dict = {"rule": rule.kind}
    if rule.kind == TAR:
        obj["k"] = rule.k
    obj["start"] = sorted(start)
    obj["target"] = sorted(target)
    return json.dumps(obj, indent=2) + "\n"
