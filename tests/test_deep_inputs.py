"""Decomposition-deep inputs under the caller's recursion limit.

The tree fold, the table fills and the TAR and TS reach decisions are
generator recursions on one trampoline, ``decomposition._run``, so no
entry point nests calls per decomposition level or raises the recursion
limit.  Each case runs with the limit set to the caller's frame depth
plus 100, on an input that nested deeper than that when the solvers
recursed with Python calls (``modular_width`` and alpha already used
worklists); results are pinned to the values computed then.  TS on the
staircase descends 219 levels; on the threshold graph, only 75.  The
wide inputs are shallow instead: each root is a prime node of order 1000
or 500, its modular width, so the prime split and alpha's branching over
the quotient run at that order under the same limit.  On a sparse random
prime only the split runs: alpha's branching over its quotient may take
time exponential in the order.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

from isreconf import (Graph, alpha, lambda_all, lambda_single, md_tree, modular_width, reach_nd,
                      reach_tar, reach_tj, reach_ts, stats, top_partition)
from isreconf.cli import main
from isreconf.decomposition import _run
from isreconf.dimacs import emit_graph

from helpers import graphs
from test_solver_core import threshold_instance


def threshold300():
    """The n=300 threshold graph of test_solver_core.py: about 150 levels deep."""
    return threshold_instance(0, 300)


def staircase(m=110):
    """Vertex v of 0..2m-1 joins every earlier vertex iff v is odd.

    The evens and ``{1} | evens - {0}`` are maximum independent sets that
    differ at the bottom; ``reach_tar`` at floor m-1 used to nest 2m-1 calls.
    """
    g = Graph(range(2 * m), [(u, v) for v in range(1, 2 * m, 2) for u in range(v)])
    return g, frozenset(range(0, 2 * m, 2)), frozenset({1, *range(2, 2 * m, 2)})


def matching(m=120):
    """m disjoint edges: m clique twin classes, which ``reach_nd`` used to nest one call each."""
    g = Graph(range(2 * m), [(2 * i, 2 * i + 1) for i in range(m)])
    return g, frozenset(range(0, 2 * m, 2)), frozenset(range(1, 2 * m, 2))


def wide_prime(n, cycle=False, twins=1):
    """P_n, or C_n, with each vertex replaced by ``twins`` false twins: a prime root of order n."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)] * cycle
    g = Graph(range(n * twins), [(i * twins + a, j * twins + b) for i, j in edges
                                 for a in range(twins) for b in range(twins)])
    return g, None, None


def sparse_prime(n, seed=0):
    """The path 0..n-1 plus random chords up to 2n edges; seed 0 gives a prime root of order n."""
    rng = random.Random(seed)
    edges = {(i, i + 1) for i in range(n - 1)}
    while len(edges) < 2 * n:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(range(n), edges), None, None


def width_parts(g, s, t):
    return modular_width(g), Counter(map(len, top_partition(g)))


def width_parts_alpha(g, s, t):
    return (*width_parts(g, s, t), alpha(g).size)


def answer(ans):
    return ans.reachable, len(ans.certificate.moves) if ans.reachable else None


def tree(g, s, t):
    root = md_tree(g)
    return root.leaf_count(), repr(root)


def same_tree(g, s, t):
    """Trees built apart compare and hash equal; the tree without one vertex differs."""
    a, b = md_tree(g), md_tree(Graph(g.ids, g.edges()))
    return a is not b, a == b, hash(a) == hash(b), a == md_tree(g.delete_vertices([g.ids[0]]))


def table(g, s, t):
    out = lambda_all(g, s)
    return sorted({r.size for r in out.values()}), sum(len(r.sequence.moves) for r in out.values())


@contextlib.contextmanager
def graph_file(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.gr"
        path.write_text(emit_graph(g))
        yield str(path)


def decompose(g, *flags):
    with graph_file(g) as path, contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["decompose", path, *flags]) == 0
    return out.getvalue()


def from_one(g):
    """g with its IDs shifted up by one, as DIMACS numbers vertices from 1."""
    return Graph([v + 1 for v in g.ids], [(u + 1, v + 1) for u, v in g.edges()])


def decompose_digest(g, s, t):
    text = decompose(from_one(g), "--json").split(', "stats"')[0]  # the stats hold a timing
    return hashlib.sha256(text.encode()).hexdigest()


def decompose_rows(g, s, t):
    """Leaf rows and root kind of the tree, read back with ``json.loads`` under the same limit."""
    rows = json.loads(decompose(from_one(g), "--json"))["tree"]
    return sum(row["kind"] == "leaf" for row in rows), rows[0]["kind"]


CASES = {  # name: (input, call, result)
    "md_tree": (threshold300, tree, (300, "MDNode(series, 300 vertices, 3 children)")),
    "md_tree_eq_hash": (threshold300, same_tree, (True, True, True, False)),
    "modular_width": (threshold300, lambda g, s, t: modular_width(g), 2),
    "alpha": (threshold300, lambda g, s, t: alpha(g).size, 155),
    "lambda_single": (threshold300, lambda g, s, t: lambda_single(g, s, len(s) // 2).size, 155),
    "lambda_all": (threshold300, table, ([64, 155], 9671)),
    "reach_tar": (staircase, lambda g, s, t: answer(reach_tar(g, 109, s, t)), (True, 2)),
    "reach_tj": (threshold300, lambda g, s, t: answer(reach_tj(g, s, t)), (True, 186)),
    "reach_nd": (matching, lambda g, s, t: answer(reach_nd(g, 1, s, t)), (True, 478)),
    "reach_ts": (threshold300, lambda g, s, t: reach_ts(g, s, t), True),
    "reach_ts_staircase": (staircase, lambda g, s, t: reach_ts(g, s, t), True),
    "decompose": (threshold300, decompose_digest,
                  "c5e60450117da2fffaeb525bbff924ac05f407efae8a0c3a102fee86cb829630"),
    "decompose_rows": (threshold300, decompose_rows, (300, "series")),
    "wide_path": (lambda: wide_prime(1000), width_parts_alpha, (1000, {1: 1000}, 500)),
    "wide_cycle": (lambda: wide_prime(1000, cycle=True), width_parts_alpha, (1000, {1: 1000}, 500)),
    "wide_twin_path": (lambda: wide_prime(500, twins=2), width_parts_alpha, (500, {2: 500}, 500)),
    # decomposition only: alpha on a random quotient of this order may take exponential time
    "wide_sparse_prime": (lambda: sparse_prime(1000), width_parts, (1000, {1: 1000})),
}


def frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def under_caller_limit(call, *args):
    """``call(*args)`` with the recursion limit at the caller's frame depth plus 100, left alone."""
    old = sys.getrecursionlimit()
    limit = frame_depth() + 100
    sys.setrecursionlimit(limit)
    try:
        got = call(*args)
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(old)
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_deep_input_leaves_the_recursion_limit_alone(name):
    make, call, want = CASES[name]
    g, s, t = make()
    assert under_caller_limit(call, g, s, t) == want


class Bottom(Exception):
    pass


def descend(n, fail=False):
    """A generator recursion n levels deep returning n; ``fail`` raises at the bottom."""
    if n == 0:
        if fail:
            raise Bottom("at the bottom")
        return 0
    return (yield descend(n - 1, fail)) + 1


def test_trampoline_runs_a_deep_recursion_and_passes_its_errors_up():
    assert under_caller_limit(_run, descend(20000)) == 20000
    with pytest.raises(Bottom, match="at the bottom"):
        under_caller_limit(_run, descend(20000, fail=True))


def staircase_counts(m):
    """``reach_tar`` on ``staircase(m)`` at floor m - 1: answer, moves and the run counters."""
    g, s, t = staircase(m)
    stats.reset()
    got = answer(reach_tar(g, m - 1, s, t))
    return got, stats.get("rule_applications"), stats.get("nodes_deleted")


def test_staircase_tables_fill_once_per_call():
    # each module's table entry is filled once per reach call, so doubling m
    # about doubles the rule applications (10m - 16) and quadruples the
    # deletions; a table filled again for every parent grows them as m^2
    # and m^3 (4602 -> 18802 rule applications from m = 40 to 80)
    (small, rules40, dead40), (large, rules80, dead80) = map(staircase_counts, (40, 80))
    assert small == large == (True, 2)
    assert rules80 <= 2.1 * rules40
    assert dead80 <= 4.2 * dead40


def tree_json(node):
    """The tree as one nested object, leaves as ``decompose`` writes their rows."""
    if node.kind == "leaf":
        return {"kind": "leaf", "v": node.vertex}
    return {"kind": node.kind, "children": [tree_json(c) for c in node.children]}


def nested(rows, i=0):
    """The nested object that row ``i`` of ``decompose``'s flat tree roots."""
    row = rows[i]
    if row["kind"] == "leaf":
        return row
    return {"kind": row["kind"], "children": [nested(rows, j) for j in row["children"]]}


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=9))
def test_decompose_output_equals_json_dumps_of_the_nested_tree(g):
    for flags, indent in ((["--json"], None), ([], 2)):
        text = decompose(g, *flags)
        obj = json.loads(text)
        rows = obj["tree"]
        assert nested(rows) == tree_json(md_tree(g))
        # breadth-first: the child lists, read in row order, number rows 1, 2, ...
        assert sum((row.get("children", []) for row in rows), []) == list(range(1, len(rows)))
        assert text == json.dumps(obj, indent=indent) + "\n"
