"""Derived subgraphs are views over their root's adjacency list.

Every graph derived from a root, at any depth, holds the root's own row
list and a mask of its live positions.  The property test compares such a
view with the same graph rebuilt from scratch on every query that reads
rows, and the memory test checks that a deep decomposition allocates no
row list per module.
"""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from isreconf import Graph, alpha, is_module, md_tree, modular_width, nd_partition, \
    top_partition

from helpers import threshold_graph


def rebuilt(g, ids):
    """The subgraph of g induced by ids, built as a fresh root graph."""
    ids = frozenset(ids)
    return Graph(ids, [(u, v) for u, v in g.edges() if u in ids and v in ids])


def step(g, keep, delete):
    return g.delete_vertices(g.vertices - keep) if delete else g.induced_subgraph(keep)


@st.composite
def derived(draw):
    """A random graph, a view of it one or two derivations deep, and a vertex subset.

    Each pair is an edge with even odds, so prime nodes with neighbours
    outside them, whose rows the views must mask, are common.
    """
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    picked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(range(1, n + 1), [e for e, keep in zip(pairs, picked) if keep])
    h = g
    for _ in range(draw(st.integers(1, 2))):
        keep = frozenset(draw(st.lists(st.sampled_from(sorted(h.ids)), min_size=1, unique=True)))
        h = step(h, keep, draw(st.booleans()))
    subset = draw(st.lists(st.sampled_from(sorted(h.ids)), unique=True))
    return g, h, subset


@settings(max_examples=300, deadline=None)
@given(derived())
def test_view_answers_like_a_rebuilt_graph(case):
    g, h, subset = case
    r = rebuilt(g, h.vertices)
    assert h._adj is g._adj
    assert (h.n, h.m, list(h.edges())) == (r.n, r.m, list(r.edges()))
    for v in h.ids:
        assert h.neighbors(v) == r.neighbors(v)
        assert h.degree(v) == r.degree(v)
    assert h.neighborhood(subset) == r.neighborhood(subset)
    assert h.components() == r.components()
    assert nd_partition(h) == nd_partition(r)
    assert modular_width(h) == modular_width(r)
    assert md_tree(h) == md_tree(r)
    assert alpha(h) == alpha(r)
    if h.n >= 2:
        parts = top_partition(h)
        assert parts == top_partition(r)
        assert all(is_module(h, part) for part in parts)


def subgraphs(g):
    """Every module subgraph md_tree reached, from g's derive cache down."""
    out = []
    todo = [g]
    while todo:
        h = todo.pop()
        out.append(h)
        todo.extend(sub for key, sub in h._memo.items()
                    if isinstance(key, tuple) and key[0] == "sub")
    return out


def test_deep_decomposition_shares_one_row_list():
    g = threshold_graph(0, 600)
    tracemalloc.start()
    try:
        md_tree(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # copying an n-slot row list per module subgraph peaks at 17.3 MiB here,
    # growing as n^3; the views, their memos and the tree peak at 6.3 MiB.
    # n is kept small because tracing slows md_tree about seventyfold
    assert peak < 10 * 2 ** 20
    subs = subgraphs(g)
    assert len(subs) > 600
    assert all(h._adj is g._adj for h in subs)
