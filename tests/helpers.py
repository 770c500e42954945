"""Shared graph builders and hypothesis strategies."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from isreconf import Graph


def path_graph(ids):
    ids = list(ids)
    return Graph(ids, list(zip(ids, ids[1:])))


def cycle_graph(ids):
    ids = list(ids)
    return Graph(ids, list(zip(ids, ids[1:])) + [(ids[-1], ids[0])])


def complete_graph(n, first=1):
    ids = list(range(first, first + n))
    return Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]])


def edgeless_graph(n, first=1):
    return Graph(range(first, first + n))


def star_graph(center, leaves):
    return Graph([center, *leaves], [(center, v) for v in leaves])


def join_all(g: Graph, new_vertex: int) -> Graph:
    """Add one vertex adjacent to everything."""
    edges = list(g.edges()) + [(new_vertex, v) for v in g.ids]
    return Graph(list(g.ids) + [new_vertex], edges)


def random_graph(rng: random.Random, n: int, p: float, first=1) -> Graph:
    ids = list(range(first, first + n))
    edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < p]
    return Graph(ids, edges)


def _threshold_graph(rng: random.Random, n: int) -> Graph:
    edges = []
    for v in range(1, n):
        if rng.random() < 0.5:
            edges += [(u, v) for u in range(v)]
    return Graph(range(n), edges)


def threshold_graph(seed: int, n: int) -> Graph:
    """Each new vertex is isolated or dominating; the decomposition is about n/2 deep."""
    return _threshold_graph(random.Random(seed), n)


def threshold_sides(seed: int, n: int) -> tuple[Graph, frozenset[int], frozenset[int]]:
    """``threshold_graph`` plus two random maximal independent sets, drawn as
    ``perfbench.workloads.threshold_instance`` draws them (on IDs 0..n-1)."""
    rng = random.Random(seed)
    g = _threshold_graph(rng, n)

    def maximal_independent() -> frozenset[int]:
        order = list(range(n))
        rng.shuffle(order)
        chosen: set[int] = set()
        for v in order:
            if not any(g.has_edge(v, u) for u in chosen):
                chosen.add(v)
        return frozenset(chosen)

    return g, maximal_independent(), maximal_independent()


def random_independent_set(rng: random.Random, g: Graph, keep=0.7) -> frozenset[int]:
    chosen: set[int] = set()
    for v in rng.sample(list(g.ids), g.n):
        if rng.random() < keep and all(not g.has_edge(v, u) for u in chosen):
            chosen.add(v)
    return frozenset(chosen)


@st.composite
def graphs(draw, min_n=1, max_n=9):
    n = draw(st.integers(min_n, max_n))
    ids = list(range(1, n + 1))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(ids, picked)


@st.composite
def graph_with_set(draw, min_n=1, max_n=9):
    g = draw(graphs(min_n, max_n))
    seed = draw(st.integers(0, 2 ** 30))
    return g, random_independent_set(random.Random(seed), g)
