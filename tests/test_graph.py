import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isreconf import Graph, InputError
from isreconf.graph import bits

from helpers import complete_graph, edgeless_graph, graphs, path_graph


def test_induced_subgraph_restricts_edges():
    k3 = complete_graph(3)
    sub = k3.induced_subgraph({1, 2})
    assert sub.vertices == {1, 2}
    assert list(sub.edges()) == [(1, 2)]


def test_induced_subgraph_identity():
    p4 = path_graph([1, 2, 3, 4])
    assert p4.induced_subgraph(p4.vertices) == p4


def test_induced_subgraph_p4_example():
    p4 = path_graph([1, 2, 3, 4])
    sub = p4.induced_subgraph({1, 3, 4})
    assert list(sub.edges()) == [(3, 4)]


def test_delete_vertices_p3():
    p3 = path_graph([1, 2, 3])
    g = p3.delete_vertices({2})
    assert g.vertices == {1, 3}
    assert g.m == 0


def test_delete_nothing_is_identity():
    g = complete_graph(4)
    assert g.delete_vertices(()) == g


def test_delete_one_from_k4():
    assert complete_graph(4).delete_vertices({4}) == complete_graph(3)


def test_ids_survive_deletion():
    g = path_graph([1, 2, 3, 4])
    h = g.delete_vertices({2})
    assert h.ids == (1, 3, 4)
    assert h.has_edge(3, 4)
    assert not h.has_vertex(2)


def test_neighborhood():
    p3 = path_graph([1, 2, 3])
    assert p3.neighborhood({2}) == {1, 3}
    assert p3.neighborhood({1, 3}) == {2}
    assert p3.neighborhood(()) == frozenset()


def test_components_shapes():
    assert complete_graph(3).components() == [frozenset({1, 2, 3})]
    assert edgeless_graph(3).components() == [frozenset({1}), frozenset({2}), frozenset({3})]
    g = Graph([1, 2, 3, 4, 5], [(1, 2), (2, 3), (4, 5)])
    assert g.components() == [frozenset({1, 2, 3}), frozenset({4, 5})]


def test_is_independent():
    c4 = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert c4.is_independent({1, 3})
    assert not c4.is_independent({1, 2})
    assert c4.is_independent(())


def test_unknown_vertex_errors():
    g = path_graph([1, 2, 3])
    with pytest.raises(InputError):
        g.induced_subgraph({1, 9})
    with pytest.raises(InputError):
        g.neighbors(0)
    with pytest.raises(InputError):
        g.is_independent([[1]])
    view = g.delete_vertices({2})
    for query in (view.neighbors, view.degree, lambda v: view.has_edge(1, v),
                  lambda v: view.has_edge(v, 1)):
        with pytest.raises(InputError):
            query(2)
    with pytest.raises(InputError):
        Graph([1, 2], [(1, 1)])
    with pytest.raises(InputError):
        Graph([1, 2], [(1, 3)])


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=8), st.integers(0, 2 ** 20))
def test_delete_equals_induce_on_complement(g, seed):
    import random
    rng = random.Random(seed)
    drop = {v for v in g.ids if rng.random() < 0.4}
    assert g.delete_vertices(drop) == g.induced_subgraph(set(g.ids) - drop)


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=8))
def test_components_partition_and_capture_edges(g):
    comps = g.components()
    seen = set()
    for c in comps:
        assert not seen & c
        seen |= c
    assert seen == g.vertices
    where = {v: i for i, c in enumerate(comps) for v in c}
    for u, v in g.edges():
        assert where[u] == where[v]


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=8), st.integers(0, 2 ** 20))
def test_neighborhood_disjoint_from_set(g, seed):
    import random
    rng = random.Random(seed)
    s = {v for v in g.ids if rng.random() < 0.4}
    assert not g.neighborhood(s) & s


@st.composite
def near_density_threshold(draw):
    """A mask of 12 to 4000 bits with about one set bit per 12 positions:
    exactly enough for the dense path of ``bits``, or one fewer."""
    length = draw(st.integers(12, 4000))
    count = max(1, -(-length // 12) - draw(st.integers(0, 1)))
    others = draw(st.sets(st.integers(0, length - 2), min_size=count - 1, max_size=count - 1))
    return sum(1 << p for p in others) | 1 << (length - 1)


masks = st.one_of(
    st.just(0),
    st.integers(0, 4000).map(lambda p: 1 << p),
    st.integers(0, 2 ** 600),                                     # dense
    st.lists(st.integers(0, 2000), max_size=12).map(lambda ps: sum(1 << p for p in set(ps))),
    near_density_threshold(),
)


@settings(max_examples=300, deadline=None)
@given(masks)
def test_bits_lists_set_positions_in_order(mask):
    assert list(bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


@pytest.mark.parametrize("mask", [(1 << 4000) - (1 << 17),              # dense
                                  1 << 3999 | 1 << 1234 | 1 << 17])   # sparse
def test_bits_yields_the_lowest_bit_first(mask):
    assert next(bits(mask)) == 17
