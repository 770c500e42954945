import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isreconf import (GenProfile, Graph, InputError, InternalError, alpha, brute_modular_width,
                      gen_instance, is_module, md_tree, modular_width, nd_partition, reach_tar,
                      top_partition)
from isreconf import decomposition
from isreconf.decomposition import (_clique_class, _degree_buckets, _min_module, _prime_child_masks,
                                    _root_child_masks, _twin_masks, quotient_adjacency)
from isreconf.graph import _flood, bits

from helpers import (complete_graph, cycle_graph, edgeless_graph, graphs,
                     path_graph, random_graph, threshold_graph, threshold_sides)


def c4():
    return cycle_graph([1, 2, 3, 4])


def test_is_module_whole_and_singletons():
    g = path_graph([1, 2, 3])
    assert is_module(g, g.vertices)
    for v in g.ids:
        assert is_module(g, {v})


def test_is_module_counterexample():
    # 1 has no outside neighbor beyond the pair, 2 sees 3
    g = path_graph([1, 2, 3])
    assert not is_module(g, {1, 2})
    assert is_module(g, {1, 3})


def test_is_module_empty_errors():
    with pytest.raises(InputError):
        is_module(path_graph([1, 2]), set())


@pytest.mark.parametrize("fn, message", [
    (md_tree, "modular decomposition needs a nonempty graph"),
    (modular_width, "modular width of the empty graph is undefined"),
])
def test_empty_graph_has_no_decomposition(fn, message):
    with pytest.raises(InputError) as err:
        fn(Graph([]))
    assert str(err.value) == message


def test_lemma_module_checks_run_in_order():
    # an unknown vertex, then an empty set, then a set that is not a module
    g = path_graph([1, 2, 3])
    with pytest.raises(InputError, match="vertex"):
        decomposition._module_mask(g, {1, 9})
    with pytest.raises(InputError, match="nonempty"):
        decomposition._module_mask(g, set())
    with pytest.raises(InputError, match="not a module"):
        decomposition._module_mask(g, {1, 2})
    assert decomposition._module_mask(g, {1, 3}) == g._mask({1, 3})


def test_md_tree_shapes():
    kn = md_tree(complete_graph(5))
    assert kn.kind == "series" and len(kn.children) == 5
    assert all(c.kind == "leaf" for c in kn.children)
    en = md_tree(edgeless_graph(5))
    assert en.kind == "parallel" and len(en.children) == 5
    p4 = md_tree(path_graph([1, 2, 3, 4]))
    assert p4.kind == "prime" and len(p4.children) == 4
    assert all(c.kind == "leaf" for c in p4.children)


def test_p4_has_no_nontrivial_module():
    g = path_graph([1, 2, 3, 4])
    ids = g.ids
    for state in range(1, 1 << 4):
        sub = {ids[i] for i in range(4) if state >> i & 1}
        if 1 < len(sub) < 4:
            assert not is_module(g, sub)


def test_top_partition_c4():
    assert top_partition(c4()) == [frozenset({1, 3}), frozenset({2, 4})]


def test_top_partition_p4_singletons():
    assert top_partition(path_graph([1, 2, 3, 4])) == [
        frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})]


def test_top_partition_k2():
    assert top_partition(complete_graph(2)) == [frozenset({1}), frozenset({2})]


def test_top_partition_needs_two_vertices():
    with pytest.raises(InputError):
        top_partition(Graph([1]))


def test_modular_width_examples():
    assert modular_width(complete_graph(5)) == 2
    assert modular_width(path_graph([1, 2, 3, 4, 5])) == 5
    assert modular_width(Graph([7])) == 1
    assert modular_width(complete_graph(2)) == 2
    assert modular_width(edgeless_graph(2)) == 2


def test_module_folded_before_its_parent():
    g, _, _, _ = gen_instance(5, GenProfile(n=150, width=10))
    part = max((g._derive(g._mask(p)) for p in top_partition(g)), key=lambda sub: sub.n)
    assert part.n > 1
    part_tree, part_width = md_tree(part), modular_width(part)
    tree, width = md_tree(g), modular_width(g)
    assert any(child is part_tree for child in tree.children)
    fresh = Graph._from_adj(list(g._uid), g._adj)
    assert (tree, width) == (md_tree(fresh), modular_width(fresh))
    fresh_part = fresh._derive(part._vmask)
    assert (part_tree, part_width) == (md_tree(fresh_part), modular_width(fresh_part))


def test_a_deep_tree_holds_no_vertex_set_per_node():
    # each node keeps a mask over the root's ID tuple, so this tree, about 300
    # levels deep, holds O(n) IDs; a frozenset per node would hold O(n^2)
    g = threshold_graph(0, 600)
    alpha(g)                      # memoises the splits, so only the tree is measured
    tracemalloc.start()
    try:
        tree = md_tree(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.leaf_count() == 600 and len(tree.span) == 600
    assert peak < 1 << 20


def test_nd_partition_examples():
    kn = nd_partition(complete_graph(4))
    assert len(kn) == 1 and kn[0].kind == "clique"
    c4_classes = nd_partition(c4())
    assert [(sorted(c.members), c.kind) for c in c4_classes] == [
        ([1, 3], "independent"), ([2, 4], "independent")]
    assert len(nd_partition(path_graph([1, 2, 3, 4]))) == 4


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=8))
def test_modular_width_matches_brute_force(g):
    assert modular_width(g) == brute_modular_width(g)


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=1, max_n=9))
def test_md_tree_structure_is_valid(g):
    tree = md_tree(g)
    assert tree.leaf_count() == g.n

    def walk(node):
        spans = [c.span for c in node.children]
        if node.kind != "leaf":
            assert frozenset().union(*spans) == node.span
            parent = g.induced_subgraph(node.span)
            for span in spans:
                assert is_module(parent, span)
            if node.kind == "prime":
                # children form the maximal modular partition: the quotient is prime
                reps = [min(s) for s in spans]
                quotient = Graph(reps, [(a, b) for i, a in enumerate(reps)
                                        for j, b in enumerate(reps) if i < j
                                        and parent.has_edge(next(iter(spans[i])), b)])
                for state in range(1, 1 << len(reps)):
                    sub = {reps[i] for i in range(len(reps)) if state >> i & 1}
                    if 1 < len(sub) < len(reps):
                        assert not is_module(quotient, sub)
        for c in node.children:
            walk(c)

    walk(tree)


@st.composite
def root_or_view(draw):
    """A graph on at most 8 vertices, or a view of one a delete_vertices deep,
    with the view's edges taken from the root."""
    g = draw(graphs(min_n=1, max_n=8))
    h = g
    if draw(st.booleans()):
        h = g.delete_vertices(draw(st.sets(st.sampled_from(g.ids), max_size=g.n - 1)))
    return h, [(u, v) for u, v in g.edges() if h.has_vertex(u) and h.has_vertex(v)]


@settings(max_examples=150, deadline=None)
@given(root_or_view())
def test_module_kernel_matches_definitions(case):
    # is_module, md_tree and the prime split all rest on _min_module; this
    # checks it, and the co-components, against definitions by brute force
    h, edges = case
    vs = h.ids
    nbrs = {v: set() for v in vs}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    subsets = [frozenset(v for i, v in enumerate(vs) if state >> i & 1)
               for state in range(1, 1 << len(vs))]
    modules = [s for s in subsets if len({frozenset(nbrs[v] - s) for v in s}) == 1]
    modules.sort(key=len)
    module_set = set(modules)
    for s in subsets:
        assert is_module(h, s) == (s in module_set)
        smallest = next(m for m in modules if s <= m)
        assert h._idset(_min_module(h._adj, h._vmask, h._mask(s))) == smallest
    complement = Graph(vs, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                            if v not in nbrs[u]])
    assert [h._idset(m) for m in _flood(h._adj, h._vmask, co=True)] == complement.components()


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=1, max_n=9))
def test_nd_classes_are_homogeneous_modules(g):
    classes = nd_partition(g)
    seen = set()
    for cl in classes:
        assert is_module(g, cl.members)
        assert not seen & cl.members
        seen |= cl.members
        sub = g.induced_subgraph(cl.members)
        size = len(cl.members)
        assert sub.m == (size * (size - 1) // 2 if cl.kind == "clique" else 0)
    assert seen == g.vertices


@st.composite
def blown_up_view(draw):
    """A view of a larger root: a random base graph with each vertex blown up
    into an edgeless or a clique set, so that twin classes are large, plus
    ghost vertices the view leaves out, joined to everything at random."""
    base = draw(graphs(min_n=1, max_n=6))
    sizes = [draw(st.integers(1, 3)) for _ in base.ids]
    cliques = [draw(st.booleans()) for _ in base.ids]
    ghosts = draw(st.integers(0, 2))
    groups, start = [], 0
    for size in sizes:
        groups.append(range(start, start + size))
        start += size
    n = start + ghosts
    edges = [(u, v) for (a, b) in base.edges()
             for u in groups[a - 1] for v in groups[b - 1]]
    edges += [(u, v) for grp, clique in zip(groups, cliques) if clique
              for u in grp for v in grp if u < v]
    edges += [(u, v) for v in range(start, n) for u in range(v) if draw(st.booleans())]
    return Graph(range(n), edges)._derive((1 << start) - 1)


def _bare(g):
    """A view of g's vertex set whose memo no earlier call has filled."""
    return Graph._from_adj(list(g._uid), g._adj)._derive(g._vmask)


@settings(max_examples=150, deadline=None)
@given(blown_up_view(), st.randoms(use_true_random=False))
def test_twin_masks_from_any_split_into_edgeless_blocks(g, rng):
    classes = _twin_masks(_bare(g))
    blocks = []
    for c in classes:
        members = list(bits(c))
        if _clique_class(g, c):
            blocks += [1 << p for p in members]
            continue
        rng.shuffle(members)
        while members:
            cut = rng.randint(1, len(members))
            blocks.append(sum(1 << p for p in members[:cut]))
            members = members[cut:]
    rng.shuffle(blocks)
    assert _twin_masks(_bare(g), blocks) == classes


def test_nd_at_least_mw_on_random_graphs():
    rng = random.Random(4242)
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 12), 0.5)
        classes = nd_partition(g)
        if len(classes) >= 2:
            assert len(classes) >= modular_width(g)


def test_quotient_edge_semantics_in_prime_tree():
    # two modules substituted into an edge of P4 keep the tree prime at the top
    g = Graph([1, 2, 3, 4, 5],
              [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (2, 3)])
    # vertices 2,3 are true twins inside a P4-shaped quotient 1-(23)-4-5
    parts = top_partition(g)
    assert frozenset({2, 3}) in parts
    assert modular_width(g) == 4


PRIME_QUOTIENTS = {
    "p4": (4, [(0, 1), (1, 2), (2, 3)]),
    "bull": (5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)]),
    "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
}
# small module graphs as (order, edges); vertex 1 may sit at any position of
# the home module, so the refinement leaves the home in one to three fragments.
# In the last, positions 0 and 1 are false twins under 2 and 3 sees none of
# them: from 0 or 1, the three fragments lie on three levels of the chain of
# modules through vertex 1
HOME_MODULES = [
    (2, []), (2, [(0, 1)]), (3, []), (3, [(0, 1)]), (3, [(0, 1), (1, 2)]),
    (4, [(0, 1), (1, 2), (2, 3)]), (4, [(0, 2), (1, 2)]),
]
OTHER_MODULES = [(1, []), (2, []), (2, [(0, 1)])]


@st.composite
def substituted_prime(draw):
    """A prime quotient with small modules substituted for its vertices, at
    most 12 vertices in all, and vertex 1 inside a module of 2+ vertices.
    Returns the graph and its substituted modules."""
    order, qedges = PRIME_QUOTIENTS[draw(st.sampled_from(sorted(PRIME_QUOTIENTS)))]
    home = draw(st.integers(0, order - 1))
    shapes = [draw(st.sampled_from(HOME_MODULES if i == home else OTHER_MODULES))
              for i in range(order)]
    ids = draw(st.permutations(range(2, sum(size for size, _ in shapes) + 1)))
    first = sum(size for size, _ in shapes[:home]) + draw(st.integers(0, shapes[home][0] - 1))
    ids = [*ids[:first], 1, *ids[first:]]
    modules, edges, at = [], [], 0
    for size, inner in shapes:
        members = ids[at:at + size]
        at += size
        edges += [(members[a], members[b]) for a, b in inner]
        modules.append(members)
    edges += [(u, v) for a, b in qedges for u in modules[a] for v in modules[b]]
    return Graph(ids, edges), {frozenset(m) for m in modules}


def maximal_modules(g):
    """Brute force: the maximal proper modules of g."""
    vs = g.ids
    proper = [s for state in range(1, (1 << len(vs)) - 1)
              if is_module(g, s := frozenset(v for i, v in enumerate(vs) if state >> i & 1))]
    return {s for s in proper if not any(s < t for t in proper)}


@settings(max_examples=80, deadline=None)
@given(substituted_prime())
def test_top_partition_finds_substituted_modules(case):
    # the home module of vertex 1 is found on the refinement's quotient;
    # these random graphs seldom give it three fragments, the next test does
    g, modules = case
    assert set(top_partition(g)) == maximal_modules(g) == modules


def test_top_partition_closes_a_home_of_three_fragments():
    # the P4 1-2-3-4 substituted for the second vertex of the P4 5-x-6-7:
    # the maximal modules avoiding vertex 1 are single vertices, and its
    # home {1, 2, 3, 4} is closed from the fragments {2}, {3} and {4}
    g = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (6, 7)]
              + [(u, v) for v in range(1, 5) for u in (5, 6)])
    want = [frozenset({1, 2, 3, 4}), frozenset({5}), frozenset({6}), frozenset({7})]
    assert top_partition(g) == want and set(want) == maximal_modules(g)
    assert modular_width(g) == 4


def closures_taken(monkeypatch):
    """A list that gets the rows of each closure taken from now on."""
    rows = []
    monkeypatch.setattr(decomposition, "_min_module",
                        lambda adj, live, seed: rows.append(adj) or _min_module(adj, live, seed))
    return rows


def test_top_partition_of_a_home_on_three_chain_levels(monkeypatch):
    # 1 and 2 are false twins under 3, and 4 sees none of them, so the closures
    # of 1 with 2, 3 and 4 grow in two proper steps to the home {1, 2, 3, 4},
    # which sits second on the P4 5-x-6-7; the split takes one closure on its
    # quotient, as the first part the refinement finishes, {7}, avoids the home
    g = Graph(range(1, 8), [(1, 3), (2, 3), (6, 7)]
              + [(u, v) for v in range(1, 5) for u in (5, 6)])
    assert [g._idset(_min_module(g._adj, g._vmask, g._mask({1, u}))) for u in (2, 3, 4)] == [
        {1, 2}, {1, 2, 3}, {1, 2, 3, 4}]
    closures = closures_taken(monkeypatch)
    want = [frozenset({1, 2, 3, 4}), frozenset({5}), frozenset({6}), frozenset({7})]
    assert top_partition(g) == want and set(want) == maximal_modules(g)
    assert sum(rows is not g._adj for rows in closures) == 1


@pytest.mark.parametrize("n", [50, 200])
def test_prime_split_of_paths_and_cycles_takes_one_quotient_closure(monkeypatch, n):
    # a closure of v with each part would be n - 1 closures on the quotient,
    # each growing to the whole of it
    closures = closures_taken(monkeypatch)
    for g in (path_graph(range(1, n + 1)), cycle_graph(range(1, n + 1))):
        closures.clear()
        assert _prime_child_masks(g) == [1 << p for p in range(n)]
        assert sum(rows is not g._adj for rows in closures) == 1


def member_quotient(g, masks):
    """Quotient rows by definition: module i sees module j iff a member of i sees one of j."""
    return [sum(1 << j for j, mj in enumerate(masks)
                if i != j and any(g._adj[p] & mj for p in bits(mi)))
            for i, mi in enumerate(masks)]


@settings(max_examples=80, deadline=None)
@given(substituted_prime())
def test_prime_split_leaves_the_quotient_of_its_children(case):
    # the children's quotient is derived from the parts', the home's parts
    # merged into one vertex, and no closure runs on the graph's rows
    g, modules = case
    with pytest.MonkeyPatch.context() as mp:
        closures = closures_taken(mp)
        children = _prime_child_masks(g)
    assert set(map(g._idset, children)) == modules
    assert not any(rows is g._adj for rows in closures)
    assert g._memo["quotient"] == member_quotient(g, children) == quotient_adjacency(g, children)


def test_prime_split_checks_its_home_on_the_quotient(monkeypatch):
    # the three-fragment home {1, 2, 3, 4} above: if the quotient row of its
    # fragment {4} also saw {7}, the home would be no module
    g = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (6, 7)]
              + [(u, v) for v in range(1, 5) for u in (5, 6)])
    real = decomposition.quotient_adjacency

    def one_wrong_bit(h, parts):
        rows = real(h, parts)
        rows[parts.index(h._mask({4}))] ^= 1 << parts.index(h._mask({7}))
        return rows

    monkeypatch.setattr(decomposition, "quotient_adjacency", one_wrong_bit)
    with pytest.raises(InternalError, match="home is not a module"):
        _prime_child_masks(g)


def test_prime_splits_of_random_graphs_leave_their_quotients():
    rng = random.Random(5)
    todo = [random_graph(rng, rng.randint(4, 14), rng.choice([0.3, 0.5, 0.7])) for _ in range(150)]
    todo += [gen_instance(seed, GenProfile(n=80, width=6, rule="tar"))[0] for seed in range(4)]
    primes = 0
    while todo:
        h = todo.pop()
        kind, masks = _root_child_masks(h)
        if kind == "prime":
            assert h._memo["quotient"] == member_quotient(h, masks) == quotient_adjacency(h, masks)
            primes += 1
        todo += [h._derive(c) for c in masks if c & (c - 1)]
    assert primes >= 100


@pytest.mark.parametrize("n", range(4, 11))
def test_top_partition_of_paths_and_cycles(n):
    # both are prime (C_n from n = 5), so the maximal modules are the vertices
    for g in [path_graph(range(1, n + 1))] + [cycle_graph(range(1, n + 1))] * (n >= 5):
        assert top_partition(g) == [frozenset({v}) for v in range(1, n + 1)]
        assert set(top_partition(g)) == maximal_modules(g)


def plain_split(h):
    """The root split by flood, then co-flood, then the prime split."""
    for kind, co in (("parallel", False), ("series", True)):
        parts = _flood(h._adj, h._vmask, co)
        if len(parts) > 1:
            return kind, parts
    return "prime", _prime_child_masks(h)


def check_peeled_splits(g, calls=()):
    """Every module subgraph of g splits as ``plain_split`` does, and every
    degree key it holds, from scratch or inherited, is its degree plus the offset.

    ``calls`` is a list that records ``(co, todo)`` per flood; returns
    ``(co, whole module?)`` of the floods the splits ran.
    """
    floods = set()
    todo = [(g, _degree_buckets(g))] if g.n > 1 else []
    while todo:
        h, (buckets, off) = todo.pop()
        live = h._vmask
        for p in bits(live):
            keys = [k for k, m in buckets.items() if m >> p & 1]
            assert len(keys) == 1 and (h._adj[p] & live).bit_count() == keys[0] - off
        before = len(calls)
        assert _root_child_masks(h) == plain_split(h)
        floods.update((co, mask == live) for co, mask in calls[before:])
        kids = [h._derive(c) for c in _root_child_masks(h)[1] if c & (c - 1)]
        todo += [(c, c._memo["deg"]) for c in kids]
    return floods


@settings(max_examples=150, deadline=None)
@given(root_or_view())
def test_peeled_split_matches_the_plain_split(case):
    check_peeled_splits(case[0])


def random_cograph(rng, ids, parallel=True):
    """Edges of a cograph on ``ids`` whose levels alternate parallel and series.

    A level's children are runs of the shuffled IDs.  About a third of the
    levels on four or more IDs have two children of two or more vertices,
    so no isolated or universal vertex.
    """
    if len(ids) < 2:
        return []
    ids = rng.sample(ids, len(ids))
    if len(ids) >= 4 and rng.random() < 0.33:
        cuts = [rng.randint(2, len(ids) - 2)]
    else:
        cuts = sorted(rng.sample(range(1, len(ids)), rng.randint(1, min(3, len(ids) - 1))))
    groups = [ids[a:b] for a, b in zip([0] + cuts, cuts + [len(ids)])]
    edges = [e for grp in groups for e in random_cograph(rng, grp, not parallel)]
    if not parallel:
        edges += [(u, v) for i, a in enumerate(groups) for b in groups[i + 1:]
                  for u in a for v in b]
    return edges


def test_peeled_split_on_cographs_and_threshold_graphs(monkeypatch):
    calls = []
    monkeypatch.setattr(decomposition, "_flood", lambda adj, todo, co=False:
                        calls.append((co, todo)) or _flood(adj, todo, co))
    graphs = [threshold_graph(seed, n) for seed in range(20) for n in (2, 7, 40)]
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        graphs.append(Graph(range(n), random_cograph(rng, list(range(n)), rng.random() < 0.5)))
    floods = set()
    for g in graphs:
        floods |= check_peeled_splits(g, calls)
        assert modular_width(g) == 2
    # both rests were flooded, and so were whole levels with no isolated or
    # universal vertex (where a connected one is co-flooded too)
    assert floods == {(False, False), (True, False), (False, True), (True, True)}


def test_threshold_graphs_split_without_a_flood(monkeypatch):
    # each level of a threshold graph peels its isolated or universal
    # vertices, and the rest has a member that sees all or none of it
    calls = []
    monkeypatch.setattr(decomposition, "_flood",
                        lambda adj, todo, co=False: calls.append(co) or _flood(adj, todo, co))
    assert md_tree(threshold_graph(0, 600)).leaf_count() == 600
    assert alpha(threshold_graph(0, 600)).size > 0
    g, s, t = threshold_sides(0, 600)
    assert reach_tar(g, len(s) // 2, s, t).reachable
    assert calls == []
