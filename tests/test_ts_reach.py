import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isreconf import (Graph, InputError, Rule, TsReduction, oracle_reach,
                      reach_ts, ts_aux_decide, ts_big_module, ts_shrink)

from helpers import (complete_graph, cycle_graph, graphs, join_all, path_graph,
                     random_graph, random_independent_set)


def c4():
    return cycle_graph([1, 2, 3, 4])


def test_reach_ts_identity_and_sizes():
    g = path_graph([1, 2, 3])
    assert reach_ts(g, {1}, {1})
    assert not reach_ts(g, {1}, {1, 3})
    assert reach_ts(g, set(), set())


def test_reach_ts_p3_slide():
    assert reach_ts(path_graph([1, 2, 3]), {1}, {3})


def test_reach_ts_c4_frozen():
    assert not reach_ts(c4(), {1, 3}, {2, 4})


def test_big_module_recursion_cases():
    step = ts_big_module(c4(), {1, 3}, {1, 3}, {1, 3})
    assert step is not None
    g2, s2, t2 = step
    assert g2.vertices == {1, 3} and g2.m == 0
    assert reach_ts(g2, s2, t2)
    assert ts_big_module(c4(), {1, 3}, {2, 4}, {1, 3}) is None
    with pytest.raises(InputError):
        ts_big_module(c4(), {1}, {2, 4}, {1, 3})


def test_ts_crowding_a_module_is_refused():
    # source spreads one token per module, target puts two into {2,5}
    g = Graph([1, 2, 3, 4, 5], [(1, 2), (1, 5), (2, 3), (5, 3), (3, 4)])
    assert not reach_ts(g, {1, 3}, {2, 5})
    assert not oracle_reach(Rule.ts(), g, {1, 3}, {2, 5})
    # single tokens on the same quotient still move freely
    assert reach_ts(g, {1}, {4}) == oracle_reach(Rule.ts(), g, {1}, {4})


def test_ts_shrink_same_component_reroute():
    g = join_all(path_graph([1, 2, 3]), 4)
    g2, s2, t2, used_vacancy = ts_shrink(g, {1}, {3}, {1, 2, 3})
    assert not used_vacancy
    assert t2 == {1} and s2 == {1}
    assert g2.vertices == {1, 4}
    assert reach_ts(g2, s2, t2)
    assert oracle_reach(Rule.ts(), g, {1}, {3})


def test_ts_shrink_cross_component_needs_vacancy():
    # complete bipartite sides {1,3} and {2,4}; the module {1,3} is edgeless
    g = Graph([1, 2, 3, 4], [(1, 2), (1, 4), (3, 2), (3, 4)])
    g2, s2, t2, used_vacancy = ts_shrink(g, {1}, {3}, {1, 3})
    assert used_vacancy
    assert t2 == {1}
    assert oracle_reach(Rule.ts(), g, {1}, {3})
    assert reach_ts(g, {1}, {3})


def test_ts_shrink_untouched_module_keeps_lowest_id():
    g = Graph([1, 2, 3, 4], [(1, 2), (1, 4), (3, 2), (3, 4)])
    g2, s2, t2, used_vacancy = ts_shrink(g, set(), set(), {2, 4})
    assert not used_vacancy
    assert g2.vertices == {1, 2, 3}


def test_ts_shrink_validates():
    g = c4()
    with pytest.raises(InputError):
        ts_shrink(g, {1, 3}, {1, 3}, {1, 3})


def test_ts_lemmas_refuse_sides_of_different_sizes():
    g = path_graph([1, 2, 3])
    with pytest.raises(InputError, match="same number of tokens"):
        ts_shrink(g, {1}, {1, 3}, {2})
    with pytest.raises(InputError, match="equal size"):
        ts_aux_decide(TsReduction(g, frozenset({1}), frozenset({1, 3}), ()))


def test_ts_lemmas_refuse_dependent_token_sets():
    # both sides are edges of g; {1, 2} is a module (each sees only 3 outside)
    g = Graph([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
    with pytest.raises(InputError, match="independent"):
        reach_ts(g, {1, 2}, {4, 5})
    with pytest.raises(InputError, match="independent"):
        ts_big_module(g, {1, 2}, {4, 5}, {1, 2})
    with pytest.raises(InputError, match="independent"):
        ts_shrink(g, {1, 2}, {4, 5}, {1})
    p3 = path_graph([1, 2, 3])
    with pytest.raises(InputError, match="independent"):
        ts_aux_decide(TsReduction(p3, frozenset({1, 2}), frozenset({1, 2}), ()))


def test_aux_decide_examples():
    p3 = path_graph([1, 2, 3])
    assert ts_aux_decide(TsReduction(p3, frozenset({1}), frozenset({1}), ()))
    assert ts_aux_decide(TsReduction(p3, frozenset({1}), frozenset({3}), ()))
    frozen = TsReduction(c4(), frozenset({1, 3}), frozenset({1, 3}), (1,))
    assert not ts_aux_decide(frozen)


def test_aux_decide_vacancy_must_be_witnessed():
    k2 = complete_graph(2)
    assert ts_aux_decide(TsReduction(k2, frozenset({1}), frozenset({1}), (1,)))
    lonely = Graph([1])
    assert not ts_aux_decide(TsReduction(lonely, frozenset({1}), frozenset({1}), (1,)))


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=7), st.integers(0, 2 ** 30), st.integers(0, 2 ** 7 - 1))
def test_aux_decide_matches_brute_force_with_vacancies(g, seed, vacancy_bits):
    from isreconf.oracle import _successors
    rng = random.Random(seed)
    s, t = (sorted(random_independent_set(rng, g)) for _ in range(2))
    size = min(len(s), len(t))
    s, t = frozenset(s[:size]), frozenset(t[:size])
    vacancies = tuple(v for v in g.ids if vacancy_bits >> (v - 1) & 1)
    seen = {g._mask(s)}
    queue = [g._mask(s)]
    for state in queue:
        for nxt in _successors(Rule.ts(), g, state):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    expect = g._mask(t) in seen and all(any(not state & g._mask({v}) for state in seen)
                                        for v in vacancies)
    assert ts_aux_decide(TsReduction(g, s, t, vacancies)) == expect


def test_reach_ts_matches_oracle_randomized():
    rng = random.Random(88)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.2, 0.4, 0.6]))
        s = random_independent_set(rng, g)
        t = random_independent_set(rng, g)
        if len(s) != len(t):
            assert not reach_ts(g, s, t)
            continue
        assert reach_ts(g, s, t) == oracle_reach(Rule.ts(), g, s, t)


def test_reach_ts_bipartite_vacancy_stress():
    # near-bipartite graphs produce edgeless modules whose tokens must cross
    # between module components, exercising the vacancy side-conditions
    rng = random.Random(557)
    checked = 0
    while checked < 60:
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        left = list(range(1, a + 1))
        right = list(range(a + 1, a + b + 1))
        edges = [(u, v) for u in left for v in right if rng.random() < 0.7]
        edges += [(u, v) for i, u in enumerate(left) for v in left[i + 1:]
                  if rng.random() < 0.15]
        g = Graph(left + right, edges)
        s = random_independent_set(rng, g)
        t = random_independent_set(rng, g)
        if len(s) != len(t):
            continue
        assert reach_ts(g, s, t) == oracle_reach(Rule.ts(), g, s, t)
        checked += 1


def test_reach_ts_component_law():
    rng = random.Random(89)
    for _ in range(40):
        blocks = [random_graph(rng, rng.randint(2, 5), 0.5, first=1),
                  random_graph(rng, rng.randint(2, 5), 0.5, first=10)]
        g = Graph([v for b in blocks for v in b.ids],
                  [e for b in blocks for e in b.edges()])
        s = random_independent_set(rng, g)
        t = random_independent_set(rng, g)
        if len(s) != len(t):
            continue
        whole = reach_ts(g, s, t)
        per_comp = all(reach_ts(g.induced_subgraph(c), s & c, t & c)
                       for c in g.components())
        assert whole == per_comp


def test_sparse_module_never_gets_crowded():
    # from a set meeting every module at most once, slides never put two
    # tokens into one module
    from collections import deque

    from isreconf import top_partition
    from isreconf.oracle import _successors

    rng = random.Random(90)
    checked = 0
    while checked < 20:
        g = random_graph(rng, rng.randint(4, 9), 0.4)
        if g.n < 2:
            continue
        parts = top_partition(g)
        s = random_independent_set(rng, g)
        if any(len(s & p) >= 2 for p in parts):
            continue
        masks = [g._mask(p) for p in parts]
        start = g._mask(s)
        seen = {start}
        queue = deque((start,))
        while queue:
            state = queue.popleft()
            for m in masks:
                assert (state & m).bit_count() <= 1
            for nxt in _successors(Rule.ts(), g, state):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        checked += 1
