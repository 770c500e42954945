import random

import pytest

from isreconf import (InputError, alpha, lambda_all, lambda_nd,
                      lambda_single, lambda_step, oracle_lambda,
                      shrink_module, verify_sequence)

from helpers import (cycle_graph, edgeless_graph, join_all, path_graph,
                     random_graph, random_independent_set, star_graph)


def check_result(g, res, expect_size=None):
    if expect_size is not None:
        assert res.size == expect_size
    final = verify_sequence(g, res.sequence)
    assert final == res.reached
    assert len(final) == res.size


def test_lambda_nd_already_maximum():
    g = edgeless_graph(4)
    res = lambda_nd(g, g.vertices, 2)
    assert res.size == 4 and res.sequence.moves == ()


def test_lambda_nd_star_frozen_center():
    res = lambda_nd(star_graph(1, [2, 3]), {1}, 1)
    check_result(star_graph(1, [2, 3]), res, expect_size=1)
    assert res.reached == {1}


def test_lambda_nd_star_zero_floor():
    g = star_graph(1, [2, 3])
    res = lambda_nd(g, {1}, 0)
    check_result(g, res, expect_size=2)
    assert res.reached == {2, 3}


def test_lambda_nd_floor_above_seed_errors():
    with pytest.raises(InputError):
        lambda_nd(star_graph(1, [2, 3]), {1}, 2)


def test_shrink_keeps_graph_when_witness_covers_module():
    c4 = cycle_graph([1, 2, 3, 4])
    assert shrink_module(c4, frozenset(), {2, 4}, {2, 4}) == c4


def test_shrink_p3_joined_to_apex():
    g = join_all(path_graph([1, 2, 3]), 4)
    shrunk = shrink_module(g, {1}, {1, 2, 3}, {1, 3})
    assert shrunk.vertices == {1, 3, 4}
    for k in (0, 1):
        assert oracle_lambda(g, {1}, k) == oracle_lambda(shrunk, {1}, k)


def test_shrink_validates_preconditions():
    g = join_all(path_graph([1, 2, 3]), 4)
    with pytest.raises(InputError):
        shrink_module(g, {2}, {1, 2, 3}, {1, 3})   # seed token outside witness
    with pytest.raises(InputError):
        shrink_module(g, {1}, {1, 2, 3}, {1})      # witness not maximum
    with pytest.raises(InputError):
        shrink_module(g, {1}, {1, 2}, {1})         # not a module


def tables_for(g, parts, seed):
    return [lambda_all(g.induced_subgraph(p), frozenset(seed) & p) for p in parts]


def test_lambda_step_singleton_parts_match_lambda_nd():
    g = path_graph([1, 2, 3, 4])
    parts = [frozenset({v}) for v in g.ids]
    res = lambda_step(g, 1, {1}, parts, tables_for(g, parts, {1}), check=True)
    assert res.size == lambda_nd(g, {1}, 1).size == 2
    check_result(g, res)


def test_lambda_step_c4_frozen_diagonal():
    g = cycle_graph([1, 2, 3, 4])
    parts = [frozenset({1, 3}), frozenset({2, 4})]
    res = lambda_step(g, 1, {1, 3}, parts, tables_for(g, parts, {1, 3}), check=True)
    assert res.size == 2 and res.reached == {1, 3}
    check_result(g, res)


def test_lambda_step_star_with_module_parts():
    g = star_graph(1, [2, 3, 4])
    parts = [frozenset({1}), frozenset({2, 3, 4})]
    res = lambda_step(g, 0, {1}, parts, tables_for(g, parts, {1}), check=True)
    assert res.size == 3
    check_result(g, res)


def test_lambda_step_rejects_bad_input():
    g = cycle_graph([1, 2, 3, 4])
    parts = [frozenset({1, 3}), frozenset({2, 4})]
    tables = tables_for(g, parts, {1, 3})
    with pytest.raises(InputError):
        lambda_step(g, 3, {1, 3}, parts, tables)
    with pytest.raises(InputError):
        lambda_step(g, 1, {1, 3}, parts[:1], tables[:1])
    with pytest.raises(InputError):
        lambda_step(g, 1, {1, 3}, [frozenset({1, 2}), frozenset({3, 4})], tables)
    with pytest.raises(InputError):
        lambda_step(g, 1, {1, 3}, parts, [dict(), dict()])


def test_lambda_all_star():
    g = star_graph(1, [2, 3, 4])
    table = lambda_all(g, {1}, check=True)
    assert set(table) == {1}
    assert table[1].size == 1
    assert lambda_single(g, {1}, 0).size == alpha(g).size == 3


def test_lambda_all_edgeless():
    g = edgeless_graph(4)
    table = lambda_all(g, {1, 2})
    assert {j: r.size for j, r in table.items()} == {1: 4, 2: 4}
    for r in table.values():
        check_result(g, r)


def test_lambda_all_c4():
    g = cycle_graph([1, 2, 3, 4])
    table = lambda_all(g, {1, 3}, check=True)
    assert {j: r.size for j, r in table.items()} == {1: 2, 2: 2}


def test_lambda_single_validates():
    g = path_graph([1, 2, 3])
    with pytest.raises(InputError):
        lambda_single(g, {1, 2}, 0)
    with pytest.raises(InputError):
        lambda_single(g, {1}, 2)
    with pytest.raises(InputError):
        lambda_single(g, {1}, -1)


def test_lambda_matches_oracle_on_random_graphs():
    rng = random.Random(2024)
    for trial in range(60):
        g = random_graph(rng, rng.randint(2, 11), rng.choice([0.2, 0.4, 0.6]))
        s = random_independent_set(rng, g)
        table = lambda_all(g, s, check=(trial % 5 == 0))
        for j, res in table.items():
            assert res.size == oracle_lambda(g, s, j)
            check_result(g, res)
        assert lambda_single(g, s, 0).size == oracle_lambda(g, s, 0)


def test_lambda_monotone_in_floor():
    rng = random.Random(77)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 10), 0.4)
        s = random_independent_set(rng, g)
        sizes = [lambda_single(g, s, j).size for j in range(0, len(s) + 1)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == alpha(g).size


def test_lambda_step_rejects_a_missing_table_for_a_seeded_part():
    g = cycle_graph([1, 2, 3, 4])
    parts = [frozenset({1, 3}), frozenset({2, 4})]
    for tables in ([None, None], [[], None]):
        with pytest.raises(InputError, match="part 0 lack threshold 2"):
            lambda_step(g, 1, {1, 3}, parts, tables)
    table = tables_for(g, parts, {1, 3})[0]
    assert lambda_step(g, 1, {1, 3}, parts, [table, None]).size == 2
