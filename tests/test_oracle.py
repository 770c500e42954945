import random

import pytest

from isreconf import (GenProfile, Graph, InputError, OracleCapError, Rule, alpha, brute_alpha,
                      brute_modular_width, gen_instance, modular_width,
                      oracle_lambda, oracle_reach)

from helpers import cycle_graph, edgeless_graph, path_graph, random_graph, \
    random_independent_set, star_graph


def c4():
    return cycle_graph([1, 2, 3, 4])


def test_reach_reflexive():
    assert oracle_reach(Rule.tar(1), c4(), {1, 3}, {1, 3})


def test_c4_frozen_under_tar1():
    # C4 has 8 independent sets; at floor 1 the two diagonals are isolated
    assert not oracle_reach(Rule.tar(1), c4(), {1, 3}, {2, 4})
    assert oracle_reach(Rule.tar(0), c4(), {1, 3}, {2, 4})


def test_ts_p3_by_hand():
    assert oracle_reach(Rule.ts(), path_graph([1, 2, 3]), {1}, {3})


def test_lambda_zero_floor_is_alpha():
    g = star_graph(1, [2, 3, 4])
    assert oracle_lambda(g, {1}, 0) == 3


def test_lambda_star_center_frozen():
    assert oracle_lambda(star_graph(1, [2, 3, 4]), {1}, 1) == 1


def test_lambda_edgeless():
    assert oracle_lambda(edgeless_graph(3), {1}, 1) == 3


def test_cap_refusal(monkeypatch):
    big = edgeless_graph(25)
    with pytest.raises(OracleCapError):
        oracle_reach(Rule.tar(0), big, {1}, {2})
    monkeypatch.setenv("RECONF_ORACLE_CAP", "30")
    assert oracle_reach(Rule.tar(0), big, {1}, {2})
    assert oracle_reach(Rule.tar(0), big, {1}, {2}, cap=26)
    with pytest.raises(OracleCapError):
        oracle_lambda(big, {1}, 0, cap=10)


def test_non_independent_inputs_rejected():
    with pytest.raises(InputError):
        oracle_reach(Rule.tar(0), c4(), {1, 2}, {3})


def test_reach_symmetry_and_monotonicity():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9), 0.4)
        s = random_independent_set(rng, g)
        t = random_independent_set(rng, g)
        k = rng.randint(0, min(len(s), len(t)))
        fwd = oracle_reach(Rule.tar(k), g, s, t)
        assert fwd == oracle_reach(Rule.tar(k), g, t, s)
        if fwd and k >= 1:
            assert oracle_reach(Rule.tar(k - 1), g, s, t)


def test_tj_equals_tar_at_size_minus_one():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), 0.4)
        s = random_independent_set(rng, g)
        t = random_independent_set(rng, g)
        if len(s) != len(t) or not s:
            continue
        assert oracle_reach(Rule.tj(), g, s, t) == \
            oracle_reach(Rule.tar(len(s) - 1), g, s, t)


def test_gen_is_deterministic():
    prof = GenProfile(n=12, width=4, rule="tar")
    a = gen_instance(3, prof)
    b = gen_instance(3, prof)
    assert a[0] == b[0] and a[1:] == b[1:]
    c = gen_instance(4, prof)
    assert (a[0], a[1], a[2]) != (c[0], c[1], c[2])


def test_gen_respects_width_bound():
    for seed in range(25):
        g, s, t, k = gen_instance(seed, GenProfile(n=14, width=3, rule="tar"))
        assert modular_width(g) <= max(2, 3)
        assert g.is_independent(s) and g.is_independent(t)
        assert 0 <= k <= min(len(s), len(t))


def test_gen_equal_sizes_for_swap_rules():
    for seed in range(10):
        g, s, t, k = gen_instance(seed, GenProfile(n=10, width=4, rule="ts"))
        assert len(s) == len(t)
        assert k is None


def test_substitution_width_examples():
    # singletons into a P4 quotient give back P4
    p4 = path_graph([1, 2, 3, 4])
    assert modular_width(p4) == 4 == brute_modular_width(p4)
    # edgeless sides joined completely form K_{3,3}, width 2
    k33 = Graph(range(1, 7), [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    assert modular_width(k33) == 2 == brute_modular_width(k33)


def test_brute_alpha_enumerates_live_positions_of_a_derived_graph():
    g = Graph(range(1, 6), [(4, 5)])
    sub = g.induced_subgraph({4, 5})
    assert brute_alpha(sub) == alpha(sub).size == 1
    assert brute_alpha(g.delete_vertices({1, 2})) == 2


def test_ts_oracle_slides_only_to_live_vertices_of_a_derived_graph():
    # in the path 1-2-3-4 without 2, vertex 1 is isolated and its token stuck
    h = path_graph([1, 2, 3, 4]).delete_vertices({2})
    assert not oracle_reach(Rule.ts(), h, {1}, {3})
    assert oracle_reach(Rule.ts(), h, {3}, {4})
