import random
import sys

import pytest

from isreconf import (GenProfile, Graph, InputError, LambdaResult, alpha, decomposition,
                      gen_instance, lambda_all, lambda_nd, lambda_single, lambda_step,
                      oracle_lambda, reach_tar, shrink_module, tar_engine, verify_sequence)
from isreconf.moveseq import MoveRope
from isreconf.rules import Move

from helpers import (cycle_graph, edgeless_graph, join_all, path_graph, random_graph,
                     random_independent_set, star_graph, threshold_graph, threshold_sides)


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


def test_lambda_nd_negative_floor_errors():
    # rejected like lambda_single's, not clamped to floor 0
    with pytest.raises(InputError, match=r"floor -1 outside \[0, 1\]"):
        lambda_nd(star_graph(1, [2, 3]), {1}, -1)


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
    with pytest.raises(InputError, match="independent subset"):
        shrink_module(g, {1}, {1, 2, 3}, {1, 2})   # witness not independent


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


def test_lambda_step_reads_floor_zero_past_the_callers_tables():
    # P3 with its middle token and an isolated token {4}, floor 1: the
    # caller's tables stop at threshold 1; Rule 1 freezes {4}, which leaves
    # the P3 part a slack floor of 0, and its alpha witness {1, 3} comes from
    # the rule loop's own store
    g = Graph([1, 2, 3, 4], [(1, 2), (2, 3)])
    parts = [frozenset({1, 2, 3}), frozenset({4})]
    tables = tables_for(g, parts, {2, 4})
    assert [sorted(t) for t in tables] == [[1], [1]]
    res = lambda_step(g, 1, {2, 4}, parts, tables, check=True)
    assert res.size == oracle_lambda(g, {2, 4}, 1) == 3
    assert res.reached == {1, 3, 4}
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
    with pytest.raises(InputError, match="one table per part"):
        lambda_step(g, 1, {1, 3}, parts, tables[:1])
    with pytest.raises(InputError, match="disjoint"):
        lambda_step(g, 1, {1, 3}, [frozenset({1, 3}), frozenset({2, 3, 4})], tables)
    with pytest.raises(InputError, match="cover"):
        lambda_step(g, 1, {1, 3}, [frozenset({1, 3}), frozenset({2})], tables)
    with pytest.raises(InputError, match="malformed table entry for part 0, threshold 2"):
        lambda_step(g, 1, {1, 3}, parts, [{**tables[0], 2: "not a result"}, tables[1]])
    outside = LambdaResult(1, frozenset({2}), frozenset({1, 3}), 1, MoveRope.leaf([]))
    with pytest.raises(InputError, match="table entry for part 0 leaves the part"):
        lambda_step(g, 1, {1, 3}, parts, [{**tables[0], 2: outside}, tables[1]])


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


def test_lambda_step_requires_every_threshold_up_to_the_seed_slice():
    # the seed slice {1, 3} is part 0's maximum independent set, so the rule
    # loop freezes the part at once and never reads threshold 1; the table
    # still has to answer it
    g = cycle_graph([1, 2, 3, 4])
    parts = [frozenset({1, 3}), frozenset({2, 4})]
    tables = tables_for(g, parts, {1, 3})
    del tables[0][1]
    with pytest.raises(InputError, match="tables for part 0 lack threshold 1"):
        lambda_step(g, 1, {1, 3}, parts, tables)


def test_block_built_twin_partitions_match_vertex_built_ones(monkeypatch):
    """Rule 2a groups the pool by its slices and the class search regroups
    its classes after the clique drop; each such partition must equal one
    built vertex by vertex on a view no earlier call has memoised."""
    real = decomposition._twin_masks
    checked = [0]

    def bare(g):
        return Graph._from_adj(list(g._uid), g._adj)._derive(g._vmask)

    def checking(g, blocks=None):
        out = real(g, blocks)
        if blocks is not None:
            assert sum(blocks) == g._vmask and sum(b.bit_count() for b in blocks) == g.n
            for b in blocks:
                assert b.bit_count() == 1 or (g._independent(b) and
                                              decomposition._is_module_mask(g, b))
            fresh = real(bare(g))
            assert out == fresh
            assert real(bare(g), blocks) == fresh
            checked[0] += 1
        return out

    monkeypatch.setattr(tar_engine, "_twin_masks", checking)
    cases = [threshold_sides(seed, 150) for seed in range(3)]
    cases += [gen_instance(seed, GenProfile(n=150, width=6, rule="tar"))[:3] for seed in range(3)]
    for g, s, t in cases:
        for res in lambda_all(g, s).values():
            check_result(g, res)
        answer = reach_tar(g, min(len(s), len(t)) // 2, s, t)
        if answer.reachable:
            assert verify_sequence(g, answer.certificate) == t
    assert checked[0] >= 2000


def test_engine_invariants_hold_on_prime_roots(monkeypatch):
    # threshold graphs have no prime node; here the checked rule loop runs on
    # prime nodes of up to 8 parts, with dead and live parts side by side
    mixed = []
    check = tar_engine.EngineState.check

    def counted(st):
        if st.slices and st.live:
            mixed.append(len(st.part_masks))
        check(st)

    monkeypatch.setattr(tar_engine.EngineState, "check", counted)
    for width in (4, 6, 8):
        for seed in range(4):
            g, s, _, _ = gen_instance(seed, GenProfile(n=60, width=width, rule="tar"))
            for res in lambda_all(g, s, check=True).values():
                check_result(g, res)
    assert max(mixed) >= 7 and sum(n >= 4 for n in mixed) >= 100


def test_engine_invariants_hold_on_deep_threshold_graphs():
    # the checked rule loop compares the slice-built pool partition with a
    # vertex-built one after every rule, at every level of a deep decomposition
    for seed in range(4):
        g, s, _ = threshold_sides(seed, 40)
        for res in lambda_all(g, s, check=True).values():
            check_result(g, res)


def test_a_start_holding_every_vertex_builds_no_twin_partition(monkeypatch):
    # such a start is a fully occupied edgeless graph, already the largest
    # union, so the search returns it with no moves and no twin partition
    calls = []
    real = tar_engine._twin_masks
    monkeypatch.setattr(tar_engine, "_twin_masks", lambda *args: calls.append(args) or real(*args))
    single = Graph([7])
    assert tar_engine._class_search(single, 1, single._vmask) == (single._vmask, tar_engine.EMPTY)
    res = lambda_single(single, {7}, 1)
    assert res.reached == {7} and res.sequence.moves == ()
    g = edgeless_graph(3)
    for floor in range(4):
        reached, rope = tar_engine._class_search(g, floor, g._vmask, g._vmask)
        assert reached == g._vmask and len(rope) == 0
    assert calls == []
    # a goal short of the start still runs the search
    reached, rope = tar_engine._class_search(g, 1, g._vmask, g._mask({2}))
    assert reached == g._mask({2}) and len(rope) == 2 and calls


def test_rule_2a_skips_a_pool_full_of_tokens(monkeypatch):
    # a pool whose every vertex holds a token has no larger union to reach,
    # so Rule 2a derives no view and runs no class search on it; on this
    # input most pools are full.  Rule 2a, in ``_improve``, is the rule loop's
    # only search.
    full = []
    real = tar_engine._class_search

    def counted(g, floor, start, goal=None):
        if sys._getframe(1).f_code is tar_engine._improve.__code__:
            full.append(start == g._vmask)
        return real(g, floor, start, goal)

    monkeypatch.setattr(tar_engine, "_class_search", counted)
    g = threshold_graph(0, 40)
    for res in lambda_all(g, alpha(g).witness).values():
        check_result(g, res)
    assert full and not any(full)


def full_class_search(g, floor, start, goal=None):
    """``_class_search`` as it was before its early stop: a goal-less search
    walks every reachable union and takes the first largest (``max``)."""
    if start == g._vmask and goal in (None, start):
        return start, tar_engine.EMPTY
    classes = tar_engine._twin_masks(g)
    drop = 0
    for cm in classes:
        if tar_engine._clique_class(g, cm):
            keep = cm & start or cm
            drop |= cm & ~(keep & -keep)
    if drop:
        g = g._derive(g._vmask & ~drop)
        classes = tar_engine._twin_masks(g, [c & ~drop for c in classes])
    rows = [g._adj[(c & -c).bit_length() - 1] for c in classes]

    def saturate(side):
        return (sum(c for c in classes if c & side),
                [Move.add(v) for c in classes if c & side for v in g._ids(c & ~side)])

    def step(state):
        size = state.bit_count()
        for c, row in zip(classes, rows):
            if not state & c:
                if not row & state:
                    yield state | c, c
            elif size - c.bit_count() >= floor:
                yield state ^ c, c

    state, moves = saturate(start)
    goal_state, goal_moves = saturate(goal) if goal is not None else (None, [])
    parent = {}
    states = tar_engine._bfs(state, step, parent)
    if goal is None:
        at = end = max(states, key=int.bit_count)
    elif any(goal_state in parent for _ in states):
        at, end = goal_state, goal
    else:
        return None
    hops = []
    while parent[at] is not None:
        at, c = parent[at]
        move = Move.remove if at & c else Move.add
        hops.append([move(v) for v in g._ids(c)])
    for hop in reversed(hops):
        moves.extend(hop)
    return end, MoveRope.cat(MoveRope.leaf(moves), MoveRope.rev(MoveRope.leaf(goal_moves)))


def pool_views(seed):
    """Rule 2a-style views of a gen_instance graph: unions of maximum
    independent sets of some root parts, grouped by those slices."""
    g, s, _, _ = gen_instance(seed, GenProfile(n=60, width=6, rule="tar"))
    rng = random.Random(seed)
    _, part_masks = decomposition._root_child_masks(g)
    slices = [tar_engine._alpha_mask(g._derive(pm))[1] for pm in part_masks]
    for _ in range(4):
        free = [sl for sl in slices if rng.random() < 0.6] or slices[:1]
        view = g._derive(sum(free))
        tar_engine._twin_masks(view, free)
        yield view, view._mask(random_independent_set(rng, view, keep=rng.random()))


def search_cases():
    """(view, start) pairs: whole small gen_instance graphs and pool views."""
    for seed in range(12):
        g, _, _, _ = gen_instance(seed, GenProfile(n=12, width=4, rule="tar"))
        for keep in (0.3, 0.7, 1.0):
            yield g, g._mask(random_independent_set(random.Random(seed), g, keep))
    for seed in range(6):
        yield from pool_views(seed)


def test_early_stopped_search_matches_the_full_walk():
    # same union and same moves at every floor; a high floor can keep every
    # reachable union below alpha, and then the whole walk still runs
    below = stopped = 0
    for g, start in search_cases():
        top = alpha(g).size
        for floor in range(start.bit_count() + 1):
            reached, rope = tar_engine._class_search(g, floor, start)
            want, want_rope = full_class_search(g, floor, start)
            assert reached == want and rope.flatten() == want_rope.flatten()
            below += reached.bit_count() < top
            stopped += reached.bit_count() == top
    assert below >= 20 and stopped >= 100


def bfs_states(monkeypatch):
    """The list of every state ``tar_engine._bfs`` yields from now on."""
    visited = []
    real = tar_engine._bfs

    def counted(start, step, parent):
        for state in real(start, step, parent):
            visited.append(state)
            yield state

    monkeypatch.setattr(tar_engine, "_bfs", counted)
    return visited


def test_early_stopped_search_visits_fewer_unions(monkeypatch):
    visited = bfs_states(monkeypatch)
    view, start = next(pool_views(0))
    counts = []
    for search in (tar_engine._class_search, full_class_search):
        visited.clear()
        for floor in range(start.bit_count() + 1):
            search(view, floor, start)
        counts.append(len(visited))
    assert counts[0] < counts[1]


def test_a_start_saturated_to_the_heaviest_union_is_the_only_state(monkeypatch):
    # {2} saturates to the leaves {2, 3}, already the heaviest union, so the
    # search returns it without expanding it (to the empty union at floor 0)
    visited = bfs_states(monkeypatch)
    g = star_graph(1, [2, 3])
    reached, rope = tar_engine._class_search(g, 0, g._mask({2}))
    assert reached == g._mask({2, 3}) and rope.flatten() == (Move.add(3),)
    assert visited == [reached]


def test_a_moveless_start_builds_no_bound(monkeypatch):
    # P3 from {1}: the start saturates to the leaves {1, 3}, which see the
    # middle and cannot drop below floor 1, so it is the only union and its
    # own weight bounds the walk; no quotient is weighed
    calls = []
    heaviest = tar_engine._heaviest
    monkeypatch.setattr(tar_engine, "_heaviest",
                        lambda *args: calls.append(args) or heaviest(*args))
    g = path_graph([1, 2, 3])
    reached, rope = tar_engine._class_search(g, 1, g._mask({1}))
    assert reached == g._mask({1, 3}) and rope.flatten() == (Move.add(3),)
    assert calls == []
    tar_engine._class_search(g, 0, g._mask({1}))  # at floor 0 the leaves can drop
    assert len(calls) == 1
