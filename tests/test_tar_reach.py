import random
import sys

import pytest

from isreconf import (Graph, InputError, Rule, empty_module, oracle_lambda,
                      oracle_reach, reach_nd, reach_tar, reach_tj,
                      reduce_empty_module, tar_engine, tar_reach, tj_threshold,
                      verify_sequence)
from isreconf.decomposition import _run

from helpers import (complete_graph, cycle_graph, join_all, path_graph,
                     random_graph, random_independent_set, threshold_sides)
from test_solver_core import threshold_instance


def check_yes(g, answer, start, target, k):
    assert answer.reachable
    seq = answer.certificate
    assert seq.rule == Rule.tar(k)
    assert seq.start == frozenset(start)
    assert verify_sequence(g, seq) == frozenset(target)


def test_empty_module_disjoint_seed_returns_seed():
    g = path_graph([1, 2, 3])
    out = empty_module(g, {2}, {1, 3}, 1)
    assert out is not None
    final, seq = out
    assert final == {2} and seq.moves == ()


def test_empty_module_p3_diagonal():
    g = path_graph([1, 2, 3])
    assert empty_module(g, {1, 3}, {1, 3}, 1) is None
    out = empty_module(g, {1, 3}, {1, 3}, 0)
    assert out is not None
    final, seq = out
    assert final == frozenset()
    assert verify_sequence(g, seq) == frozenset()


def test_empty_module_validates():
    g = path_graph([1, 2, 3])
    with pytest.raises(InputError):
        empty_module(g, {1, 3}, {1, 2}, 0)     # not a module
    with pytest.raises(InputError):
        empty_module(g, {1, 2}, {1, 3}, 0)     # seed not independent
    with pytest.raises(InputError):
        empty_module(g, {1}, {1, 3}, 2)        # floor above the seed


def test_reduce_empty_module_keeps_edgeless_module():
    g = cycle_graph([1, 2, 3, 4])
    assert reduce_empty_module(g, {2, 4}, {1}, {1}) == g


def test_reduce_empty_module_singleton():
    g = path_graph([1, 2, 3])
    assert reduce_empty_module(g, {2}, {1}, {3}) == g


def test_reduce_empty_module_c4_with_apex():
    g = join_all(cycle_graph([1, 2, 3, 4]), 5)
    reduced = reduce_empty_module(g, {1, 2, 3, 4}, {5}, {5})
    assert reduced.vertices == {1, 3, 5}
    for k in (0, 1):
        assert oracle_reach(Rule.tar(k), g, {5}, {5}) == \
            oracle_reach(Rule.tar(k), reduced, {5}, {5})
        # reachability of every small pair agrees on both graphs
        assert oracle_reach(Rule.tar(k), g, {1, 3}, {5}) == \
            oracle_reach(Rule.tar(k), reduced, {1, 3}, {5})


def test_reduce_empty_module_validates():
    g = cycle_graph([1, 2, 3, 4])
    with pytest.raises(InputError):
        reduce_empty_module(g, {1, 3}, {1}, {2})


def test_reach_nd_identity():
    g = complete_graph(3)
    ans = reach_nd(g, 1, {2}, {2})
    assert ans.reachable and ans.certificate.moves == ()


def test_reach_nd_frozen_clique_vertex():
    # K2 {1,2} fully joined to the edgeless pair {3,4}
    g = Graph([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    ans = reach_nd(g, 1, {1}, {3})
    assert not ans.reachable and ans.certificate is None
    assert not oracle_reach(Rule.tar(1), g, {1}, {3})


def test_reach_nd_p3():
    g = path_graph([1, 2, 3])
    ans = reach_nd(g, 1, {1}, {3})
    check_yes(g, ans, {1}, {3}, 1)


def test_reach_tar_c4_examples():
    c4 = cycle_graph([1, 2, 3, 4])
    assert not reach_tar(c4, 1, {1, 3}, {2, 4}).reachable
    ans = reach_tar(c4, 0, {1, 3}, {2, 4})
    check_yes(c4, ans, {1, 3}, {2, 4}, 0)


def test_reach_tar_two_paths():
    g = Graph(range(1, 7), [(1, 2), (2, 3), (4, 5), (5, 6)])
    ans = reach_tar(g, 1, {1, 4}, {3, 6})
    check_yes(g, ans, {1, 4}, {3, 6}, 1)


def test_reach_tar_validates():
    g = path_graph([1, 2, 3])
    with pytest.raises(InputError):
        reach_tar(g, 2, {1}, {3})
    with pytest.raises(InputError):
        reach_tar(g, -1, {1}, {3})
    with pytest.raises(InputError):
        reach_tar(g, 0, {1, 2}, {3})


def test_component_token_counts_that_differ_after_normalisation_are_a_no():
    # two P3 components; at floor 3 neither side can move, and the first
    # component holds two start tokens but one target token
    g = Graph(range(1, 7), [(1, 2), (2, 3), (4, 5), (5, 6)])
    s, t = {1, 3, 5}, {2, 4, 6}
    assert not reach_tar(g, 3, s, t).reachable
    assert not oracle_reach(Rule.tar(3), g, s, t)
    # at floor 2 both sides normalise to {1, 3, 4, 6}
    check_yes(g, reach_tar(g, 2, s, t), s, t, 2)
    assert oracle_reach(Rule.tar(2), g, s, t)


def test_reach_tj_basics():
    g = path_graph([1, 2, 3])
    assert not reach_tj(g, {1, 3}, {2}).reachable
    same = reach_tj(g, {1}, {1})
    assert same.reachable and same.certificate.moves == ()
    ans = reach_tj(g, {1}, {3})
    assert ans.reachable
    assert ans.certificate.rule == Rule.tar(0)
    assert verify_sequence(g, ans.certificate) == {3}
    c4 = cycle_graph([1, 2, 3, 4])
    assert not reach_tj(c4, {1, 3}, {2, 4}).reachable


def test_reach_tar_matches_oracle_randomized():
    rng = random.Random(31)
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.2, 0.4, 0.6]))
        s = random_independent_set(rng, g)
        t = random_independent_set(rng, g)
        k = rng.randint(0, min(len(s), len(t)))
        ans = reach_tar(g, k, s, t)
        assert ans.reachable == oracle_reach(Rule.tar(k), g, s, t)
        if ans.reachable:
            check_yes(g, ans, s, t, k)


def test_tiny_and_empty_instances():
    k1 = Graph([1])
    assert reach_tar(k1, 0, set(), set()).reachable
    assert reach_tar(k1, 1, {1}, {1}).reachable
    assert reach_tj(k1, set(), set()).reachable
    assert not reach_tj(k1, set(), {1}).reachable
    empty = Graph([])
    assert reach_tar(empty, 0, set(), set()).reachable


def test_reach_tar_on_dense_graphs_with_clique_classes():
    # dense graphs give many clique twin classes, driving the pinned-token
    # recursion that lowers the floor component by component
    rng = random.Random(556)
    for _ in range(60):
        n = rng.randint(3, 11)
        g = random_graph(rng, n, 0.8)
        s = random_independent_set(rng, g, keep=0.8)
        t = random_independent_set(rng, g, keep=0.8)
        k = rng.randint(0, min(len(s), len(t)))
        got = reach_tar(g, k, s, t)
        assert got.reachable == oracle_reach(Rule.tar(k), g, s, t)
        if got.reachable:
            check_yes(g, got, s, t, k)


def test_lambda_disconnected_with_invariant_checks():
    from isreconf import lambda_all
    rng = random.Random(555)
    for _ in range(25):
        blocks = []
        base = 1
        for _ in range(rng.randint(2, 3)):
            nb = rng.randint(1, 5)
            blocks.append(random_graph(rng, nb, 0.5, first=base))
            base += nb
        g = Graph([v for b in blocks for v in b.ids],
                  [e for b in blocks for e in b.edges()])
        s = random_independent_set(rng, g, keep=0.6)
        for j, res in lambda_all(g, s, check=True).items():
            assert res.size == oracle_lambda(g, s, j)
            assert verify_sequence(g, res.sequence) == res.reached


def test_solver_is_deterministic():
    g = Graph(range(1, 7), [(1, 2), (2, 3), (4, 5), (5, 6), (1, 4)])
    first = reach_tar(g, 1, {1, 5}, {3, 6})
    second = reach_tar(g, 1, {1, 5}, {3, 6})
    assert first.reachable == second.reachable
    if first.reachable:
        assert first.certificate.moves == second.certificate.moves


def test_reach_tj_matches_tar_threshold_identically():
    rng = random.Random(32)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 10), 0.4)
        s = random_independent_set(rng, g)
        t = random_independent_set(rng, g)
        if len(s) != len(t):
            assert not reach_tj(g, s, t).reachable
            continue
        ans = reach_tj(g, s, t)
        assert ans.reachable == oracle_reach(Rule.tj(), g, s, t)
        if s:
            assert ans.reachable == reach_tar(g, tj_threshold(s), s, t).reachable


def test_component_token_counts_frozen_after_normalization():
    # after replacing a side with its largest reachable set, no reachable set
    # can exceed the per-component counts
    from isreconf import lambda_single
    rng = random.Random(33)
    for _ in range(25):
        blocks = [random_graph(rng, rng.randint(2, 5), 0.5, first=1),
                  random_graph(rng, rng.randint(2, 5), 0.5, first=10)]
        g = Graph([v for b in blocks for v in b.ids],
                  [e for b in blocks for e in b.edges()])
        s = random_independent_set(rng, g)
        k = rng.randint(0, len(s))
        best = lambda_single(g, s, k)
        assert best.size == oracle_lambda(g, s, k)
        for comp in g.components():
            keep = len(best.reached & comp)
            # BFS the configuration graph and confirm the bound
            from collections import deque
            from isreconf.rules import Rule as R
            from isreconf.oracle import _successors
            start = g._mask(best.reached)
            seen = {start}
            queue = deque((start,))
            cm = g._mask(comp)
            while queue:
                state = queue.popleft()
                assert (state & cm).bit_count() <= keep
                for nxt in _successors(R.tar(k), g, state):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)


class LoggedTable(dict):
    """One table of a reach call's store that logs every write and every hit."""

    def __init__(self, key, log):
        super().__init__()
        self.key = key
        self.log = log

    def __setitem__(self, j, entry):
        self.log["filled"].append((*self.key, j))
        super().__setitem__(j, entry)

    def get(self, j):
        entry = super().get(j)
        self.log["cached"] += j is not None and entry is not None
        return entry


class LoggedStore(dict):
    """A reach call's table store whose tables are ``LoggedTable``s."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def setdefault(self, key, default=None):
        assert default == {}
        return super().setdefault(key, LoggedTable(key, self.log))


@pytest.fixture
def solves(monkeypatch):
    """Writes to the tables of the reach calls' stores, at any level: each
    entry's ``(vertex mask, seed, threshold)`` and each part list's ``(vertex
    mask, seed, None)``; how many entry reads found what they asked for; and
    how many ``_fill`` calls a rule loop made, each of which must miss."""
    log = {"filled": [], "cached": 0, "loop_fills": 0}
    fill = tar_engine._fill
    rule_loop = (tar_engine._lambda_step_raw.__code__, tar_engine._improve.__code__)

    def reach(g, k, s, t, classes=False):
        return _run(tar_reach._tar(g, k, s, t, classes, LoggedStore(log)))

    def checked_fill(memo, check, g, seed, j):
        assert isinstance(memo, LoggedStore)  # every level reads the call's one store
        if sys._getframe(1).f_code in rule_loop:
            # a rule loop reads its child's table first and fills only what it lacks
            assert dict.get(dict.get(memo, (g._vmask, seed), {}), j) is None
            log["loop_fills"] += 1
        return fill(memo, check, g, seed, j)

    monkeypatch.setattr(tar_reach, "_reach_tar", reach)
    for module in (tar_engine, tar_reach):
        monkeypatch.setattr(module, "_fill", checked_fill)
    return log


def test_reach_tar_solves_each_table_entry_once(solves):
    # the fence step vacates a module on the graph without its fence, the
    # normalisation after the fence deletion asks for that same table, and
    # every parent's rule loop reads its children's tables from the store
    g, s, t = threshold_instance(0, 300)
    for k in (1, 2, len(s) // 4, len(s) // 2, len(s) - 1, len(s)):
        solves["filled"].clear()
        reach_tar(g, k, s, t)
        assert solves["filled"]
        assert len(set(solves["filled"])) == len(solves["filled"]), k
    assert solves["loop_fills"] and solves["cached"]


def test_fence_and_normalisation_match_oracle_on_threshold_graphs(solves):
    # threshold graphs reach the fence deletion and the disconnected
    # normalisation at every level; every floor up to min(|S|, |T|)
    cases = nos = 0
    for seed in range(150):
        g, s, t = threshold_sides(seed, 12)
        for k in range(1, min(len(s), len(t)) + 1):
            ans = reach_tar(g, k, s, t)
            assert ans.reachable == oracle_reach(Rule.tar(k), g, s, t)
            if ans.reachable:
                check_yes(g, ans, s, t, k)
            cases += 1
            nos += not ans.reachable
    assert (cases, nos) == (653, 120)
    assert solves["cached"] >= 200 and solves["loop_fills"]
