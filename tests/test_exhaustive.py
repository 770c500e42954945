"""Exhaustive agreement with the oracle on every labelled graph with n <= 4.

Every pair of independent sets (S, T) and every floor k is tried under
TAR, TJ and TS, and every seed under every floor for the lambda solvers.
Each yes answer and each lambda result is replayed.  n = 5 takes minutes,
so it is left out.
"""

from itertools import combinations

import pytest

from isreconf import (Graph, Rule, lambda_nd, lambda_single, oracle_lambda, oracle_reach,
                      reach_nd, reach_tar, reach_tj, reach_ts, tj_threshold, verify_sequence)


def all_graphs(n):
    ids = list(range(1, n + 1))
    pairs = list(combinations(ids, 2))
    for pick in range(1 << len(pairs)):
        yield Graph(ids, [e for i, e in enumerate(pairs) if pick >> i & 1])


def independent_sets(g):
    ids = g.ids
    for r in range(len(ids) + 1):
        for sub in combinations(ids, r):
            if g.is_independent(sub):
                yield frozenset(sub)


def replays_to(g, answer, rule, start, target):
    seq = answer.certificate
    assert seq.rule == rule and seq.start == start
    assert verify_sequence(g, seq) == target


def check_lambda(g, res, s, k, want):
    assert res.size == want == len(res.reached)
    assert res.sequence.start == s and res.sequence.rule == Rule.tar(k)
    assert verify_sequence(g, res.sequence) == res.reached


# pairs (S, T) over all graphs, and "no" answers of reach_nd over all (S, T, k)
EXPECTED = {1: (4, 0), 2: (25, 2), 3: (263, 30), 4: (4887, 596)}


@pytest.mark.parametrize("n", sorted(EXPECTED))
def test_every_small_graph_matches_the_oracle(n):
    pairs = nd_no = 0
    for g in all_graphs(n):
        sets = list(independent_sets(g))
        for s in sets:
            for k in range(len(s) + 1):
                want = oracle_lambda(g, s, k)
                check_lambda(g, lambda_single(g, s, k), s, k, want)
                check_lambda(g, lambda_nd(g, s, k), s, k, want)
            for t in sets:
                pairs += 1
                for k in range(min(len(s), len(t)) + 1):
                    want = oracle_reach(Rule.tar(k), g, s, t)
                    for solve in (reach_tar, reach_nd):
                        ans = solve(g, k, s, t)
                        assert ans.reachable == want
                        if want:
                            replays_to(g, ans, Rule.tar(k), s, t)
                    nd_no += not want
                want = oracle_reach(Rule.tj(), g, s, t)
                ans = reach_tj(g, s, t)
                assert ans.reachable == want
                if want:
                    replays_to(g, ans, Rule.tar(tj_threshold(s)), s, t)
                assert reach_ts(g, s, t) == oracle_reach(Rule.ts(), g, s, t)
    assert (pairs, nd_no) == EXPECTED[n]


def test_empty_graph_matches_the_oracle():
    g = Graph([])
    s = frozenset()
    want = oracle_lambda(g, s, 0)
    check_lambda(g, lambda_single(g, s, 0), s, 0, want)
    check_lambda(g, lambda_nd(g, s, 0), s, 0, want)
    assert oracle_reach(Rule.tar(0), g, s, s)
    for solve in (reach_tar, reach_nd):
        replays_to(g, solve(g, 0, s, s), Rule.tar(0), s, s)
    assert oracle_reach(Rule.tj(), g, s, s)
    replays_to(g, reach_tj(g, s, s), Rule.tar(tj_threshold(s)), s, s)
    assert reach_ts(g, s, s) == oracle_reach(Rule.ts(), g, s, s)
