import random
import sys

import pytest
from hypothesis import given, settings

from isreconf import (AlphaResult, GenProfile, Graph, InternalError, alpha, brute_alpha,
                      gen_instance, md_tree, mis, top_partition)
from isreconf.graph import bits

from helpers import complete_graph, cycle_graph, edgeless_graph, graphs


def test_alpha_complete_and_edgeless():
    assert alpha(complete_graph(6)).size == 1
    assert alpha(edgeless_graph(6)).size == 6


def test_alpha_c5():
    # brute enumeration of C5's independent sets tops out at 2
    assert alpha(cycle_graph([1, 2, 3, 4, 5])).size == 2


def test_alpha_empty_graph():
    assert alpha(Graph([])).size == 0


def test_alpha_witness_is_deterministic():
    c4 = cycle_graph([1, 2, 3, 4])
    assert alpha(c4).witness == {1, 3}


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=1, max_n=10))
def test_alpha_matches_brute_force_and_witness_checks(g):
    result = alpha(g)
    assert result.size == brute_alpha(g)
    assert g.is_independent(result.witness)
    assert len(result.witness) == result.size


# -- reference: the decomposition walk with the sorted 2^r quotient enumeration


def _reference_alpha(g):
    if g.n == 0:
        return AlphaResult(0, frozenset())
    return _ref_alpha_node(g, md_tree(g))


def _ref_alpha_node(g, node):
    if node.kind == "leaf":
        return AlphaResult(1, node.span)
    parts = [_ref_alpha_node(g, c) for c in node.children]
    if node.kind == "parallel":
        members = set()
        for part in parts:
            members.update(part.witness)
        return AlphaResult(sum(p.size for p in parts), frozenset(members))
    if node.kind == "series":
        best = parts[0]
        for part in parts[1:]:
            if part.size > best.size:
                best = part
        return best
    return _ref_alpha_prime(g, node, parts)


def _ref_alpha_prime(g, node, parts):
    r = len(node.children)
    spans = [g._mask(c.span) for c in node.children]
    reps = [(m & -m).bit_length() - 1 for m in spans]
    # quotient adjacency over child indices; a module sees all or nothing
    qadj = [0] * r
    for i in range(r):
        row = g._adj[reps[i]]
        for j in range(r):
            if i != j and row & spans[j]:
                qadj[i] |= 1 << j
    best_size = -1
    best_mask = 0
    for mask in sorted(range(1, 1 << r), key=lambda m: (m.bit_count(), m)):
        ok = True
        total = 0
        for i in bits(mask):
            if qadj[i] & mask:
                ok = False
                break
            total += parts[i].size
        if ok and total > best_size:
            best_size = total
            best_mask = mask
    if best_size < 1:
        raise InternalError("prime quotient search found no independent set")
    members = set()
    for i in bits(best_mask):
        members.update(parts[i].witness)
    return AlphaResult(best_size, frozenset(members))


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=0, max_n=10))
def test_alpha_witness_matches_reference_small(g):
    assert alpha(g) == _reference_alpha(g)


@pytest.mark.parametrize("n,width", [(80, 6), (110, 8), (150, 10)])
@pytest.mark.parametrize("seed", range(4))
def test_alpha_witness_matches_reference_generated(seed, n, width):
    g, _, _, _ = gen_instance(seed, GenProfile(n=n, width=width))
    assert alpha(g) == _reference_alpha(g)


def _prime_nodes(node):
    own = 1 if node.kind == "prime" else 0
    return own + sum(_prime_nodes(c) for c in node.children)


def test_alpha_solves_each_prime_node_once(monkeypatch):
    g, _, _, _ = gen_instance(5, GenProfile(n=150, width=10))
    calls = []
    real = mis._alpha_prime

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mis, "_alpha_prime", counted)
    subs = [g._derive(g._mask(part)) for part in top_partition(g)]
    alpha(max(subs, key=lambda sub: sub.n))  # a module solved before its parent
    alpha(g)
    primes = _prime_nodes(md_tree(g))
    assert primes > 1
    assert len(calls) == primes
    for sub in subs:
        alpha(sub)
    assert len(calls) == primes


def _recursive_heaviest(cand, qadj, sizes, memo):
    """The earlier recursive ``_heaviest``: one call level per branching decision."""
    hit = memo.get(cand)
    if hit is not None:
        return hit
    i = cand.bit_length() - 1
    bit = 1 << i
    rest = cand ^ bit
    w, negc, negm = _recursive_heaviest(rest & ~qadj[i], qadj, sizes, memo)
    res = (w + sizes[i], negc - 1, negm - bit)
    if qadj[i] & rest:
        res = max(res, _recursive_heaviest(rest, qadj, sizes, memo))
    memo[cand] = res
    return res


def test_heaviest_matches_the_recursive_version_on_small_quotients():
    rng = random.Random(41)
    for _ in range(300):
        r = rng.randint(1, 14)
        qadj = [0] * r
        for i in range(r):
            for j in range(i + 1, r):
                if rng.random() < rng.choice([0.1, 0.3, 0.6]):
                    qadj[i] |= 1 << j
                    qadj[j] |= 1 << i
        sizes = [rng.randint(1, 4) for _ in range(r)]
        cand = rng.randint(1, (1 << r) - 1)
        memo, ref_memo = {0: (0, 0, 0)}, {0: (0, 0, 0)}
        assert mis._heaviest(cand, qadj, sizes, memo) == \
            _recursive_heaviest(cand, qadj, sizes, ref_memo)
        assert memo == ref_memo


def test_heaviest_on_a_long_path_quotient_needs_no_recursion():
    # the recursive version went one level deeper per decision and raised
    # RecursionError from order about 2100 under the default limit
    n = 2500
    assert sys.getrecursionlimit() < n
    qadj = [(1 << i - 1 if i else 0) | (1 << i + 1 if i + 1 < n else 0) for i in range(n)]
    weight, negc, negm = mis._heaviest((1 << n) - 1, qadj, [1] * n, {0: (0, 0, 0)})
    # ties go to the fewest children, then the smallest mask: every even position
    assert (weight, -negc, -negm) == (n // 2, n // 2, sum(1 << i for i in range(0, n, 2)))
