"""Parity of the shared class-union search and module-shrink core with the
code they replaced.

The functions below the imports are verbatim copies of the earlier
``lambda_nd``, ``shrink_module``, ``_trivial_rope``, ``_empty_module_rope``,
``reduce_empty_module``, ``_aux_reach_rope`` and ``_reach_nd``, each with
its own class-union search or inline module shrink.  The tests assert that
the current functions give the same sizes, reached sets, flattened moves
and ``nodes_deleted`` counts, or the same exception, on hypothesis graphs
with n <= 8 under every floor and on generated instances.  The one
exception is ``_reach_nd``'s count: the copy fills a fresh table on every
level, the current code fills each table entry once per call, so its
count may be lower but never higher.  The lemma
functions now also reject an unknown or dependent seed, start or target;
on those inputs only an ``InputError`` is required.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isreconf
from isreconf import (GenProfile, Graph, InputError, LambdaResult, alpha, gen_instance,
                      is_module, lambda_all, nd_partition, stats, tar_engine, tar_reach,
                      top_partition)
from isreconf.decomposition import quotient_adjacency
from isreconf.graph import bits
from isreconf.moveseq import EMPTY, MoveRope, adds, removes
from isreconf.rules import Move
from isreconf.tar_engine import lambda_single

from helpers import cycle_graph, graphs, random_independent_set


# -- the earlier implementations, verbatim -------------------------------------


def lambda_nd(g: Graph, seed, k: int) -> LambdaResult:
    """Largest reachable set by search over twin-class-saturated sets.

    Clique classes keep a single vertex (the seed's, if it has one).  The
    remaining classes are edgeless, so every maximal reachable set is a
    union of full classes; breadth-first search over those unions finds
    the optimum, and the class-level path expands into single moves.
    Exponential in the twin-class count only.
    """
    seed = frozenset(seed)
    if not g.is_independent(seed):
        raise InputError("seed set is not independent")
    if len(seed) < k:
        raise InputError(f"seed has {len(seed)} tokens, below the floor {k}")
    floor = max(k, 0)

    drop: set[int] = set()
    for cl in nd_partition(g):
        if cl.kind == "clique" and len(cl.members) >= 2:
            hit = cl.members & seed
            keep = min(hit) if hit else min(cl.members)
            drop.update(cl.members - {keep})
    g2 = g.delete_vertices(drop) if drop else g

    classes = [cl.members for cl in nd_partition(g2)]
    nc = len(classes)
    masks = [g2._mask(c) for c in classes]
    sizes = [len(c) for c in classes]
    qadj = quotient_adjacency(g2, masks)

    sat_moves: list[Move] = []
    start_state = 0
    start_size = 0
    for i in range(nc):
        if classes[i] & seed:
            start_state |= 1 << i
            start_size += sizes[i]
            sat_moves.extend(Move.add(v) for v in sorted(classes[i] - seed))

    parent: dict[int, tuple[int, int] | None] = {start_state: None}
    best_state, best_size = start_state, start_size
    queue = [start_state]
    state_size = {start_state: start_size}
    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        size = state_size[state]
        for i in range(nc):
            bit = 1 << i
            if state & bit:
                nsize = size - sizes[i]
                if nsize < floor:
                    continue
                nxt = state ^ bit
            else:
                if qadj[i] & state:
                    continue
                nxt = state | bit
                nsize = size + sizes[i]
            if nxt in parent:
                continue
            parent[nxt] = (state, i)
            state_size[nxt] = nsize
            queue.append(nxt)
            if nsize > best_size:
                best_state, best_size = nxt, nsize

    hops: list[tuple[int, int]] = []
    at = best_state
    while parent[at] is not None:
        prev, i = parent[at]
        hops.append((at, i))
        at = prev
    path_moves: list[Move] = []
    for state, i in reversed(hops):
        if state & (1 << i):
            path_moves.extend(Move.add(v) for v in sorted(classes[i]))
        else:
            path_moves.extend(Move.remove(v) for v in sorted(classes[i]))
    reached = frozenset().union(*(classes[i] for i in bits(best_state))) if best_state else frozenset()
    rope = MoveRope.leaf(sat_moves + path_moves)
    return LambdaResult(best_size, reached, seed, floor, rope)


def shrink_module(g: Graph, seed, module, witness) -> Graph:
    """Drop a module's vertices outside a maximum independent set.

    Requires the seed's tokens inside the module to sit within the given
    witness; then every removed vertex is irrelevant and the largest
    reachable size is unchanged for every floor.
    """
    module = frozenset(module)
    witness = frozenset(witness)
    seed = frozenset(seed)
    if not is_module(g, module):
        raise InputError("given set is not a module")
    if not witness <= module or not g.is_independent(witness):
        raise InputError("witness must be an independent subset of the module")
    if not (seed & module) <= witness:
        raise InputError("seed tokens inside the module must lie in the witness")
    if len(witness) != alpha(g.induced_subgraph(module)).size:
        raise InputError("witness is not a maximum independent set of the module")
    return g.delete_vertices(module - witness)


def _trivial_rope(s: frozenset[int], t: frozenset[int]) -> MoveRope:
    # with no effective floor, tear down one side and build the other
    return MoveRope.cat(removes(s - t), adds(t - s))


def _empty_module_rope(g: Graph, seed: frozenset[int], module: frozenset[int],
                       k: int) -> tuple[frozenset[int], MoveRope] | None:
    if not seed & module:
        return seed, EMPTY
    h = g.delete_vertices(g.neighborhood(module))
    best = lambda_single(h, seed, max(k, 0))
    outside = best.reached - module
    if len(outside) < k:
        return None
    rope = MoveRope.cat(best._rope, removes(best.reached & module))
    return outside, rope


def reduce_empty_module(g: Graph, module, s, t) -> Graph:
    """Shrink a module both sides avoid down to a maximum independent set."""
    module = frozenset(module)
    s = frozenset(s)
    t = frozenset(t)
    if not is_module(g, module):
        raise InputError("given set is not a module")
    if s & module or t & module:
        raise InputError("both sets must avoid the module")
    witness = alpha(g.induced_subgraph(module)).witness
    return g.delete_vertices(module - witness)


def _aux_reach_rope(g: Graph, k: int, s: frozenset[int], t: frozenset[int]) -> MoveRope | None:
    """Reachability over twin-class-saturated sets; all classes edgeless."""
    classes = [cl.members for cl in nd_partition(g)]
    nc = len(classes)
    masks = [g._mask(c) for c in classes]
    sizes = [len(c) for c in classes]
    qadj = quotient_adjacency(g, masks)

    def saturate(side: frozenset[int]) -> tuple[int, int, list[Move]]:
        state = 0
        size = 0
        moves: list[Move] = []
        for i in range(nc):
            if classes[i] & side:
                state |= 1 << i
                size += sizes[i]
                moves.extend(Move.add(v) for v in sorted(classes[i] - side))
        return state, size, moves

    s_state, s_size, s_sat = saturate(s)
    t_state, _, t_sat = saturate(t)
    parent: dict[int, tuple[int, int] | None] = {s_state: None}
    state_size = {s_state: s_size}
    queue = [s_state]
    head = 0
    while head < len(queue) and t_state not in parent:
        state = queue[head]
        head += 1
        size = state_size[state]
        for i in range(nc):
            bit = 1 << i
            if state & bit:
                nsize = size - sizes[i]
                if nsize < k:
                    continue
                nxt = state ^ bit
            else:
                if qadj[i] & state:
                    continue
                nxt = state | bit
                nsize = size + sizes[i]
            if nxt not in parent:
                parent[nxt] = (state, i)
                state_size[nxt] = nsize
                queue.append(nxt)
    if t_state not in parent:
        return None
    hops = []
    at = t_state
    while parent[at] is not None:
        prev, i = parent[at]
        hops.append((at, i))
        at = prev
    path: list[Move] = []
    for state, i in reversed(hops):
        if state & (1 << i):
            path.extend(Move.add(v) for v in sorted(classes[i]))
        else:
            path.extend(Move.remove(v) for v in sorted(classes[i]))
    return MoveRope.cat(MoveRope.leaf(s_sat + path), MoveRope.rev(MoveRope.leaf(t_sat)))


def _reach_nd(g: Graph, k: int, s: frozenset[int], t: frozenset[int]) -> MoveRope | None:
    if k <= 0:
        return _trivial_rope(s, t)
    if s == t:
        return EMPTY
    target = None
    for cl in nd_partition(g):
        if cl.kind == "clique" and len(cl.members) >= 2:
            target = cl.members
            break
    if target is None:
        return _aux_reach_rope(g, k, s, t)

    es = _empty_module_rope(g, s, target, k)
    et = _empty_module_rope(g, t, target, k)
    if (es is None) != (et is None):
        return None
    if es is not None:
        s2, rs = es
        t2, rt = et
        keep = min(target)
        g2 = g.delete_vertices(target - {keep})
        stats.inc("nodes_deleted", len(target) - 1)
        sub = _reach_nd(g2, k, s2, t2)
        if sub is None:
            return None
        return MoveRope.cat(MoveRope.cat(rs, sub), MoveRope.rev(rt))
    # neither side can vacate a clique: the single token inside is pinned
    if s & target != t & target:
        return None
    closed = target | g.neighborhood(target)
    g2 = g.delete_vertices(closed)
    stats.inc("nodes_deleted", len(closed))
    return _reach_nd(g2, k - 1, s - target, t - target)


# -- comparison helpers ----------------------------------------------------------


def outcome(fn, *args):
    """What a call does: its result, or the exception type and message."""
    stats.reset()
    try:
        out = fn(*args)
    except InputError as exc:
        return ("raises", type(exc), str(exc))
    if isinstance(out, Graph):
        out = (out.ids, tuple(out.edges()))
    elif isinstance(out, LambdaResult):
        out = (out.size, out.reached, out.sequence.moves)
    elif isinstance(out, MoveRope):
        out = out.flatten()
    return ("returns", out, stats.get("nodes_deleted"))


def lemma_outcome(fn, *args):
    """``outcome`` without the counter, which only the current lemmas advance."""
    return outcome(fn, *args)[:2]


def valid_side(g, side):
    return all(g.has_vertex(v) for v in side) and g.is_independent(side)


def same_or_rejected(g, sides, new, old):
    """Equal outcomes when every side is a valid set, else an InputError."""
    if all(valid_side(g, side) for side in sides):
        assert new == old
    else:
        assert new[:2] == ("raises", InputError)
        if old[0] == "raises":
            assert old[1] is InputError


def candidate_modules(g):
    found = [cl.members for cl in nd_partition(g)]
    if g.n >= 2:
        found += top_partition(g)
    return found


def is_module_or_false(g, module):
    try:
        return is_module(g, module)
    except InputError:
        return False


@st.composite
def subsets(draw, g, extra=()):
    return frozenset(draw(st.lists(st.sampled_from(sorted(g.ids) + list(extra)), max_size=4)))


@st.composite
def instance(draw, max_n=8):
    g = draw(graphs(min_n=1, max_n=max_n))
    sides = [random_independent_set(random.Random(draw(st.integers(0, 2 ** 30))), g)
             for _ in range(2)]
    return g, sides[0], sides[1]


def nd_rope(g, k, s, t):
    return tar_reach._reach_nd(g, k, g._mask(s), g._mask(t))


def class_search_via_lambda_nd(g, floor, start, goal=None):
    """Rule 2a's earlier call: the copied ``lambda_nd`` on sets, converted back."""
    assert goal is None
    res = lambda_nd(g, g._idset(start), floor)
    return g._mask(res.reached), res._rope


def lambda_table(g, seed):
    stats.reset()
    table = lambda_all(g, seed, check=g.n <= 8)
    return ([(j, r.size, r.reached, r.sequence.moves) for j, r in table.items()],
            stats.snapshot())


def check_instance(g, s, t):
    for seed in (s, t):
        for k in range(-1, len(seed) + 2):
            assert outcome(isreconf.lambda_nd, g, seed, k) == outcome(lambda_nd, g, seed, k)
    for k in range(1, min(len(s), len(t)) + 1):
        new, old = outcome(nd_rope, g, k, s, t), outcome(_reach_nd, g, k, s, t)
        assert new[:2] == old[:2]
        # the copy fills a fresh table per level, the current code once per
        # call, so it may delete fewer nodes but never more
        assert new[2] <= old[2] if new[0] == "returns" else new == old
    now = lambda_table(g, s)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tar_engine, "_class_search", class_search_via_lambda_nd)
        assert lambda_table(g, s) == now
    for module in candidate_modules(g):
        witness = alpha(g.induced_subgraph(module)).witness
        for args in ((g, s, module, witness), (g, t, module, witness)):
            assert lemma_outcome(isreconf.shrink_module, *args) == \
                lemma_outcome(shrink_module, *args)
        args = (g, module, s, t)
        assert lemma_outcome(isreconf.reduce_empty_module, *args) == \
            lemma_outcome(reduce_empty_module, *args)


# -- the tests ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(instance())
def test_search_and_lemmas_match_the_earlier_code(case):
    check_instance(*case)


@pytest.mark.parametrize("n", [10, 12, 14, 16])
def test_search_and_lemmas_match_on_generated_instances(n):
    for width in (3, 4):
        for seed in range(4):
            for rule in ("tar", "tj"):
                g, s, t, _ = gen_instance(seed, GenProfile(n=n, width=width, rule=rule))
                check_instance(g, s, t)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shrink_module_matches_on_arbitrary_arguments(data):
    g = data.draw(graphs(min_n=1, max_n=8))
    module = data.draw(st.sampled_from(candidate_modules(g)) | subsets(g, extra=(99,)))
    witness = data.draw(st.just(alpha(g.induced_subgraph(module)).witness)
                        if module and is_module_or_false(g, module) else subsets(g, extra=(99,)))
    seed = data.draw(subsets(g, extra=(99,)) | st.just(random_independent_set(
        random.Random(data.draw(st.integers(0, 2 ** 30))), g)))
    args = (g, seed, module, witness)
    same_or_rejected(g, [seed], lemma_outcome(isreconf.shrink_module, *args),
                     lemma_outcome(shrink_module, *args))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduce_empty_module_matches_on_arbitrary_arguments(data):
    g = data.draw(graphs(min_n=1, max_n=8))
    module = data.draw(st.sampled_from(candidate_modules(g)) | subsets(g, extra=(99,)))
    sides = [data.draw(subsets(g, extra=(99,)) | st.just(random_independent_set(
        random.Random(data.draw(st.integers(0, 2 ** 30))), g))) for _ in range(2)]
    args = (g, module, *sides)
    same_or_rejected(g, sides, lemma_outcome(isreconf.reduce_empty_module, *args),
                     lemma_outcome(reduce_empty_module, *args))


def test_reduce_empty_module_rejects_unknown_vertex():
    with pytest.raises(InputError):
        isreconf.reduce_empty_module(cycle_graph([1, 2, 3, 4]), {2, 4}, {99}, {1, 3})


def test_shrink_module_rejects_dependent_seed():
    with pytest.raises(InputError):
        isreconf.shrink_module(cycle_graph([1, 2, 3, 4]), {1, 2}, {2, 4}, {2, 4})
