"""Reachability between independent sets under TAR and TJ.

Connected graphs are simplified one module at a time: either both sides
can vacate a module with internal edges (then the module shrinks to a
maximum independent set), or neither can (then the module's entire
neighborhood is unusable and is dropped).  Disconnected graphs normalize
both sides to their largest reachable sets and recurse per component.
Every yes answer carries a replayable witness sequence.
"""

from __future__ import annotations

from .decomposition import _drop, _fence, _module_mask, _root_child_masks, nd_partition
from .errors import InputError, InternalError
from .graph import Graph, reserve_stack
from .mis import _alpha_mask, alpha
from .moveseq import EMPTY, MoveRope, adds, removes
from .rules import ReconfSequence, Rule, tj_threshold
from .tar_engine import _class_search, lambda_single


class ReachAnswer:
    """Decision plus, for yes answers, a verifying move sequence."""

    __slots__ = ("reachable", "_rule", "_start", "_rope", "_seq")

    def __init__(self, reachable: bool, rule: Rule, start: frozenset[int], rope: MoveRope | None):
        self.reachable = reachable
        self._rule = rule
        self._start = start
        self._rope = rope
        self._seq = None

    @property
    def certificate(self) -> ReconfSequence | None:
        if not self.reachable:
            return None
        if self._seq is None:
            self._seq = ReconfSequence(self._rule, self._start, self._rope.flatten())
        return self._seq

    def __repr__(self) -> str:
        tail = f", moves={len(self._rope)}" if self.reachable else ""
        return f"ReachAnswer({'yes' if self.reachable else 'no'}{tail})"


def _trivial_rope(s: frozenset[int], t: frozenset[int]) -> MoveRope:
    # with no effective floor, tear down one side and build the other
    return MoveRope.cat(removes(s - t), adds(t - s))


def _empty_module_rope(g: Graph, seed: frozenset[int], module: int,
                       k: int) -> tuple[frozenset[int], MoveRope] | None:
    if not g._mask(seed) & module:
        return seed, EMPTY
    best = lambda_single(g._derive(g._vmask & ~_fence(g, module)), seed, max(k, 0))
    reached = g._mask(best.reached)
    if (reached & ~module).bit_count() < k:
        return None
    rope = MoveRope.cat(best._rope, removes(g._idset(reached & module)))
    return g._idset(reached & ~module), rope


def empty_module(g: Graph, seed, module, k: int) -> tuple[frozenset[int], ReconfSequence] | None:
    """Vacate a module if possible: a reachable set avoiding it, plus moves.

    Works inside the subgraph that keeps only the module and its
    non-neighbors; any set reachable there while avoiding the module is
    reachable in the full graph, and conversely the largest reachable set
    in that subgraph witnesses impossibility.  Both reachability solvers
    run the same step on every module they try to vacate.
    """
    seed = frozenset(seed)
    pm = _module_mask(g, module)
    if not g.is_independent(seed):
        raise InputError("seed set is not independent")
    if len(seed) < k:
        raise InputError("seed is below the floor")
    out = _empty_module_rope(g, seed, pm, k)
    if out is None:
        return None
    final, rope = out
    return final, ReconfSequence(Rule.tar(max(k, 0)), seed, rope.flatten())


def reduce_empty_module(g: Graph, module, s, t) -> Graph:
    """Shrink a module both sides avoid down to a maximum independent set.

    The deletion is the one ``reach_tar`` applies after vacating a module
    from both sides: ``_drop`` of the module's vertices outside its alpha
    witness.
    """
    pm = _module_mask(g, module)
    smask = g._mask(s)
    tmask = g._mask(t)
    if not g._independent(smask) or not g._independent(tmask):
        raise InputError("both sets must be independent")
    if (smask | tmask) & pm:
        raise InputError("both sets must avoid the module")
    return _drop(g, pm & ~g._mask(alpha(g._derive(pm)).witness))


# -- twin-class reachability ----------------------------------------------------


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
        out = _class_search(g, k, g._mask(s), g._mask(t))
        return None if out is None else out[1]

    tm = g._mask(target)
    es = _empty_module_rope(g, s, tm, k)
    et = _empty_module_rope(g, t, tm, k)
    if (es is None) != (et is None):
        return None
    if es is not None:
        s2, rs = es
        t2, rt = et
        sub = _reach_nd(_drop(g, tm & (tm - 1)), k, s2, t2)  # keeps the lowest member
        if sub is None:
            return None
        return MoveRope.cat(MoveRope.cat(rs, sub), MoveRope.rev(rt))
    # neither side can vacate a clique: the single token inside is pinned
    if s & target != t & target:
        return None
    return _reach_nd(_drop(g, tm | _fence(g, tm)), k - 1, s - target, t - target)


def reach_nd(g: Graph, k: int, s, t) -> ReachAnswer:
    """TAR(k) reachability, exponential only in the twin-class count."""
    s, t = _validated_pair(g, k, s, t)
    rope = _reach_nd(g, k, s, t)
    return ReachAnswer(rope is not None, Rule.tar(k), s, rope)


# -- the general TAR decision ---------------------------------------------------


def _validated_pair(g: Graph, k: int, s, t) -> tuple[frozenset[int], frozenset[int]]:
    s = frozenset(s)
    t = frozenset(t)
    if k < 0:
        raise InputError("the floor k must be non-negative")
    if not g.is_independent(s) or not g.is_independent(t):
        raise InputError("both sets must be independent")
    if min(len(s), len(t)) < k:
        raise InputError("both sets must have at least k tokens")
    return s, t


def _reach_tar(g: Graph, k: int, s: frozenset[int], t: frozenset[int]) -> MoveRope | None:
    if k <= 0:
        return _trivial_rope(s, t)
    if s == t:
        return EMPTY

    comp_masks = g._component_masks()
    if len(comp_masks) == 1:
        _, part_masks = _root_child_masks(g)
        pm = next((pm for pm in part_masks if not g._independent(pm)), None)
        if pm is None:
            return _reach_nd(g, k, s, t)
        es = _empty_module_rope(g, s, pm, k)
        et = _empty_module_rope(g, t, pm, k)
        if (es is None) != (et is None):
            return None
        if es is not None:
            s2, rs = es
            t2, rt = et
            g2 = _drop(g, pm & ~_alpha_mask(g._derive(pm))[1])
            if g2.n >= g.n:
                raise InternalError("module reduction failed to shrink the graph")
            sub = _reach_tar(g2, k, s2, t2)
            if sub is None:
                return None
            return MoveRope.cat(MoveRope.cat(rs, sub), MoveRope.rev(rt))
        g2 = _drop(g, _fence(g, pm))
        if g2.n >= g.n:
            raise InternalError("connected graph had a module with no neighborhood")
        return _reach_tar(g2, k, s, t)

    # disconnected: normalize both sides to largest reachable sets, then
    # token counts per component are conserved and components separate
    ls = lambda_single(g, s, k)
    lt = lambda_single(g, t, k)
    if ls.size != lt.size:
        return None
    s2 = g._mask(ls.reached)
    t2 = g._mask(lt.reached)
    ropes = []
    for cm in comp_masks:
        sc = (s2 & cm).bit_count()
        if sc != (t2 & cm).bit_count():
            return None
        sub = _reach_tar(g._derive(cm), k - (ls.size - sc),
                         g._idset(s2 & cm), g._idset(t2 & cm))
        if sub is None:
            return None
        ropes.append(sub)
    rope = ls._rope
    for sub in ropes:
        rope = MoveRope.cat(rope, sub)
    return MoveRope.cat(rope, MoveRope.rev(lt._rope))


def reach_tar(g: Graph, k: int, s, t) -> ReachAnswer:
    """Decide TAR(k) reachability; yes answers carry a witness sequence."""
    reserve_stack(g.n)
    s, t = _validated_pair(g, k, s, t)
    rope = _reach_tar(g, k, s, t)
    return ReachAnswer(rope is not None, Rule.tar(k), s, rope)


def reach_tj(g: Graph, s, t) -> ReachAnswer:
    """Decide TJ reachability via the TAR floor |s| - 1.

    The certificate is returned under that TAR rule; equal decisions are
    guaranteed, equal step shapes are not.
    """
    reserve_stack(g.n)
    s = frozenset(s)
    t = frozenset(t)
    if not g.is_independent(s) or not g.is_independent(t):
        raise InputError("both sets must be independent")
    k = tj_threshold(s)
    if len(s) != len(t):
        return ReachAnswer(False, Rule.tar(k), s, None)
    if s == t:
        return ReachAnswer(True, Rule.tar(k), s, EMPTY)
    rope = _reach_tar(g, k, s, t)
    return ReachAnswer(rope is not None, Rule.tar(k), s, rope)
