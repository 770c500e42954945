"""Reachability between independent sets under TAR and TJ.

Connected graphs are simplified one module at a time: either both sides
can vacate a module with internal edges (then the module shrinks to a
maximum independent set), or neither can (then the module's entire
neighborhood is unusable and is dropped).  Disconnected graphs normalize
both sides to their largest reachable sets and recurse per component.
Every yes answer carries a replayable witness sequence.

The solvers take and return position masks and call the engine and
class-search cores directly; vertex-ID sets appear only in the public
functions.
"""

from __future__ import annotations

from .decomposition import (_clique_class, _drop, _fence, _module_mask, _root_child_masks,
                            _twin_masks)
from .errors import InputError, InternalError
from .graph import Graph, reserve_stack
from .mis import _alpha_mask, alpha
from .moveseq import EMPTY, MoveRope, adds, removes
from .rules import ReconfSequence, Rule, tj_threshold
from .tar_engine import _class_search, _make_solver, _seed_mask


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


def _trivial_rope(g: Graph, s: int, t: int) -> MoveRope:
    # with no effective floor, tear down one side and build the other
    return MoveRope.cat(removes(g._ids(s & ~t)), adds(g._ids(t & ~s)))


def _empty_module_rope(g: Graph, seed: int, module: int,
                       k: int) -> tuple[int, MoveRope] | None:
    if not seed & module:
        return seed, EMPTY
    reached, rope = _make_solver(g._derive(g._vmask & ~_fence(g, module)), seed)(max(k, 0))
    if (reached & ~module).bit_count() < k:
        return None
    return reached & ~module, MoveRope.cat(rope, removes(g._ids(reached & module)))


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
    smask = _seed_mask(g, seed)
    if len(seed) < k:
        raise InputError("seed is below the floor")
    out = _empty_module_rope(g, smask, pm, k)
    if out is None:
        return None
    final, rope = out
    return g._idset(final), ReconfSequence(Rule.tar(max(k, 0)), seed, rope.flatten())


def reduce_empty_module(g: Graph, module, s, t) -> Graph:
    """Shrink a module both sides avoid down to a maximum independent set.

    The deletion is the one ``reach_tar`` applies after vacating a module
    from both sides: ``_drop`` of the module's vertices outside its alpha
    witness.
    """
    pm = _module_mask(g, module)
    smask, tmask = _pair_masks(g, s, t)
    if (smask | tmask) & pm:
        raise InputError("both sets must avoid the module")
    return _drop(g, pm & ~g._mask(alpha(g._derive(pm)).witness))


# -- twin-class reachability ----------------------------------------------------


def _reach_nd(g: Graph, k: int, s: int, t: int) -> MoveRope | None:
    if k <= 0:
        return _trivial_rope(g, s, t)
    if s == t:
        return EMPTY
    tm = next((m for m in _twin_masks(g) if _clique_class(g, m)), None)
    if tm is None:
        out = _class_search(g, k, s, t)
        return None if out is None else out[1]

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
    if s & tm != t & tm:
        return None
    return _reach_nd(_drop(g, tm | _fence(g, tm)), k - 1, s & ~tm, t & ~tm)


def reach_nd(g: Graph, k: int, s, t) -> ReachAnswer:
    """TAR(k) reachability, exponential only in the twin-class count."""
    s, smask, tmask = _validated_pair(g, k, s, t)
    rope = _reach_nd(g, k, smask, tmask)
    return ReachAnswer(rope is not None, Rule.tar(k), s, rope)


# -- the general TAR decision ---------------------------------------------------


def _pair_masks(g: Graph, s, t) -> tuple[int, int]:
    """Position masks of a caller's two sides; InputError unless both are independent."""
    smask, tmask = g._mask(s), g._mask(t)
    if not g._independent(smask) or not g._independent(tmask):
        raise InputError("both sets must be independent")
    return smask, tmask


def _validated_pair(g: Graph, k: int, s, t) -> tuple[frozenset[int], int, int]:
    s = frozenset(s)
    if k < 0:
        raise InputError("the floor k must be non-negative")
    smask, tmask = _pair_masks(g, s, t)
    if min(smask.bit_count(), tmask.bit_count()) < k:
        raise InputError("both sets must have at least k tokens")
    return s, smask, tmask


def _reach_tar(g: Graph, k: int, s: int, t: int) -> MoveRope | None:
    if k <= 0:
        return _trivial_rope(g, s, t)
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
    s2, rs = _make_solver(g, s)(k)
    t2, rt = _make_solver(g, t)(k)
    size = s2.bit_count()
    if size != t2.bit_count():
        return None
    rope = rs
    for cm in comp_masks:
        sc = (s2 & cm).bit_count()
        if sc != (t2 & cm).bit_count():
            return None
        sub = _reach_tar(g._derive(cm), k - (size - sc), s2 & cm, t2 & cm)
        if sub is None:
            return None
        rope = MoveRope.cat(rope, sub)
    return MoveRope.cat(rope, MoveRope.rev(rt))


def reach_tar(g: Graph, k: int, s, t) -> ReachAnswer:
    """Decide TAR(k) reachability; yes answers carry a witness sequence."""
    reserve_stack(g.n)
    s, smask, tmask = _validated_pair(g, k, s, t)
    rope = _reach_tar(g, k, smask, tmask)
    return ReachAnswer(rope is not None, Rule.tar(k), s, rope)


def reach_tj(g: Graph, s, t) -> ReachAnswer:
    """Decide TJ reachability via the TAR floor |s| - 1.

    The certificate is returned under that TAR rule; equal decisions are
    guaranteed, equal step shapes are not.
    """
    reserve_stack(g.n)
    s = frozenset(s)
    smask, tmask = _pair_masks(g, s, t)
    k = tj_threshold(s)
    if len(s) != tmask.bit_count():
        return ReachAnswer(False, Rule.tar(k), s, None)
    rope = _reach_tar(g, k, smask, tmask)
    return ReachAnswer(rope is not None, Rule.tar(k), s, rope)
