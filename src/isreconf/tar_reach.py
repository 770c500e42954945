"""Reachability between independent sets under TAR and TJ.

Connected graphs are simplified one module at a time: either both sides
can vacate a module with internal edges (then the module shrinks to a
maximum independent set), or neither can (then the module's entire
neighborhood is unusable and is dropped).  Disconnected graphs normalize
both sides to their largest reachable sets and split into components.
Every yes answer carries a replayable witness sequence.

The solvers take and return position masks and call the engine and
class-search cores directly; vertex-ID sets appear only in the public
functions.  The decision is a generator recursion on the one trampoline,
``decomposition._run``, so no depth of decomposition nests Python frames.
"""

from __future__ import annotations

from typing import Generator

from .decomposition import (_clique_class, _drop, _fence, _module_mask, _root_child_masks,
                            _run, _twin_masks)
from .errors import InputError, InternalError
from .graph import Graph
from .mis import _alpha_mask, alpha  # alpha unused here: perfbench tests tar_reach.alpha
from .moveseq import EMPTY, MoveRope, adds, removes
from .rules import ReconfSequence, Rule, tj_threshold
from .tar_engine import _class_search, _fill, _seed_mask


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


def _empty_module_rope(g: Graph, seed: int, module: int, k: int,
                       memo: dict) -> tuple[int, MoveRope] | None:
    """Vacate a module: the largest set reachable without its fence, minus the module.

    The table entry is read from ``memo``, the reach call's table store, so
    the disconnected normalisation that follows a fence deletion reads it
    instead of filling it again.
    """
    if not seed & module:
        return seed, EMPTY
    h = g._derive(g._vmask & ~_fence(g, module))
    reached, rope = _run(_fill(memo, False, h, seed, k))
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
    if k < 0 or len(seed) < k:
        raise InputError(f"floor {k} outside [0, {len(seed)}]")
    out = _empty_module_rope(g, smask, pm, k, {})
    if out is None:
        return None
    final, rope = out
    return g._idset(final), ReconfSequence(Rule.tar(k), seed, rope.flatten())


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
    return _drop(g, pm & ~_alpha_mask(g._derive(pm))[1])


# -- twin-class reachability ----------------------------------------------------


def _reach_nd(g: Graph, k: int, s: int, t: int) -> MoveRope | None:
    return _reach_tar(g, k, s, t, classes=True)


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


def _reach_tar(g: Graph, k: int, s: int, t: int, classes: bool = False) -> MoveRope | None:
    """The TAR decision; ``classes`` runs ``reach_nd``'s twin-class mode."""
    return _run(_tar(g, k, s, t, classes, {}))


def _tar(g: Graph, k: int, s: int, t: int, classes: bool, memo: dict) -> Generator:
    """The TAR decision as a recursion on ``_run``: a rope from ``s`` to ``t``, or None.

    A module step fails or wraps a smaller instance's rope between its own
    prefix and ``rev(rt)``.  Components are decided in order, each after a
    check of its token counts.  The call's tables share one store, ``memo``,
    keyed by vertex mask and seed: the normalisation after a fence deletion
    reads the entry that the vacating attempt filled on that vertex set,
    and each entry of any module's table is filled once.
    """
    if k <= 0:  # no effective floor: tear down one side and build the other
        return MoveRope.cat(removes(g._ids(s & ~t)), adds(g._ids(t & ~s)))
    if s == t:
        return EMPTY

    if classes:
        pm = next((m for m in _twin_masks(g) if _clique_class(g, m)), None)
        if pm is None:
            out = _class_search(g, k, s, t)
            return None if out is None else out[1]
    else:
        kind, part_masks = _root_child_masks(g)
        if kind == "parallel":
            # normalized to largest reachable sets, components keep their token counts
            s2, rs = yield _fill(memo, False, g, s, k)
            t2, rt = yield _fill(memo, False, g, t, k)
            size = s2.bit_count()
            if size != t2.bit_count():
                return None
            rope = rs
            for cm in part_masks:
                sc, tc = s2 & cm, t2 & cm
                if sc.bit_count() != tc.bit_count():
                    return None
                sub = yield _tar(g._derive(cm), k - (size - sc.bit_count()), sc, tc, False, memo)
                if sub is None:
                    return None
                rope = MoveRope.cat(rope, sub)
            return MoveRope.cat(rope, MoveRope.rev(rt))
        pm = next((pm for pm in part_masks if not g._independent(pm)), None)
        if pm is None:
            return (yield _tar(g, k, s, t, True, memo))

    es = _empty_module_rope(g, s, pm, k, memo)
    et = _empty_module_rope(g, t, pm, k, memo)
    if (es is None) != (et is None):
        return None
    rs = rt = EMPTY
    if es is not None:
        # both sides vacate the module: shrink it to a maximum independent set
        (s2, rs), (t2, rt) = es, et
        dead = pm & (pm - 1) if classes else pm & ~_alpha_mask(g._derive(pm))[1]
    elif classes:
        # neither side can vacate a clique: the single token inside is pinned
        if s & pm != t & pm:
            return None
        dead = pm | _fence(g, pm)
        s2, t2 = s & ~pm, t & ~pm
        k -= 1
    else:
        # neither side can vacate the module: its neighbourhood is unusable
        dead = _fence(g, pm)
        s2, t2 = s, t
    g2 = _drop(g, dead)
    if g2.n >= g.n:
        raise InternalError("a module step failed to shrink the graph")
    sub = yield _tar(g2, k, s2, t2, classes, memo)
    return None if sub is None else MoveRope.cat(MoveRope.cat(rs, sub), MoveRope.rev(rt))


def reach_tar(g: Graph, k: int, s, t) -> ReachAnswer:
    """Decide TAR(k) reachability; yes answers carry a witness sequence."""
    s, smask, tmask = _validated_pair(g, k, s, t)
    rope = _reach_tar(g, k, smask, tmask)
    return ReachAnswer(rope is not None, Rule.tar(k), s, rope)


def reach_tj(g: Graph, s, t) -> ReachAnswer:
    """Decide TJ reachability via the TAR floor |s| - 1.

    The certificate is returned under that TAR rule; equal decisions are
    guaranteed, equal step shapes are not.
    """
    s = frozenset(s)
    smask, tmask = _pair_masks(g, s, t)
    k = tj_threshold(s)
    if len(s) != tmask.bit_count():
        return ReachAnswer(False, Rule.tar(k), s, None)
    rope = _reach_tar(g, k, smask, tmask)
    return ReachAnswer(rope is not None, Rule.tar(k), s, rope)
