"""Reachability under token sliding.

Sliding confines tokens to their components, and a module holding two or
more tokens pins its whole neighborhood, so instances collapse quickly:
after the big-module rule every module meets each side at most once, each
module shrinks to a single representative, and the residual question is a
search over fixed-size independent sets of the quotient, with one extra
vacancy condition per module that swapped tokens across its components.
Decision only; the reductions rewrite the target set, so the quotient path
is not a certificate for the input graph.

The solver works on position masks over the root's child modules and
component masks; the public lemma functions check and convert their
input, then run the same mask cores.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import _drop, _fence, _module_mask, _root_child_masks
from .errors import InputError
from .graph import Graph, bits, reserve_stack
from .tar_reach import _pair_masks


@dataclass(frozen=True)
class TsReduction:
    """A fully shrunk instance: every module is one representative vertex.

    ``vacancies`` lists the representatives of modules whose target token
    had to cross between module components; each needs some reachable set
    that avoids it.
    """

    h: Graph
    start: frozenset[int]
    target: frozenset[int]
    vacancies: tuple[int, ...]


def ts_big_module(g: Graph, s, t, module) -> tuple[Graph, frozenset[int], frozenset[int]] | None:
    """Apply the two-token rule: None means unreachable, else the instance
    shrinks to the module's non-neighborhood."""
    s = frozenset(s)
    t = frozenset(t)
    pm = _module_mask(g, module)
    if (g._mask(s) & pm).bit_count() < 2:
        raise InputError("the module must hold at least two source tokens")
    h = _big_module(g, g._mask(t), pm)
    return None if h is None else (h, s, t)


def _big_module(g: Graph, t: int, module: int) -> Graph | None:
    """The two-token rule on masks: None if ``t`` meets the fence, else ``g`` without it."""
    fence = _fence(g, module)
    return None if t & fence else _drop(g, fence)


def ts_shrink(g: Graph, s, t, module) -> tuple[Graph, frozenset[int], frozenset[int], bool]:
    """Shrink a module meeting each side at most once down to one vertex.

    When the two sides hold different vertices of the module, the target
    token is rerouted onto the source vertex first; if those vertices sit
    in different components of the module, the caller must additionally
    check that some reachable set vacates the module (flag in the result).
    """
    s = frozenset(s)
    pm = _module_mask(g, module)
    smask, tmask = g._mask(s), g._mask(t)
    if smask.bit_count() != tmask.bit_count():
        raise InputError("both sides must hold the same number of tokens")
    if (smask & pm).bit_count() > 1 or (tmask & pm).bit_count() > 1:
        raise InputError("the module may hold at most one token per side")
    h, tmask, used_vacancy = _shrink(g, smask, tmask, pm)
    return h, s, g._idset(tmask), used_vacancy


def _shrink(g: Graph, s: int, t: int, module: int) -> tuple[Graph, int, bool]:
    """``ts_shrink`` on masks: the shrunk graph, the rerouted target and the vacancy flag."""
    a, b = s & module, t & module
    used_vacancy = False
    if a and b and a != b:
        comp = next(c for c in g._derive(module)._component_masks() if c & a)
        used_vacancy = not comp & b
        t ^= a | b
    keep = module & (s | t) or module
    return _drop(g, module & ~(keep & -keep)), t, used_vacancy


def ts_aux_decide(red: TsReduction) -> bool:
    """Search fixed-size independent sets of the reduced graph by slides.

    Accept iff the target is reachable and, for every vacancy
    representative, some reachable set avoids it.
    """
    h = red.h
    if len(red.start) != len(red.target):
        raise InputError("reduced sides must have equal size")
    return _aux_decide(h, h._mask(red.start), h._mask(red.target), h._mask(red.vacancies))


def _aux_decide(h: Graph, smask: int, tmask: int, vacancies: int) -> bool:
    """``ts_aux_decide`` on masks; ``vacancies`` is the mask of representatives."""
    adj = h._adj
    live = h._vmask
    unvacated = vacancies & smask   # representatives every set seen so far holds
    seen = {smask}
    queue = [smask]
    head = 0
    found = smask == tmask
    while head < len(queue):
        if found and not unvacated:
            return True
        state = queue[head]
        head += 1
        for p in bits(state):
            rest = state & ~(1 << p)
            for q in bits(adj[p] & live & ~state):
                if adj[q] & rest:
                    continue
                nxt = rest | (1 << q)
                if nxt not in seen:
                    seen.add(nxt)
                    unvacated &= nxt
                    queue.append(nxt)
                    if nxt == tmask:
                        found = True
    return found and not unvacated


def reach_ts(g: Graph, s, t) -> bool:
    """Decide whether two independent sets are connected by token slides."""
    reserve_stack(g.n)
    return _reach_ts(g, *_pair_masks(g, s, t))


def _reach_ts(g: Graph, s: int, t: int) -> bool:
    if s.bit_count() != t.bit_count():
        return False
    if s == t:
        return True

    comp_masks = g._component_masks()
    if len(comp_masks) > 1:
        return all(_reach_ts(g._derive(cm), s & cm, t & cm) for cm in comp_masks)

    _, parts = _root_child_masks(g)
    for pm in parts:
        if (s & pm).bit_count() >= 2:
            h = _big_module(g, t, pm)
            return h is not None and _reach_ts(h, s, t)
    if any((t & pm).bit_count() >= 2 for pm in parts):
        # symmetric two-token bound: no set reachable from s re-crowds a module
        return False

    vacancies = 0
    for pm in parts:
        if pm & (pm - 1):
            g, t, used_vacancy = _shrink(g, s, t, pm)
            if used_vacancy:
                vacancies |= pm & g._vmask
    return _aux_decide(g, s, t, vacancies)
