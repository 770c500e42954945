"""Reachability under token sliding.

Sliding confines tokens to their components, and a module holding two or
more tokens pins its whole neighborhood, so instances collapse quickly:
after the big-module rule every module meets each side at most once, each
module shrinks to a single representative, and the residual question is a
search over fixed-size independent sets of the quotient, with one extra
vacancy condition per module that swapped tokens across its components.
Decision only; the reductions rewrite the target set, so the quotient path
is not a certificate for the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import _drop, _fence, _module_mask, top_partition
from .errors import InputError
from .graph import Graph, bits, reserve_stack


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
    module = frozenset(module)
    fence = _fence(g, _module_mask(g, module))
    if len(s & module) < 2:
        raise InputError("the module must hold at least two source tokens")
    if t & g._idset(fence):
        return None
    return _drop(g, fence), s, t


def ts_shrink(g: Graph, s, t, module) -> tuple[Graph, frozenset[int], frozenset[int], bool]:
    """Shrink a module meeting each side at most once down to one vertex.

    When the two sides hold different vertices of the module, the target
    token is rerouted onto the source vertex first; if those vertices sit
    in different components of the module, the caller must additionally
    check that some reachable set vacates the module (flag in the result).
    """
    s = frozenset(s)
    t = frozenset(t)
    module = frozenset(module)
    _module_mask(g, module)  # raises unless the set is a module
    if len(s) != len(t):
        raise InputError("both sides must hold the same number of tokens")
    if len(s & module) > 1 or len(t & module) > 1:
        raise InputError("the module may hold at most one token per side")
    used_vacancy = False
    a = s & module
    b = t & module
    if a and b and a != b:
        u, = a
        v, = b
        comp_of_u = next(c for c in g.induced_subgraph(module).components() if u in c)
        used_vacancy = v not in comp_of_u
        t = (t - {v}) | {u}
        g = _drop(g, g._mask(b))
        module = module - {v}
    keep_pool = module & (s | t)
    keep = min(keep_pool) if keep_pool else min(module)
    return _drop(g, g._mask(module - {keep})), s, t, used_vacancy


def ts_aux_decide(red: TsReduction) -> bool:
    """Search fixed-size independent sets of the reduced graph by slides.

    Accept iff the target is reachable and, for every vacancy
    representative, some reachable set avoids it.
    """
    h = red.h
    if len(red.start) != len(red.target):
        raise InputError("reduced sides must have equal size")
    smask = h._mask(red.start)
    tmask = h._mask(red.target)
    vac = {h._pos[v]: False for v in red.vacancies}
    adj = h._adj
    live = h._vmask

    def note(state: int) -> None:
        for p in vac:
            if not vac[p] and not state & (1 << p):
                vac[p] = True

    seen = {smask}
    note(smask)
    queue = [smask]
    head = 0
    found = smask == tmask
    while head < len(queue):
        if found and all(vac.values()):
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
                    note(nxt)
                    queue.append(nxt)
                    if nxt == tmask:
                        found = True
    return found and all(vac.values())


def reach_ts(g: Graph, s, t) -> bool:
    """Decide whether two independent sets are connected by token slides."""
    reserve_stack(g.n)
    s = frozenset(s)
    t = frozenset(t)
    if not g.is_independent(s) or not g.is_independent(t):
        raise InputError("both sets must be independent")
    return _reach_ts(g, s, t)


def _reach_ts(g: Graph, s: frozenset[int], t: frozenset[int]) -> bool:
    if len(s) != len(t):
        return False
    if s == t:
        return True

    comp_masks = g._component_masks()
    if len(comp_masks) > 1:
        smask = g._mask(s)
        tmask = g._mask(t)
        return all(_reach_ts(g._derive(cm), g._idset(smask & cm), g._idset(tmask & cm))
                   for cm in comp_masks)

    parts = top_partition(g)
    for part in parts:
        if len(s & part) >= 2:
            step = ts_big_module(g, s, t, part)
            if step is None:
                return False
            return _reach_ts(step[0], step[1], step[2])
    if any(len(t & part) >= 2 for part in parts):
        # symmetric two-token bound: no set reachable from s re-crowds a module
        return False

    vacancies: list[int] = []
    for part in parts:
        if len(part) == 1:
            continue
        g, s, t, used_vacancy = ts_shrink(g, s, t, part)
        if used_vacancy:
            survivor, = part & g.vertices
            vacancies.append(survivor)
    return ts_aux_decide(TsReduction(g, s, t, tuple(vacancies)))
