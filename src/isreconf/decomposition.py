"""Modular decomposition, modular-width, and twin-class partitions.

The decomposition here is the straightforward polynomial one: components
and co-components handle degenerate levels, and for a connected,
co-connected graph the maximal proper modules are recovered by partition
refinement plus splitter closure.  Deliberately not the linear-time
algorithm; desk-scale inputs tolerate a near-cubic bound and the simple
version is easy to validate against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import stats
from .errors import InputError, InternalError
from .graph import Graph, bits, reserve_stack


@dataclass(frozen=True)
class MDNode:
    """One node of a modular decomposition tree."""

    kind: str                      # "leaf" | "parallel" | "series" | "prime"
    span: frozenset[int]
    children: tuple["MDNode", ...] = ()
    vertex: int | None = None      # set for leaves only

    def leaf_count(self) -> int:
        if self.kind == "leaf":
            return 1
        return sum(c.leaf_count() for c in self.children)


@dataclass(frozen=True)
class TwinClass:
    """A twin class; induces a clique or an edgeless graph."""

    members: frozenset[int]
    kind: str                      # "clique" | "independent"


def is_module(g: Graph, module: frozenset[int] | set[int]) -> bool:
    """True iff every member has the same neighbors outside the set."""
    m = g._mask(module)
    if m == 0:
        raise InputError("a module must be nonempty")
    return _is_module_mask(g, m)


def _module_mask(g: Graph, module) -> int:
    """Position mask of a caller's module; InputError unless it is one."""
    if not is_module(g, module):
        raise InputError("given set is not a module")
    return g._mask(module)


def _is_module_mask(g: Graph, m: int) -> bool:
    adj = g._adj
    outside = _fence(g, m)
    return all(adj[p] & ~m == outside for p in bits(m))


def _fence(g: Graph, module: int) -> int:
    """Outside neighbourhood of a module mask: one member's, as all members share it."""
    return g._adj[(module & -module).bit_length() - 1] & ~module


def _drop(h: Graph, dead: int) -> Graph:
    """The module-shrink core: ``h`` without the position mask ``dead``.

    Every lemma deletion (a module shrunk to a maximum independent set or
    to its tokens, a module's fence dropped) runs through here and adds to
    the ``nodes_deleted`` counter.
    """
    if not dead:
        return h
    stats.inc("nodes_deleted", dead.bit_count())
    return h._derive(h._vmask & ~dead)


def _min_module(g: Graph, seed: int) -> int:
    """Smallest module containing the seed mask (computed by splitter closure).

    A vertex outside the working set W splits W if it has both a neighbor
    and a non-neighbor inside; the closure adds all splitters until none
    remain.  Tracked incrementally: X collects vertices seeing a member,
    Y collects vertices missing a member.
    """
    live = g._vmask
    adj = g._adj
    w = seed
    x = 0
    y = 0
    pending = seed
    while True:
        for p in bits(pending):
            x |= adj[p]
            y |= live & ~adj[p] & ~(1 << p)
        splitters = x & y & live & ~w
        if not splitters:
            return w
        w |= splitters
        pending = splitters


def _prime_child_masks(g: Graph) -> list[int]:
    """Maximal proper modules of a connected, co-connected graph.

    Refining {v, N(v), rest} by every vertex as pivot yields exactly the
    maximal modules avoiding v; the one containing v is the union of the
    fragments whose closure with v stays proper.
    """
    live = g._vmask
    adj = g._adj
    vbit = live & -live
    vpos = vbit.bit_length() - 1
    parts = [vbit]
    nv = adj[vpos]
    rest = live & ~nv & ~vbit
    if nv:
        parts.append(nv)
    if rest:
        parts.append(rest)
    # worklist refinement: a pivot never splits its own part, so when a part
    # splits, its members regain splitting power and must be re-processed
    queue = list(bits(live))
    queued = live
    while queue:
        p = queue.pop()
        queued &= ~(1 << p)
        nb = adj[p]
        pb = 1 << p
        nxt = []
        for part in parts:
            if part & pb:
                nxt.append(part)
                continue
            inside = part & nb
            if inside and inside != part:
                nxt.append(inside)
                nxt.append(part & ~inside)
                revive = part & ~queued
                for q in bits(revive):
                    queue.append(q)
                queued |= revive
            else:
                nxt.append(part)
        parts = nxt

    home = vbit
    others = []
    for part in parts:
        if part == vbit:
            continue
        if _min_module(g, vbit | part) != live:
            home |= part
        else:
            others.append(part)
    children = [home] + others
    children.sort(key=lambda m: (m & -m))
    total = 0
    for c in children:
        if not _is_module_mask(g, c):
            raise InternalError("prime split produced a non-module part")
        total |= c
    if total != live or len(children) < 2:
        raise InternalError("prime split is not a partition")
    return children


def _root_child_masks(g: Graph) -> tuple[str, list[int]]:
    """Kind and child masks of the decomposition root; needs n >= 2."""
    cached = g._memo.get("root")
    if cached is not None:
        return cached
    comps = g._component_masks()
    if len(comps) > 1:
        result = ("parallel", comps)
    else:
        cocomps = g._co_component_masks()
        if len(cocomps) > 1:
            result = ("series", cocomps)
        else:
            result = ("prime", _prime_child_masks(g))
    g._memo["root"] = result
    return result


def quotient_adjacency(g: Graph, masks: list[int]) -> list[int]:
    """Bit j of row i is set iff module i sees module j; modules are disjoint.

    A module sees all or nothing of another, so one member decides a row.
    """
    qadj = []
    for i, mi in enumerate(masks):
        row = g._adj[(mi & -mi).bit_length() - 1]
        qadj.append(sum(1 << j for j, mj in enumerate(masks) if i != j and row & mj))
    return qadj


def md_tree(g: Graph) -> MDNode:
    """Modular decomposition tree of a nonempty graph."""
    if g.n == 0:
        raise InputError("modular decomposition needs a nonempty graph")
    reserve_stack(g.n)
    cached = g._memo.get("mdtree")
    if cached is not None:
        return cached
    if g.n == 1:
        v = g.ids[0]
        node = MDNode("leaf", frozenset((v,)), vertex=v)
    else:
        kind, masks = _root_child_masks(g)
        children = tuple(md_tree(g._derive(m)) for m in masks)
        node = MDNode(kind, g.vertices, children)
    g._memo["mdtree"] = node
    return node


def top_partition(g: Graph) -> list[frozenset[int]]:
    """Non-trivial partition of V into modules: the root's children.

    Prime roots give the maximal modular partition; parallel and series
    roots contribute their components and co-components.  Parts are
    ordered by smallest member ID.
    """
    if g.n < 2:
        raise InputError("top_partition needs at least two vertices")
    _, masks = _root_child_masks(g)
    return [g._idset(m) for m in masks]


def modular_width(g: Graph) -> int:
    """Minimum width of a recursive module-partition scheme for g.

    Equals the maximum child count over prime nodes of the decomposition
    tree; any graph with at least two vertices needs width 2 even when
    cograph operations suffice.  The tree is walked by a worklist over
    the module subgraphs, without building ``MDNode`` values.
    """
    if g.n == 0:
        raise InputError("modular width of the empty graph is undefined")
    cached = g._memo.get("mw")
    if cached is not None:
        return cached
    width = 1 if g.n == 1 else 2
    todo = [g] if g.n >= 2 else []
    while todo:
        h = todo.pop()
        kind, masks = _root_child_masks(h)
        if kind == "prime":
            width = max(width, len(masks))
        todo.extend(h._derive(m) for m in masks if m & (m - 1))
    g._memo["mw"] = width
    return width


def nd_partition(g: Graph) -> list[TwinClass]:
    """Twin classes of g, each flagged clique or independent.

    Two vertices are twins when their neighborhoods agree outside the
    pair; the classes are the finest partition merging both false twins
    (equal open neighborhoods) and true twins (equal closed ones).  The
    class count is the neighborhood diversity of g.
    """
    if g.n == 0:
        raise InputError("twin partition needs a nonempty graph")
    return [TwinClass(g._idset(m), "clique" if _clique_class(g, m) else "independent")
            for m in _twin_masks(g)]


def _twin_masks(g: Graph) -> list[int]:
    """Twin classes of g as position masks, ordered by lowest member; memoised.

    A vertex with a false twin has no true twin (a true twin of u would be
    a neighbour of u's false twin v, so v would be adjacent to u), so the
    classes are the groups of equal open neighbourhoods and of equal
    closed neighbourhoods with two or more members, plus singletons.
    """
    cached = g._memo.get("nd")
    if cached is None:
        adj = g._adj
        open_groups: dict[int, int] = {}
        closed_groups: dict[int, int] = {}
        for p in bits(g._vmask):
            open_groups[adj[p]] = open_groups.get(adj[p], 0) | 1 << p
            key = adj[p] | 1 << p
            closed_groups[key] = closed_groups.get(key, 0) | 1 << p
        cached = [m for groups in (open_groups, closed_groups)
                  for m in groups.values() if m & (m - 1)]
        cached += [1 << p for p in bits(g._vmask & ~sum(cached))]
        cached.sort(key=lambda m: m & -m)
        g._memo["nd"] = cached
    return cached


def _clique_class(g: Graph, m: int) -> bool:
    """True iff the twin class ``m`` has two or more pairwise adjacent members."""
    return bool(g._adj[(m & -m).bit_length() - 1] & m)
