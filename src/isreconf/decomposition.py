"""Modular decomposition, modular-width, and twin-class partitions.

The decomposition here is the straightforward polynomial one: components
and co-components handle degenerate levels, and a connected, co-connected
graph is split by partition refinement from a vertex v into the maximal
modules avoiding v.  They form a modular partition, so the children are
found on its quotient, one vertex per part: a union of parts is a module of
the graph iff it is one of the quotient (Habib and Paul, Comput. Sci. Rev.
2010), the quotient by the maximal modules avoiding v of Ehrenfeucht,
Gabow, McConnell and Sullivan (J. Algorithms 1994).  Three facts decide it:

1. Every quotient module with two or more vertices holds v, because each
   part is a maximal module avoiding v.
2. The modules through v form a chain, because the symmetric difference of
   two overlapping modules is a module: for two through v that do not nest,
   it avoids v and has two or more vertices.  So for a module W through v,
   the closure of W | {i} equals that of {v, i}, and v with the parts whose
   closure with v is proper makes up v's home, the one child through v.
3. Let a -> b when b sees exactly one of v and a: the closure of {v, a} is
   v plus all that a reaches.  So for a part j whose closure with v is
   whole, the parts whose closure with v is whole are exactly those that
   reach j.

Deliberately not the linear-time algorithm, and easy to validate against
brute force: each part the refinement pops costs one pass over its members'
rows, and a part is popped once per cut above it, so a prime node of order
n costs at most O(n^2) row operations; the home is found from O(r) rows of
the quotient of order r.

Degenerate levels are split from degree buckets, which each child module
keeps under its own offset, as its members share their outside neighbours.
A level peels its isolated (or universal) vertices, and the rest is one
component (co-component) when a member of it sees all (none) of it: O(vertices
peeled) big-int operations, not a flood of one row per vertex of the level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable

from . import stats
from .errors import InputError, InternalError
from .graph import Graph, _flood, bits


@dataclass(frozen=True, repr=False, eq=False)
class MDNode:
    """One node of a modular decomposition tree.

    The module is a position mask over the root graph's shared ID tuple, so
    a tree of depth d over n vertices holds O(n) IDs, not O(n·d).  Equality
    and hashing read the kind, children and leaf vertex, walking the tree
    without recursion.  A node holds no ``Graph``.
    """

    kind: str                      # "leaf" | "parallel" | "series" | "prime"
    mask: int
    uid: tuple[int, ...]           # root position -> vertex ID
    children: tuple["MDNode", ...] = ()
    vertex: int | None = None      # set for leaves only

    @property
    def span(self) -> frozenset[int]:
        """The module's vertex IDs, built on each read."""
        uid = self.uid
        return frozenset(uid[p] for p in bits(self.mask))

    def leaf_count(self) -> int:
        return self.mask.bit_count()

    def _shape(self) -> tuple:
        """Kind, vertex and child count of each node, breadth-first: equal iff the trees are."""
        order = [self]
        for node in order:
            order += node.children
        return tuple((node.kind, node.vertex, len(node.children)) for node in order)

    def __eq__(self, other) -> bool:
        return self._shape() == other._shape() if other.__class__ is MDNode else NotImplemented

    def __hash__(self) -> int:
        return hash(self._shape())

    def __repr__(self) -> str:
        return f"MDNode({self.kind}, {self.leaf_count()} vertices, {len(self.children)} children)"


@dataclass(frozen=True)
class TwinClass:
    """A twin class; induces a clique or an edgeless graph."""

    members: frozenset[int]
    kind: str                      # "clique" | "independent"


def is_module(g: Graph, module: frozenset[int] | set[int]) -> bool:
    """True iff every member has the same neighbors outside the set."""
    return _is_module_mask(g, _nonempty_mask(g, module))


def _nonempty_mask(g: Graph, module) -> int:
    m = g._mask(module)
    if m == 0:
        raise InputError("a module must be nonempty")
    return m


def _module_mask(g: Graph, module) -> int:
    """Position mask of a caller's module; InputError unless it is one."""
    m = _nonempty_mask(g, module)
    if not _is_module_mask(g, m):
        raise InputError("given set is not a module")
    return m


def _is_module_mask(g: Graph, m: int) -> bool:
    return _min_module(g._adj, g._vmask, m) == m


def _fence(g: Graph, module: int) -> int:
    """Outside neighbourhood of a module mask: one member's, as all members share it."""
    return g._adj[(module & -module).bit_length() - 1] & g._vmask & ~module


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


def _min_module(adj: list[int], live: int, seed: int) -> int:
    """Smallest module containing the seed mask, by splitter closure over the
    rows ``adj`` (a graph's or a quotient's) restricted to ``live``.

    A vertex outside the working set W splits W if it has both a neighbor
    and a non-neighbor inside; the closure adds all splitters until none
    remain.  Tracked incrementally: X collects vertices seeing a member,
    Y keeps the vertices seeing every member, so X & ~Y holds the splitters.
    """
    w = pending = seed
    x = 0
    y = -1
    while True:
        for p in bits(pending):
            x |= adj[p]
            y &= adj[p]
        splitters = x & ~y & live & ~w
        if not splitters:
            return w
        w |= splitters
        pending = splitters


def _prime_child_masks(g: Graph) -> list[int]:
    """Maximal proper modules of a connected, co-connected graph.

    Starting from {v}, N(v) and the rest, any part that some outside vertex
    sees only in part is cut by that vertex's row until every part is a
    module.  No cut separates a module that avoids the cutting vertex, so
    the parts end as exactly the maximal modules avoiding v.  The rest is
    cut first, and the first part finished lies outside v's home H: the
    non-neighbours of v outside H see none of H, so a cut by a member of H
    keeps them all on the side cut next, and a cut by a neighbour of v
    outside H leaves only them there.  So one closure of v with that part
    goes whole, and the other children are the parts that reach it (fact 3
    of the module docstring).  Part b's in-arcs are read from its quotient
    row: its non-neighbours if b sees v, else its neighbours.

    Refinement stops only when no part has a splitter, so every part is a
    module, and the home is one iff its parts see the same parts outside
    it: an O(r) test on the quotient, the split's self-check.  The
    children's quotient, the home's parts merged into one vertex that sees
    what {v} sees outside the home, is left in g's memo under "quotient"
    for ``mis._alpha_prime``.
    """
    live = g._vmask
    adj = g._adj
    vbit = live & -live
    nv = adj[vbit.bit_length() - 1] & live
    # {v} is never cut, so parts[0] is quotient vertex 0
    parts = [vbit]
    todo = [m for m in (nv, live & ~nv & ~vbit) if m]
    while todo:
        part = todo.pop()
        splitters = 0
        if part & (part - 1):               # a single vertex is a module
            x = 0
            y = -1
            for p in bits(part):
                x |= adj[p]
                y &= adj[p]
            splitters = x & ~y & live & ~part
        if splitters:
            inside = part & adj[(splitters & -splitters).bit_length() - 1]
            todo += (inside, part & ~inside)
        else:
            parts.append(part)

    qadj = quotient_adjacency(g, parts)
    whole = (1 << len(parts)) - 1
    if _min_module(qadj, whole, 0b11) != whole:
        raise InternalError("prime split's first part is inside the home")
    # from part 1 along in-arcs, the first flood is the parts that reach it
    reach = _flood([~row if row & 1 else row for row in qadj], whole & ~1)[0]
    home = whole & ~reach
    if any(qadj[i] & reach != qadj[0] & reach for i in bits(home)):
        raise InternalError("prime split's home is not a module")
    # v has the lowest position, so the home comes first among the children
    outside = sorted(bits(reach), key=lambda i: parts[i] & -parts[i])
    child_bit = [1] * len(parts)            # the home's parts map to the home, child 0
    for c, i in enumerate(outside, 1):
        child_bit[i] = 1 << c
    g._memo["quotient"] = [_remap(row, child_bit)
                           for row in [qadj[0] & reach] + [qadj[i] for i in outside]]
    children = [sum(parts[i] for i in bits(home))] + [parts[i] for i in outside]
    if sum(children) != live:
        raise InternalError("prime split is not a partition")
    return children


def _root_child_masks(g: Graph) -> tuple[str, list[int]]:
    """Kind and child masks of the decomposition root; needs n >= 2."""
    cached = g._memo.get("root")
    if cached is not None:
        return cached
    live, adj = g._vmask, g._adj
    buckets, off = g._memo.pop("deg", None) or _degree_buckets(g)
    iso = buckets.get(off, 0) & live
    uni = 0 if iso else buckets.get(off + g.n - 1, 0) & live
    if iso or uni:
        rest = live & ~(iso | uni)
        whole = off + (rest.bit_count() - 1 if iso else uni.bit_count())
        parts = list(map((1).__lshift__, bits(iso | uni)))
        if rest and buckets.get(whole, 0) & rest:     # one (co-)component, by lowest member
            parts.insert(((iso | uni) & ((rest & -rest) - 1)).bit_count(), rest)
        elif rest:
            parts = sorted(parts + _flood(adj, rest, co=not iso), key=lambda m: m & -m)
        result = ("parallel" if iso else "series", parts)
    elif len(comps := _flood(adj, live)) > 1:
        result = ("parallel", comps)
    elif len(cocomps := _flood(adj, live, co=True)) > 1:
        result = ("series", cocomps)
    else:
        result = ("prime", _prime_child_masks(g))
    for c in result[1]:
        if c & (c - 1):
            seen = (adj[(c & -c).bit_length() - 1] & (live ^ c)).bit_count()  # same for all of c
            g._derive(c)._memo.setdefault("deg", (buckets, off + seen))
    g._memo["root"] = result
    return result


def _degree_buckets(g: Graph) -> tuple[dict[int, int], int]:
    """Key -> mask of the live vertices whose degree is the key minus the offset, and offset 0."""
    buckets: dict[int, int] = {}
    live, adj = g._vmask, g._adj
    for p in bits(live):
        d = (adj[p] & live).bit_count()
        buckets[d] = buckets.get(d, 0) | 1 << p
    return buckets, 0


def quotient_adjacency(g: Graph, masks: list[int]) -> list[int]:
    """Bit j of row i is set iff module i sees module j; modules are disjoint.

    A module sees all or nothing of another, so one member decides, both
    for the row and for the module seen: each lowest member's row is ANDed
    once with the lowest members of all, and the positions left map to
    the row's bits.
    """
    bit = {(m & -m).bit_length() - 1: 1 << i for i, m in enumerate(masks)}
    lowest = sum(m & -m for m in masks)
    return [_remap(g._adj[p] & lowest, bit) for p in bit]


def _remap(mask: int, bit) -> int:
    """The OR of ``bit[q]`` over the set bits q of ``mask``, read highest
    first, so a long mask shrinks as it is read."""
    out = 0
    while mask:
        q = mask.bit_length() - 1
        out |= bit[q]
        mask ^= 1 << q
    return out


def _run(gen: Generator):
    """Return the outer generator's value, where a generator calls another
    by ``value = yield child``: a recursion of any depth nests no frames.
    An exception leaves unchanged, and the suspended callers are dropped."""
    stack = [gen]
    value = None
    while True:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value


def _fold(g: Graph, key: str, leaf: Callable, node: Callable):
    """A value folded children first over g's decomposition tree, memoised under ``key``.

    Each module subgraph h with 2+ vertices whose memo lacks ``key`` gets
    ``node(h, kind, masks, values)``, where ``values`` are its children's
    values in ``masks`` order; a single vertex (or g itself when n <= 1)
    gets ``leaf(h)``, which is not memoised.
    """
    if g.n <= 1:
        return leaf(g)
    return g._memo[key] if key in g._memo else _run(_fold_at(g, key, leaf, node))


def _fold_at(h: Graph, key: str, leaf: Callable, node: Callable) -> Generator:
    """``_fold`` at a module subgraph whose memo lacks ``key``, as a recursion on ``_run``."""
    kind, masks = _root_child_masks(h)
    values = []
    for c in map(h._derive, masks):
        values.append(leaf(c) if c.n <= 1 else c._memo[key] if key in c._memo
                      else (yield _fold_at(c, key, leaf, node)))
    h._memo[key] = value = node(h, kind, masks, values)
    return value


def md_tree(g: Graph) -> MDNode:
    """Modular decomposition tree of a nonempty graph."""
    if g.n == 0:
        raise InputError("modular decomposition needs a nonempty graph")
    return _fold(g, "mdtree", lambda h: MDNode("leaf", h._vmask, h._uid, vertex=h.ids[0]),
                 lambda h, kind, masks, kids: MDNode(kind, h._vmask, h._uid, tuple(kids)))


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
    cograph operations suffice.  The module subgraphs are folded without
    building ``MDNode`` values.
    """
    if g.n == 0:
        raise InputError("modular width of the empty graph is undefined")
    return _fold(g, "mw", lambda h: 1, lambda h, kind, masks, kids:
                 max([len(masks) if kind == "prime" else 2] + kids))


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


def _twin_masks(g: Graph, blocks: Iterable[int] | None = None) -> list[int]:
    """Twin classes of g as position masks, ordered by lowest member; memoised.

    A vertex with a false twin has no true twin (a true twin of u would be
    a neighbour of u's false twin v, so v would be adjacent to u), so the
    classes are the groups of equal open neighbourhoods and of equal
    closed neighbourhoods with two or more members, plus singletons.

    ``blocks`` partitions g's vertices into edgeless modules and single
    vertices (default: one block per vertex).  A block's members are false
    twins, so one representative row groups the whole block, and only a
    single-vertex block can join a group of equal closed neighbourhoods.
    A caller that knows such blocks pays per block, not per vertex.
    """
    cached = g._memo.get("nd")
    if cached is None:
        adj = g._adj
        live = g._vmask
        open_groups: dict[int, int] = {}
        closed_groups: dict[int, int] = {}
        for b in map((1).__lshift__, bits(live)) if blocks is None else blocks:
            row = adj[b.bit_length() - 1] & live
            open_groups[row] = open_groups.get(row, 0) | b
            if b.bit_count() == 1:
                closed_groups[row | b] = closed_groups.get(row | b, 0) | b
        cached = [m for groups in (open_groups, closed_groups)
                  for m in groups.values() if m & (m - 1)]
        cached += [1 << p for p in bits(g._vmask & ~sum(cached))]
        cached.sort(key=lambda m: m & -m)
        g._memo["nd"] = cached
    return cached


def _clique_class(g: Graph, m: int) -> bool:
    """True iff the twin class ``m`` has two or more pairwise adjacent members."""
    return bool(g._adj[(m & -m).bit_length() - 1] & m)
