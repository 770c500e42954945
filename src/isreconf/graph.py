"""Simple graphs over stable integer vertex IDs.

Adjacency is one Python-int bitmask per vertex.  Bit positions are fixed
when a root graph is built and inherited by every derived subgraph, so
sets move between a graph and its subgraphs without translation.  A
derived subgraph is a view: it holds the root's row list and ``_vmask``
marks its live positions, so a row read not already ANDed with a subset
of ``_vmask`` must AND ``_vmask``.  Only the ``_memo`` cache ever changes.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Iterable, Iterator

from .errors import InputError

_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> Iterator[int]:
    """Lazily yield the set bit positions of ``mask`` in ascending order.

    A dense mask, one with at least one set bit per 12 positions, is read
    in one C-level pass: its binary digits, lowest first, become a 0/1 byte
    string that selects positions from ``count()``.  A sparse mask peels its
    lowest bit per step, three big-int operations per set bit, which beats
    scanning every digit when few are set.
    """
    if mask.bit_count() * 12 >= mask.bit_length():
        return compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS))
    return _sparse_bits(mask)


def _sparse_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _flood(adj: list[int], todo: int, co: bool = False) -> list[int]:
    """Components of the subgraph on the position mask ``todo``, lowest member first;
    with ``co``, of its complement, grown by the vertices missing a frontier member."""
    out = []
    while todo:
        comp = frontier = todo & -todo
        while frontier:
            if co:
                grown = -1
                for p in bits(frontier):
                    grown &= adj[p]
                grown = ~grown
            else:
                grown = 0
                for p in bits(frontier):
                    grown |= adj[p]
            frontier = grown & todo & ~comp
            comp |= frontier
        out.append(comp)
        todo &= ~comp
    return out


class Graph:
    """Undirected simple graph; no loops, no multi-edges, no weights."""

    __slots__ = ("_uid", "_pos", "_adj", "_vmask", "_memo")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        ids = sorted(set(vertices))
        self._uid = tuple(ids)                      # position -> external id
        self._pos = {v: i for i, v in enumerate(ids)}
        adj = [0] * len(ids)
        pos = self._pos
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            try:
                pu, pv = pos[u], pos[v]
            except KeyError as exc:
                raise InputError(f"edge endpoint {exc.args[0]} is not a vertex") from None
            adj[pu] |= 1 << pv
            adj[pv] |= 1 << pu
        self._adj = adj
        self._vmask = (1 << len(ids)) - 1
        self._memo: dict = {}

    # -- internal constructors -------------------------------------------

    @classmethod
    def _from_adj(cls, ids: list[int], adj: list[int]) -> "Graph":
        """Adopt prebuilt adjacency masks; ids must be sorted, masks symmetric."""
        g = cls(ids)
        g._adj = adj
        return g

    def _derive(self, vmask: int) -> "Graph":
        """Subgraph on the given position mask: a view sharing the root's rows."""
        key = ("sub", vmask)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        g = object.__new__(Graph)
        g._uid = self._uid
        g._pos = self._pos
        g._adj = self._adj
        g._vmask = vmask
        g._memo = {}
        self._memo[key] = g
        return g

    # -- mask helpers ------------------------------------------------------

    def _position(self, v) -> int:
        """Position of the live vertex ``v``; InputError for any other value."""
        try:
            p = self._pos[v]
            if (self._vmask >> p) & 1:
                return p
        except (KeyError, TypeError):       # not an ID of the root, or unhashable
            pass
        raise InputError(f"unknown vertex id {v!r}")

    def _mask(self, vertices: Iterable[int]) -> int:
        m = 0
        for v in vertices:
            m |= 1 << self._position(v)
        return m

    def _ids(self, mask: int) -> tuple[int, ...]:
        uid = self._uid
        return tuple(uid[p] for p in bits(mask))

    def _idset(self, mask: int) -> frozenset[int]:
        uid = self._uid
        return frozenset(uid[p] for p in bits(mask))

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return self._vmask.bit_count()

    @property
    def m(self) -> int:
        return sum((self._adj[p] & self._vmask).bit_count() for p in bits(self._vmask)) // 2

    @property
    def vertices(self) -> frozenset[int]:
        return self._idset(self._vmask)

    @property
    def ids(self) -> tuple[int, ...]:
        """Live vertex IDs in ascending order."""
        return self._ids(self._vmask)

    def has_vertex(self, v: int) -> bool:
        p = self._pos.get(v)
        return p is not None and bool((self._vmask >> p) & 1)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[self._position(u)] >> self._position(v) & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._idset(self._adj[self._position(v)] & self._vmask)

    def degree(self, v: int) -> int:
        return (self._adj[self._position(v)] & self._vmask).bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, ordered lexicographically."""
        uid = self._uid
        live = self._vmask
        for p in bits(live):
            for q in bits(self._adj[p] & (live >> (p + 1) << (p + 1))):
                yield uid[p], uid[q]

    # -- set operations ------------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced by the given vertices; IDs are preserved."""
        return self._derive(self._mask(vertices))

    def delete_vertices(self, vertices: Iterable[int]) -> "Graph":
        """Graph with the given vertices (and incident edges) removed."""
        return self._derive(self._vmask & ~self._mask(vertices))

    def neighborhood(self, vertices: Iterable[int]) -> frozenset[int]:
        """Open neighborhood: union of members' neighbors, minus the set."""
        m = self._mask(vertices)
        nb = 0
        adj = self._adj
        for p in bits(m):
            nb |= adj[p]
        return self._idset(nb & self._vmask & ~m)

    def is_independent(self, vertices: Iterable[int]) -> bool:
        """True iff no edge joins two of the given vertices."""
        return self._independent(self._mask(vertices))

    def _independent(self, m: int) -> bool:
        adj = self._adj
        return not any(adj[p] & m for p in bits(m))

    def components(self) -> list[frozenset[int]]:
        """Connected components, ordered by smallest member ID."""
        return [self._idset(c) for c in _flood(self._adj, self._vmask)]

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and set(self.edges()) == set(other.edges())

    __hash__ = None  # graphs are compared by value, not used as keys

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"
