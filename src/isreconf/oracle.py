"""Ground-truth brute force: configuration-graph BFS and instance generation.

Everything here is deliberately independent of the fast solvers so that it
can serve as an oracle in property tests.  States are vertex bitmasks; a
BFS never materializes the configuration graph up front.
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass

from .decomposition import _root_child_masks, is_module
from .errors import InputError, OracleCapError
from .graph import Graph, bits
from .rules import Rule, TAR, TJ, TS

DEFAULT_CAP = 20


def oracle_cap() -> int:
    """Current vertex cap; RECONF_ORACLE_CAP overrides the default of 20."""
    text = os.environ.get("RECONF_ORACLE_CAP", str(DEFAULT_CAP))
    try:
        return int(text)
    except ValueError:
        raise InputError(f"RECONF_ORACLE_CAP must be an integer: {text!r}") from None


def _check_instance(g: Graph, s, t, cap: int | None) -> tuple[int, int]:
    limit = oracle_cap() if cap is None else cap
    if g.n > limit:
        raise OracleCapError(f"oracle refuses {g.n} vertices (cap {limit})")
    if not g.is_independent(s) or not g.is_independent(t):
        raise InputError("oracle inputs must be independent sets")
    return g._mask(s), g._mask(t)


def _successors(rule: Rule, g: Graph, state: int) -> list[int]:
    adj = g._adj
    live = g._vmask
    out = []
    if rule.kind == TAR:
        size = state.bit_count()
        if size - 1 >= rule.k:
            for p in bits(state):
                out.append(state & ~(1 << p))
        for p in bits(live & ~state):
            if not adj[p] & state:
                out.append(state | (1 << p))
        return out
    for p in bits(state):
        rest = state & ~(1 << p)
        targets = adj[p] & live if rule.kind == TS else live & ~state
        for q in bits(targets & ~state):
            if not adj[q] & rest:
                out.append(rest | (1 << q))
    return out


def oracle_reach(rule: Rule, g: Graph, s, t, cap: int | None = None) -> bool:
    """BFS over the full configuration graph; true iff t is visited."""
    smask, tmask = _check_instance(g, s, t, cap)
    if rule.kind in (TJ, TS) and smask.bit_count() != tmask.bit_count():
        return False
    if rule.kind == TAR and min(smask.bit_count(), tmask.bit_count()) < rule.k:
        raise InputError("sets are below the TAR floor")
    if smask == tmask:
        return True
    seen = {smask}
    queue = deque((smask,))
    while queue:
        state = queue.popleft()
        for nxt in _successors(rule, g, state):
            if nxt == tmask:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def oracle_lambda(g: Graph, s, k: int, cap: int | None = None) -> int:
    """Largest size over all sets TAR(k)-reachable from s."""
    smask, _ = _check_instance(g, s, s, cap)
    if smask.bit_count() < k:
        raise InputError("seed set is below the TAR floor")
    rule = Rule.tar(max(k, 0))
    best = smask.bit_count()
    seen = {smask}
    queue = deque((smask,))
    while queue:
        state = queue.popleft()
        for nxt in _successors(rule, g, state):
            if nxt not in seen:
                seen.add(nxt)
                best = max(best, nxt.bit_count())
                queue.append(nxt)
    return best


def brute_alpha(g: Graph) -> int:
    """Maximum independent set size by subset enumeration (small n only)."""
    if g.n > 24:
        raise OracleCapError("brute alpha is limited to 24 vertices")
    adj = g._adj
    live = list(bits(g._vmask))
    best = 0
    for state in range(1 << g.n):
        mask = 0
        for i in bits(state):
            if adj[live[i]] & mask:
                break
            mask |= 1 << live[i]
        else:
            best = max(best, state.bit_count())
    return best


def brute_modular_width(g: Graph) -> int:
    """Modular width straight from the recursive definition (small n only)."""
    if g.n > 12:
        raise OracleCapError("brute modular width is limited to 12 vertices")

    def proper_modules(graph: Graph) -> list[frozenset[int]]:
        idlist = graph.ids
        out = []
        for state in range(1, (1 << len(idlist)) - 1):
            sub = frozenset(idlist[p] for p in bits(state))
            if is_module(graph, sub):
                out.append(sub)
        return out

    def width_at_most(graph: Graph, k: int, memo: dict) -> bool:
        if graph.n <= k:
            return True
        key = graph.vertices
        hit = memo.get(key)
        if hit is not None:
            return hit
        mods = proper_modules(graph)

        def cover(remaining: frozenset[int], parts_left: int) -> bool:
            if not remaining:
                return True
            if parts_left == 0:
                return False
            pivot = min(remaining)
            for m in mods:
                if pivot in m and m <= remaining:
                    if width_at_most(graph.induced_subgraph(m), k, memo):
                        if cover(remaining - m, parts_left - 1):
                            return True
            return False

        ok = cover(graph.vertices, k)
        memo[key] = ok
        return ok

    for k in range(1, g.n + 1):
        if width_at_most(g, k, {}):
            return k
    return g.n


# -- seeded instance generation ----------------------------------------------


@dataclass(frozen=True)
class GenProfile:
    """Shape of a generated instance."""

    n: int
    width: int = 4
    rule: str = TAR

    def __post_init__(self):
        if self.n < 1:
            raise InputError("profile needs n >= 1")
        if self.width < 2:
            raise InputError("profile needs width >= 2")
        if self.rule not in (TAR, TJ, TS):
            raise InputError(f"unknown rule {self.rule!r}")


def _random_prime_quotient(rng: random.Random, order: int) -> Graph:
    # random graphs of order >= 4 are prime with decent probability
    while True:
        edges = []
        for i in range(order):
            for j in range(i + 1, order):
                if rng.random() < 0.5:
                    edges.append((i, j))
        q = Graph(range(order), edges)
        kind, parts = _root_child_masks(q)
        if kind == "prime" and len(parts) == order:
            return q


def _fill_adj(rng: random.Random, adj: list[int], offsets: list[int], width: int) -> None:
    """Substitute random width-bounded graphs into id slots [offsets[i], offsets[i+1])."""
    lo, hi = offsets[0], offsets[-1]
    n = hi - lo
    if n <= 1:
        return
    if n <= width:
        p = rng.choice((0.35, 0.5, 0.65))
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                if rng.random() < p:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        return
    order = rng.randint(4, width) if width >= 4 else 2
    order = min(order, n)
    if order < 4:
        order = 2
        quotient = Graph(range(2), [(0, 1)] if rng.random() < 0.5 else [])
    else:
        quotient = _random_prime_quotient(rng, order)
    # split n into `order` positive chunks
    cuts = sorted(rng.sample(range(1, n), order - 1)) if order > 1 else []
    marks = [lo] + [lo + c for c in cuts] + [hi]
    for i in range(order):
        _fill_adj(rng, adj, [marks[i], marks[i + 1]], width)
    for a, b in quotient.edges():
        amask = ((1 << marks[a + 1]) - 1) ^ ((1 << marks[a]) - 1)
        bmask = ((1 << marks[b + 1]) - 1) ^ ((1 << marks[b]) - 1)
        for i in range(marks[a], marks[a + 1]):
            adj[i] |= bmask
        for i in range(marks[b], marks[b + 1]):
            adj[i] |= amask


def _gen_graph(rng: random.Random, n: int, width: int) -> Graph:
    adj = [0] * n
    if n >= 6 and rng.random() < 0.3:
        # disconnected instance: two or three independent blocks
        blocks = rng.randint(2, 3 if n >= 9 else 2)
        cuts = sorted(rng.sample(range(2, n - 1), blocks - 1))
        marks = [0] + cuts + [n]
        for i in range(blocks):
            _fill_adj(rng, adj, [marks[i], marks[i + 1]], width)
    else:
        _fill_adj(rng, adj, [0, n], width)
    return Graph._from_adj(list(range(1, n + 1)), adj)


def _random_maximal_independent(rng: random.Random, g: Graph) -> list[int]:
    order = list(g.ids)
    rng.shuffle(order)
    chosen_mask = 0
    chosen = []
    for v in order:
        p = g._pos[v]
        if not g._adj[p] & chosen_mask:
            chosen_mask |= 1 << p
            chosen.append(v)
    return sorted(chosen)


def gen_instance(seed: int, profile: GenProfile) -> tuple[Graph, frozenset[int], frozenset[int], int | None]:
    """Deterministic pseudo-random instance: (graph, start, target, k).

    The graph is built by substituting random width-bounded graphs into a
    random prime quotient, which keeps the modular width at or below the
    profile width.  k is None for TJ and TS.
    """
    rng = random.Random(seed * 1_000_003 + profile.n * 631 + profile.width * 17
                        + (TAR, TJ, TS).index(profile.rule))
    g = _gen_graph(rng, profile.n, profile.width)
    smax = _random_maximal_independent(rng, g)
    tmax = _random_maximal_independent(rng, g)
    if profile.rule == TAR:
        ssize = rng.randint(min(1, len(smax)), len(smax))
        tsize = rng.randint(min(1, len(tmax)), len(tmax))
        s = frozenset(rng.sample(smax, ssize))
        t = frozenset(rng.sample(tmax, tsize))
        k = rng.randint(0, min(ssize, tsize))
        return g, s, t, k
    size = rng.randint(0, min(len(smax), len(tmax)))
    s = frozenset(rng.sample(smax, size))
    t = frozenset(rng.sample(tmax, size))
    return g, s, t, None
