"""Largest TAR(k)-reachable independent set, with witness sequences.

The driver decomposes the graph once, recursively builds per-module answer
tables, and then runs a rule loop that either deletes provably irrelevant
vertices or grows the working set, until a fixpoint whose size is exactly
the optimum.  Tables are filled lazily per threshold because the loop
usually probes only a handful of them.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from . import stats
from .decomposition import _root_child_masks, is_module, nd_partition, quotient_adjacency
from .errors import InputError, InternalError
from .graph import Graph, bits, reserve_stack
from .mis import _alpha_mask, alpha
from .moveseq import EMPTY, MoveRope, adds, removes
from .rules import Move, ReconfSequence, Rule, _replay


class LambdaResult:
    """Largest reachable set: size, the set itself, and a witness sequence."""

    __slots__ = ("size", "reached", "_start", "_floor", "_rope", "_seq")

    def __init__(self, size: int, reached: frozenset[int], start: frozenset[int],
                 floor: int, rope: MoveRope):
        self.size = size
        self.reached = reached
        self._start = start
        self._floor = floor
        self._rope = rope
        self._seq = None

    @property
    def sequence(self) -> ReconfSequence:
        if self._seq is None:
            self._seq = ReconfSequence(Rule.tar(self._floor), self._start, self._rope.flatten())
        return self._seq

    def __repr__(self) -> str:
        return f"LambdaResult(size={self.size}, moves={len(self._rope)})"


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


class EngineState:
    """Mutable working state of the rule loop (one instance per run)."""

    __slots__ = ("g", "k", "seed", "h", "r", "part_masks", "live", "pool",
                 "thr", "thr0", "rope", "mod_ropes")

    def __init__(self, g: Graph, k: int, seed: frozenset[int], part_masks: list[int]):
        self.g = g
        self.k = k
        self.seed = seed
        self.h = g
        self.r = g._mask(seed)
        self.part_masks = part_masks
        self.live = [False] * len(part_masks)
        self.pool = 0
        self.thr = [0] * len(part_masks)
        self.thr0 = 0
        self.rope = EMPTY
        self.mod_ropes: list[MoveRope] = [EMPTY] * len(part_masks)

    def check(self) -> None:
        """Assert the loop invariants; meant for small test instances."""
        g, h, r = self.g, self.h, self.r
        covered = self.pool
        for i, pm in enumerate(self.part_masks):
            if self.live[i]:
                if pm & covered:
                    raise InternalError("parts overlap the pool")
                covered |= pm
        if covered != h._vmask or h._vmask & ~g._vmask:
            raise InternalError("pool and live parts do not partition V(H)")
        if _replay(g, ReconfSequence(Rule.tar(max(self.k, 0)), self.seed,
                                     self.rope.flatten())) != r:
            raise InternalError("accumulated sequence does not end at R")
        empties = sum(1 for x in self.live if not x)
        if self.pool and len(nd_partition(h._derive(self.pool))) > empties:
            raise InternalError("pool twin-class count exceeds the empty-part budget")
        slots = [(self.pool, self.thr0)] if self.pool else []
        slots += [(pm, self.thr[i]) for i, pm in enumerate(self.part_masks) if self.live[i]]
        for pm, t in slots:
            inside = (r & pm).bit_count()
            if not (self.k - (r & ~pm).bit_count() <= t <= inside):
                raise InternalError("threshold outside its invariant window")
        for i, pm in enumerate(self.part_masks):
            if not self.live[i]:
                continue
            if not r & pm:
                raise InternalError("live part lost all tokens")
            part_g = g._derive(pm)
            seed_i = g._idset(g._mask(self.seed) & pm)
            if _replay(part_g, ReconfSequence(Rule.tar(max(self.thr[i], 0)), seed_i,
                                              self.mod_ropes[i].flatten())) != r & pm:
                raise InternalError("per-module sequence does not end at its slice")


def _entry(tables, i: int, j: int) -> LambdaResult:
    try:
        e = tables[i][j]
    except KeyError:
        raise InputError(f"tables for part {i} lack threshold {j}") from None
    if not isinstance(e, LambdaResult) or e.size != len(e.reached):
        raise InputError(f"malformed table entry for part {i}, threshold {j}")
    return e


def _lambda_step_raw(g: Graph, k: int, seed: frozenset[int], part_masks: list[int],
                     tables, alphas: list[tuple[int, int]], check: bool = False) -> LambdaResult:
    """The rule loop; ``alphas`` holds each part's alpha and witness mask."""
    st = EngineState(g, k, seed, part_masks)

    # preprocessing: dump seed-free parts, splice seeded parts to their table optimum
    for i, pm in enumerate(part_masks):
        if st.r & pm == 0:
            amask = alphas[i][1]
            dead = pm & ~amask
            if dead:
                st.h = st.h._derive(st.h._vmask & ~dead)
                stats.inc("nodes_deleted", dead.bit_count())
            st.pool |= amask
        else:
            st.live[i] = True
            st.thr[i] = (st.r & pm).bit_count()
            entry = _entry(tables, i, st.thr[i])
            rmask = g._mask(entry.reached)
            if rmask & ~pm:
                raise InputError(f"table entry for part {i} leaves the part")
            st.rope = MoveRope.cat(st.rope, entry._rope)
            st.mod_ropes[i] = entry._rope
            st.r = (st.r & ~pm) | rmask
    if check:
        st.check()

    while True:
        applied = False

        # Rule 1: a live part whose slice is already a maximum independent
        # set of the part is frozen there; survivors join the pool.
        for i, pm in enumerate(part_masks):
            if st.live[i] and (st.r & pm).bit_count() == alphas[i][0]:
                dead = pm & ~st.r
                if dead:
                    st.h = st.h._derive(st.h._vmask & ~dead)
                    stats.inc("nodes_deleted", dead.bit_count())
                st.pool |= pm & st.r
                # tokens just entered the pool, so its floor window moved
                st.thr0 = max(st.thr0, k - (st.r & ~st.pool).bit_count())
                st.live[i] = False
                st.thr[i] = 0
                st.mod_ropes[i] = EMPTY
                applied = True
                break
        if applied:
            stats.inc("rule_applications")
            if check:
                st.check()
            continue

        # Rule 2a: improve inside the pool, restricted to vertices with no
        # neighbor in any live part.
        live_union = 0
        for i, pm in enumerate(part_masks):
            if st.live[i]:
                live_union |= pm
        f0 = 0
        for p in bits(st.pool):
            if not st.h._adj[p] & live_union:
                f0 |= 1 << p
        if f0:
            rf0 = st.r & f0
            floor0 = k - (st.r & ~f0).bit_count()
            sub = lambda_nd(st.h._derive(f0), st.h._idset(rf0), max(floor0, 0))
            if sub.size > rf0.bit_count():
                st.thr0 = max(floor0, 0)
                st.rope = MoveRope.cat(st.rope, sub._rope)
                st.r = (st.r & ~f0) | st.h._mask(sub.reached)
                stats.inc("rule_applications")
                if check:
                    st.check()
                continue

        # Rule 2b: improve inside one live part via its table, at the floor
        # its current slack allows.
        for i, pm in enumerate(part_masks):
            if not st.live[i]:
                continue
            j = k - (st.r & ~pm).bit_count()
            cur = (st.r & pm).bit_count()
            if j <= 0:
                size, amask = alphas[i]
                if size > cur:
                    delta = MoveRope.cat(removes(g._idset(st.r & pm)), adds(g._idset(amask)))
                    st.rope = MoveRope.cat(st.rope, delta)
                    st.mod_ropes[i] = MoveRope.cat(st.mod_ropes[i], delta)
                    st.r = (st.r & ~pm) | amask
                    st.thr[i] = 0
                    applied = True
                    break
            else:
                if j > st.thr[i]:
                    raise InternalError("requested threshold above the stored one")
                entry = _entry(tables, i, j)
                if entry.size > cur:
                    rmask = g._mask(entry.reached)
                    if rmask & ~pm:
                        raise InputError(f"table entry for part {i} leaves the part")
                    delta = MoveRope.cat(MoveRope.rev(st.mod_ropes[i]), entry._rope)
                    st.rope = MoveRope.cat(st.rope, delta)
                    st.mod_ropes[i] = entry._rope
                    st.r = (st.r & ~pm) | rmask
                    st.thr[i] = j
                    applied = True
                    break
        if applied:
            stats.inc("rule_applications")
            if check:
                st.check()
            continue
        break

    return LambdaResult(st.r.bit_count(), g._idset(st.r), seed, max(k, 0), st.rope)


class _LazyTable:
    """Mapping facade over a per-module solver; entries appear on demand."""

    __slots__ = ("_solve",)

    def __init__(self, solve: Callable[[int], LambdaResult]):
        self._solve = solve

    def __getitem__(self, j: int) -> LambdaResult:
        return self._solve(j)


def _make_solver(g: Graph, seed: frozenset[int], check: bool = False) -> Callable[[int], LambdaResult]:
    cache: dict[int, LambdaResult] = {}
    ctx: list = []

    def setup():
        if ctx:
            return ctx[0]
        if g.n <= 2 or g.m == 0:
            ctx.append(("nd",))
            return ctx[0]
        _, part_masks = _root_child_masks(g)
        if all(pm.bit_count() == 1 for pm in part_masks):
            ctx.append(("nd",))
            return ctx[0]
        subs = [g._derive(pm) for pm in part_masks]
        alphas = [_alpha_mask(sub) for sub in subs]
        smask = g._mask(seed)
        tables: list = []
        for sub, pm in zip(subs, part_masks):
            inner = g._idset(smask & pm)
            tables.append(_LazyTable(_make_solver(sub, inner, check)) if inner else None)
        ctx.append(("engine", part_masks, tables, alphas))
        return ctx[0]

    def solve(j: int) -> LambdaResult:
        hit = cache.get(j)
        if hit is not None:
            return hit
        if j < 0 or j > len(seed):
            raise InputError(f"threshold {j} outside [0, {len(seed)}]")
        if j == 0:
            best = alpha(g)
            rope = MoveRope.cat(removes(seed - best.witness), adds(best.witness - seed))
            res = LambdaResult(best.size, best.witness, seed, 0, rope)
        else:
            mode = setup()
            if mode[0] == "nd":
                res = lambda_nd(g, seed, j)
            else:
                res = _lambda_step_raw(g, j, seed, mode[1], mode[2], mode[3], check)
        cache[j] = res
        return res

    return solve


def lambda_step(g: Graph, k: int, seed, parts: Sequence[frozenset[int]],
                tables: Sequence[Mapping[int, LambdaResult] | None], *,
                check: bool = False) -> LambdaResult:
    """One table-combining step over an explicit module partition.

    The partition must be non-trivial, and for each part meeting the seed
    the table must answer every threshold up to the seed slice size.
    """
    seed = frozenset(seed)
    if not g.is_independent(seed):
        raise InputError("seed set is not independent")
    if len(seed) < k or k < 0:
        raise InputError("floor must satisfy 0 <= k <= |seed|")
    if len(parts) < 2:
        raise InputError("partition must have at least two parts")
    if len(tables) != len(parts):
        raise InputError("one table per part is required")
    covered: set[int] = set()
    for part in parts:
        if not part or covered & part:
            raise InputError("parts must be nonempty and disjoint")
        if not is_module(g, part):
            raise InputError("every part must be a module")
        covered |= part
    if covered != g.vertices:
        raise InputError("parts must cover the vertex set")
    part_masks = [g._mask(p) for p in parts]
    alphas = [_alpha_mask(g._derive(pm)) for pm in part_masks]
    return _lambda_step_raw(g, k, seed, part_masks, tables, alphas, check)


def lambda_single(g: Graph, seed, k: int, *, check: bool = False) -> LambdaResult:
    """Largest independent set reachable from the seed under TAR(k)."""
    reserve_stack(g.n)
    seed = frozenset(seed)
    if not g.is_independent(seed):
        raise InputError("seed set is not independent")
    if k < 0 or k > len(seed):
        raise InputError(f"floor {k} outside [0, {len(seed)}]")
    return _make_solver(g, seed, check)(k)


def lambda_all(g: Graph, seed, *, check: bool = False) -> dict[int, LambdaResult]:
    """Table of largest reachable sets for every floor from 1 to |seed|."""
    reserve_stack(g.n)
    seed = frozenset(seed)
    if not g.is_independent(seed):
        raise InputError("seed set is not independent")
    solve = _make_solver(g, seed, check)
    return {j: solve(j) for j in range(1, len(seed) + 1)}
