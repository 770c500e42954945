"""Largest TAR(k)-reachable independent set, with witness sequences.

The driver decomposes the graph once, recursively builds per-module answer
tables, and then runs a rule loop that either deletes provably irrelevant
vertices or grows the working set, until a fixpoint whose size is exactly
the optimum.  Tables are filled lazily per threshold because the loop
usually probes only a handful of them.

Below the public functions everything works on position masks: a table
is a plain callable from a threshold to ``(reached mask, rope)``, and
vertex-ID sets are built only where a public function returns.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping, Sequence

from . import stats
from .decomposition import (_clique_class, _drop, _is_module_mask, _module_mask,
                            _root_child_masks, _twin_masks, quotient_adjacency)
from .errors import InputError, InternalError
from .graph import Graph, bits, reserve_stack
from .mis import _alpha_mask
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

    Clique classes keep a single vertex (the seed's, if it has one); the
    rest are edgeless, so breadth-first search over unions of whole
    classes finds the optimum, and the class path expands into single
    moves.  The table engine's pool step and ``reach_nd`` run the same
    search.  Exponential in the twin-class count only.
    """
    seed = frozenset(seed)
    smask = _seed_mask(g, seed)
    if len(seed) < k:
        raise InputError(f"seed has {len(seed)} tokens, below the floor {k}")
    return _result(g, seed, max(k, 0), _class_search(g, max(k, 0), smask))


def _seed_mask(g: Graph, seed) -> int:
    """Position mask of a caller's seed; InputError unless it is independent in g."""
    smask = g._mask(seed)
    if not g._independent(smask):
        raise InputError("seed set is not independent")
    return smask


def _result(g: Graph, seed: frozenset[int], floor: int,
            out: tuple[int, MoveRope]) -> LambdaResult:
    """The public result for a core's ``(reached mask, rope)``."""
    reached, rope = out
    return LambdaResult(reached.bit_count(), g._idset(reached), seed, floor, rope)


def _class_search(g: Graph, floor: int, start: int,
                  goal: int | None = None) -> tuple[int, MoveRope] | None:
    """The class-union search behind ``lambda_nd``, Rule 2a and ``reach_nd``.

    Clique classes first keep a single vertex (the start's, if it has
    one), so every remaining class is edgeless and a token in a class can
    always be joined by the rest of it.  Start and goal are saturated that
    way, and breadth-first search runs over unions of whole classes that
    keep at least ``floor`` tokens.  Without a goal it returns the first
    largest union found, as a position mask, and the moves from ``start``;
    with one (which must avoid the dropped clique vertices) it returns
    ``goal`` and the moves to it, or None if no union path joins the two.
    Exponential in the twin-class count only.  The empty graph has one
    union, the empty one, and no twin classes.
    """
    if not g._vmask:
        return 0, EMPTY
    drop = 0
    for cm in _twin_masks(g):
        if _clique_class(g, cm):
            keep = cm & start or cm
            drop |= cm & ~(keep & -keep)
    if drop:
        g = g._derive(g._vmask & ~drop)
    classes = _twin_masks(g)
    sizes = [c.bit_count() for c in classes]
    qadj = quotient_adjacency(g, classes)

    def saturate(side: int) -> tuple[int, list[Move]]:
        state = sum(1 << i for i, c in enumerate(classes) if c & side)
        return state, [Move.add(v) for i in bits(state) for v in g._ids(classes[i] & ~side)]

    state, moves = saturate(start)
    goal_state, goal_moves = saturate(goal) if goal is not None else (None, [])
    best, best_size = state, sum(sizes[i] for i in bits(state))
    parent: dict[int, tuple[int, int] | None] = {state: None}
    state_size = {state: best_size}
    queue = [state]
    head = 0
    while head < len(queue) and goal_state not in parent:
        state = queue[head]
        head += 1
        size = state_size[state]
        for i in range(len(classes)):
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
                best, best_size = nxt, nsize

    at = best if goal is None else goal_state
    if at not in parent:
        return None
    hops: list[list[Move]] = []
    while parent[at] is not None:
        prev, i = parent[at]
        step = Move.add if at >> i & 1 else Move.remove
        hops.append([step(v) for v in g._ids(classes[i])])
        at = prev
    for hop in reversed(hops):
        moves.extend(hop)
    rope = MoveRope.cat(MoveRope.leaf(moves), MoveRope.rev(MoveRope.leaf(goal_moves)))
    if goal is not None:
        return goal, rope
    return sum(classes[i] for i in bits(best)), rope


def shrink_module(g: Graph, seed, module, witness) -> Graph:
    """Drop a module's vertices outside a maximum independent set.

    Requires the seed's tokens inside the module to sit within the given
    witness; then every removed vertex is irrelevant and the largest
    reachable size is unchanged for every floor.  The deletion is the
    solver's own ``_drop``, which its preprocessing and Rule 1 run.
    """
    module = frozenset(module)
    witness = frozenset(witness)
    seed = frozenset(seed)
    pm = _module_mask(g, module)
    _seed_mask(g, seed)
    if not witness <= module or not g.is_independent(witness):
        raise InputError("witness must be an independent subset of the module")
    if not (seed & module) <= witness:
        raise InputError("seed tokens inside the module must lie in the witness")
    if len(witness) != _alpha_mask(g._derive(pm))[0]:
        raise InputError("witness is not a maximum independent set of the module")
    return _drop(g, pm & ~g._mask(witness))


class EngineState:
    """Mutable working state of the rule loop (one instance per run)."""

    __slots__ = ("g", "k", "seed", "h", "r", "part_masks", "live", "pool",
                 "thr", "thr0", "rope", "mod_ropes")

    def __init__(self, g: Graph, k: int, seed: int, part_masks: list[int]):
        self.g = g
        self.k = k
        self.seed = seed
        self.h = g
        self.r = seed
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
        if _replay(g, ReconfSequence(Rule.tar(max(self.k, 0)), g._idset(self.seed),
                                     self.rope.flatten())) != r:
            raise InternalError("accumulated sequence does not end at R")
        empties = sum(1 for x in self.live if not x)
        if self.pool and len(_twin_masks(h._derive(self.pool))) > empties:
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
            seed_i = g._idset(self.seed & pm)
            if _replay(part_g, ReconfSequence(Rule.tar(max(self.thr[i], 0)), seed_i,
                                              self.mod_ropes[i].flatten())) != r & pm:
                raise InternalError("per-module sequence does not end at its slice")


Table = Callable[[int], tuple[int, MoveRope]]


def _entry(g: Graph, table: Mapping[int, LambdaResult], i: int, pm: int,
           j: int) -> tuple[int, MoveRope]:
    """A caller's table for part ``i`` (mask ``pm``) read as a ``Table``, entry checked."""
    try:
        e = table[j]
    except (LookupError, TypeError):  # TypeError: no table for a part meeting the seed
        raise InputError(f"tables for part {i} lack threshold {j}") from None
    if not isinstance(e, LambdaResult) or e.size != len(e.reached):
        raise InputError(f"malformed table entry for part {i}, threshold {j}")
    rmask = g._mask(e.reached)
    if rmask & ~pm:
        raise InputError(f"table entry for part {i} leaves the part")
    return rmask, e._rope


def _lambda_step_raw(g: Graph, k: int, seed: int, part_masks: list[int],
                     tables: list[Table | None], alphas: list[tuple[int, int]],
                     check: bool = False) -> tuple[int, MoveRope]:
    """The rule loop on a seed mask; ``alphas`` holds each part's alpha and witness mask."""
    st = EngineState(g, k, seed, part_masks)

    # preprocessing: dump seed-free parts, splice seeded parts to their table optimum
    for i, pm in enumerate(part_masks):
        if st.r & pm == 0:
            st.h = _drop(st.h, pm & ~alphas[i][1])
            st.pool |= alphas[i][1]
        else:
            st.live[i] = True
            st.thr[i] = (st.r & pm).bit_count()
            rmask, rope = tables[i](st.thr[i])
            st.rope = MoveRope.cat(st.rope, rope)
            st.mod_ropes[i] = rope
            st.r = (st.r & ~pm) | rmask
    if check:
        st.check()

    while True:
        applied = False

        # Rule 1: a live part whose slice is already a maximum independent
        # set of the part is frozen there; survivors join the pool.
        for i, pm in enumerate(part_masks):
            if st.live[i] and (st.r & pm).bit_count() == alphas[i][0]:
                st.h = _drop(st.h, pm & ~st.r)
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
            reached, rope = _class_search(st.h._derive(f0), max(floor0, 0), rf0)
            if reached.bit_count() > rf0.bit_count():
                st.thr0 = max(floor0, 0)
                st.rope = MoveRope.cat(st.rope, rope)
                st.r = (st.r & ~f0) | reached
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
                    delta = MoveRope.cat(removes(g._ids(st.r & pm)), adds(g._ids(amask)))
                    st.rope = MoveRope.cat(st.rope, delta)
                    st.mod_ropes[i] = MoveRope.cat(st.mod_ropes[i], delta)
                    st.r = (st.r & ~pm) | amask
                    st.thr[i] = 0
                    applied = True
                    break
            else:
                if j > st.thr[i]:
                    raise InternalError("requested threshold above the stored one")
                rmask, rope = tables[i](j)
                if rmask.bit_count() > cur:
                    delta = MoveRope.cat(MoveRope.rev(st.mod_ropes[i]), rope)
                    st.rope = MoveRope.cat(st.rope, delta)
                    st.mod_ropes[i] = rope
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

    return st.r, st.rope


def _make_solver(g: Graph, seed: int, check: bool = False) -> Table:
    """The table of ``g`` for a seed mask, each threshold solved on first request."""
    cache: dict[int, tuple[int, MoveRope]] = {}
    setup: list = []

    def solve(j: int) -> tuple[int, MoveRope]:
        hit = cache.get(j)
        if hit is None:
            if j == 0:
                _, w = _alpha_mask(g)
                hit = w, MoveRope.cat(removes(g._ids(seed & ~w)), adds(g._ids(w & ~seed)))
            else:
                if not setup:
                    setup.append(_root_tables(g, seed, check))
                if setup[0] is None:
                    hit = _class_search(g, j, seed)
                else:
                    hit = _lambda_step_raw(g, j, seed, *setup[0], check)
            cache[j] = hit
        return hit

    return solve


def _root_tables(g: Graph, seed: int, check: bool
                 ) -> tuple[list[int], list[Table | None], list[tuple[int, int]]] | None:
    """Root parts, their tables and alphas; None when the class search should run."""
    if g.n <= 2:
        return None
    _, part_masks = _root_child_masks(g)
    if all(pm.bit_count() == 1 for pm in part_masks):
        return None
    subs = [g._derive(pm) for pm in part_masks]
    tables = [_make_solver(sub, seed & pm, check) if seed & pm else None
              for sub, pm in zip(subs, part_masks)]
    return part_masks, tables, [_alpha_mask(sub) for sub in subs]


def lambda_step(g: Graph, k: int, seed, parts: Sequence[frozenset[int]],
                tables: Sequence[Mapping[int, LambdaResult] | None], *,
                check: bool = False) -> LambdaResult:
    """One table-combining step over an explicit module partition.

    The partition must be non-trivial, and for each part meeting the seed
    the table must answer every threshold up to the seed slice size.
    Tables are checked in one place, as the rule loop reads an entry: it
    must be a ``LambdaResult`` whose size matches its set, inside its
    part.  The solvers' own tables skip that check and the set round trip.
    """
    seed = frozenset(seed)
    smask = _seed_mask(g, seed)
    if len(seed) < k or k < 0:
        raise InputError("floor must satisfy 0 <= k <= |seed|")
    if len(parts) < 2:
        raise InputError("partition must have at least two parts")
    if len(tables) != len(parts):
        raise InputError("one table per part is required")
    covered = 0
    part_masks = []
    for part in parts:
        pm = g._mask(part)
        if not pm or covered & pm:
            raise InputError("parts must be nonempty and disjoint")
        if not _is_module_mask(g, pm):
            raise InputError("every part must be a module")
        covered |= pm
        part_masks.append(pm)
    if covered != g._vmask:
        raise InputError("parts must cover the vertex set")
    read = [partial(_entry, g, t, i, pm) for i, (t, pm) in enumerate(zip(tables, part_masks))]
    alphas = [_alpha_mask(g._derive(pm)) for pm in part_masks]
    return _result(g, seed, k, _lambda_step_raw(g, k, smask, part_masks, read, alphas, check))


def lambda_single(g: Graph, seed, k: int, *, check: bool = False) -> LambdaResult:
    """Largest independent set reachable from the seed under TAR(k)."""
    reserve_stack(g.n)
    seed = frozenset(seed)
    smask = _seed_mask(g, seed)
    if k < 0 or k > len(seed):
        raise InputError(f"floor {k} outside [0, {len(seed)}]")
    return _result(g, seed, k, _make_solver(g, smask, check)(k))


def lambda_all(g: Graph, seed, *, check: bool = False) -> dict[int, LambdaResult]:
    """Table of largest reachable sets for every floor from 1 to |seed|."""
    reserve_stack(g.n)
    seed = frozenset(seed)
    solve = _make_solver(g, _seed_mask(g, seed), check)
    return {j: _result(g, seed, j, solve(j)) for j in range(1, len(seed) + 1)}
