"""Largest TAR(k)-reachable independent set, with witness sequences.

The engine decomposes the graph once, builds an answer table per module,
and then runs a rule loop that either deletes provably irrelevant
vertices or grows the working set, until a fixpoint whose size is exactly
the optimum.  Tables are filled lazily per threshold because the loop
usually probes only a handful of them.

Below the public functions everything works on position masks: a table
is a dict from threshold to ``(reached mask, rope)``, and vertex-ID sets
are built only where a public function returns.  The rule loop is a
generator recursion on ``decomposition._run``, the one trampoline: it
reads a child's table by threshold and, only on a miss, yields ``_fill``
for that entry, so the tables of a decomposition are filled without
nesting calls per level.  One store per public call holds every table,
so each entry is filled once.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Iterator, Mapping, Sequence, TypeVar

from . import stats
from .decomposition import (_clique_class, _drop, _is_module_mask, _module_mask,
                            _root_child_masks, _run, _twin_masks, quotient_adjacency)
from .errors import InputError, InternalError
from .graph import Graph
from .mis import _alpha_mask, _heaviest
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
    if k < 0:
        raise InputError(f"floor {k} outside [0, {len(seed)}]")
    if len(seed) < k:
        raise InputError(f"seed has {len(seed)} tokens, below the floor {k}")
    return _result(g, seed, k, _class_search(g, k, smask))


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


Hop = TypeVar("Hop")


def _bfs(start: int, step: Callable[[int], Iterable[tuple[int, Hop]]],
         parent: dict[int, tuple[int, Hop] | None]) -> Iterator[int]:
    """Yield the states reachable from ``start`` in breadth-first order, ``start`` first.

    ``step(state)`` yields ``(next state, hop)`` pairs.  ``parent`` records
    each state as ``(the state it was found from, hop)`` when it is found,
    before it is yielded, and ``start`` as None.
    """
    parent[start] = None
    queue = [start]
    for state in queue:
        yield state
        for nxt, hop in step(state):
            if nxt not in parent:
                parent[nxt] = state, hop
                queue.append(nxt)


def _class_search(g: Graph, floor: int, start: int,
                  goal: int | None = None) -> tuple[int, MoveRope] | None:
    """The class-union search behind ``lambda_nd``, Rule 2a and ``reach_nd``.

    Clique classes first keep a single vertex (the start's, if it has
    one), so every remaining class is edgeless and a token in a class can
    always be joined by the rest of it.  Start and goal are saturated that
    way, and ``_bfs`` runs over unions of whole classes, as position
    masks, that keep at least ``floor`` tokens.  With a goal (which must
    avoid the dropped clique vertices) it returns ``goal`` and the moves to
    it, or None if no union path joins the two.  Without one it returns the
    first largest union found and the moves from ``start``.  No union
    outweighs the heaviest independent set of the class quotient, which
    ``mis._heaviest`` finds before the walk, so the walk stops at the first
    union of that weight, the saturated start included: the union, and
    parent path, that a walk over every reachable union would return; a
    saturated start with no hop is the only union, and its own bound.
    Exponential in the twin-class count only; a start holding every vertex
    (so the graph is edgeless, or empty) is already the largest union.
    """
    if start == g._vmask and goal in (None, start):
        return start, EMPTY
    classes = _twin_masks(g)
    drop = 0
    for cm in classes:
        if _clique_class(g, cm):
            keep = cm & start or cm
            drop |= cm & ~(keep & -keep)
    if drop:
        # twins stay twins without the dropped vertices, so regroup the classes
        g = g._derive(g._vmask & ~drop)
        classes = _twin_masks(g, [c & ~drop for c in classes])
    # one member's row decides what a class sees, as the classes are modules
    rows = [g._adj[(c & -c).bit_length() - 1] for c in classes]

    def saturate(side: int) -> tuple[int, list[Move]]:
        return (sum(c for c in classes if c & side),
                [Move.add(v) for c in classes if c & side for v in g._ids(c & ~side)])

    def step(state: int) -> Iterator[tuple[int, int]]:
        """Toggle a class, the hop: add one ``state`` does not see, or drop one above the floor."""
        size = state.bit_count()
        for c, row in zip(classes, rows):
            if not state & c:
                if not row & state:
                    yield state | c, c
            elif size - c.bit_count() >= floor:
                yield state ^ c, c

    state, moves = saturate(start)
    goal_state, goal_moves = saturate(goal) if goal is not None else (None, [])
    parent: dict[int, tuple[int, int] | None] = {}
    states = _bfs(state, step, parent)
    if goal is None:
        top = (state.bit_count() if next(step(state), None) is None else
               _heaviest((1 << len(classes)) - 1, quotient_adjacency(g, classes),
                         [c.bit_count() for c in classes], {0: (0, 0, 0)})[0])
        at = state
        for other in states:
            if other.bit_count() > at.bit_count():
                at = other
            if at.bit_count() == top:
                break
        end = at
    elif any(goal_state in parent for _ in states):
        at, end = goal_state, goal
    else:
        return None
    hops: list[list[Move]] = []
    while parent[at] is not None:
        at, c = parent[at]
        move = Move.remove if at & c else Move.add
        hops.append([move(v) for v in g._ids(c)])
    for hop in reversed(hops):
        moves.extend(hop)
    return end, MoveRope.cat(MoveRope.leaf(moves), MoveRope.rev(MoveRope.leaf(goal_moves)))


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

    __slots__ = ("g", "k", "seed", "h", "r", "part_masks", "live", "slices",
                 "thr", "thr0", "rope", "mod_ropes")

    def __init__(self, g: Graph, k: int, seed: int, part_masks: list[int]):
        self.g = g
        self.k = k
        self.seed = seed
        self.h = g
        self.r = seed
        self.part_masks = part_masks
        self.live = 0                  # union of the live parts
        self.slices: list[int] = []    # what h keeps of each dead part; the pool is their union
        self.thr = [0] * len(part_masks)
        self.thr0 = 0
        self.rope = EMPTY
        self.mod_ropes: list[MoveRope] = [EMPTY] * len(part_masks)

    def check(self) -> None:
        """Assert the loop invariants; meant for small test instances."""
        g, h, r = self.g, self.h, self.r
        pool = 0
        for sl in self.slices:
            if sl & pool:
                raise InternalError("pool slices overlap")
            pool |= sl
        live_parts = [i for i, pm in enumerate(self.part_masks) if pm & self.live]
        if any(self.part_masks[i] & ~self.live for i in live_parts):
            raise InternalError("the live mask is not a union of whole parts")
        if pool & self.live or pool | self.live != h._vmask or h._vmask & ~g._vmask:
            raise InternalError("pool and live parts do not partition V(H)")
        if _replay(g, ReconfSequence(Rule.tar(self.k), g._idset(self.seed),
                                     self.rope.flatten())) != r:
            raise InternalError("accumulated sequence does not end at R")
        if len(self.slices) != len(self.part_masks) - len(live_parts):
            raise InternalError("the pool is not one slice per dead part")
        for sl in self.slices:
            if not h._independent(sl) or not _is_module_mask(h, sl):
                raise InternalError("a pool slice is not an edgeless module of H")
        if pool:
            # fresh views, so neither partition reads one that Rule 2a memoised
            def bare() -> Graph:
                return Graph._from_adj(list(g._uid), g._adj)._derive(pool)
            classes = _twin_masks(bare())
            if _twin_masks(bare(), self.slices) != classes:
                raise InternalError("slice-built pool partition differs from the vertex one")
            if len(classes) > len(self.slices):
                raise InternalError("pool twin-class count exceeds the empty-part budget")
        slots = [(pool, self.thr0)] if pool else []
        slots += [(self.part_masks[i], self.thr[i]) for i in live_parts]
        for pm, t in slots:
            inside = (r & pm).bit_count()
            if not (self.k - (r & ~pm).bit_count() <= t <= inside):
                raise InternalError("threshold outside its invariant window")
        for i in live_parts:
            pm = self.part_masks[i]
            if not r & pm:
                raise InternalError("live part lost all tokens")
            part_g = g._derive(pm)
            seed_i = g._idset(self.seed & pm)
            if _replay(part_g, ReconfSequence(Rule.tar(self.thr[i]), seed_i,
                                              self.mod_ropes[i].flatten())) != r & pm:
                raise InternalError("per-module sequence does not end at its slice")


def _lambda_step_raw(g: Graph, k: int, seed: int, part_masks: list[int],
                     tables: list[dict | None], alphas: list[tuple[int, int]],
                     memo: dict, check: bool) -> Generator:
    """The rule loop on a seed mask; ``alphas`` holds each part's alpha and witness mask.

    ``tables[i]`` is part ``i``'s table, read by threshold; an entry it
    lacks (of ``lambda_step``'s, only floor 0: the part's alpha witness) is
    filled into ``memo``, the call's store, by yielding ``_fill`` to ``_run``.
    """
    st = EngineState(g, k, seed, part_masks)

    # preprocessing: dump seed-free parts, splice seeded parts to their table optimum
    for i, pm in enumerate(part_masks):
        if st.r & pm == 0:
            st.h = _drop(st.h, pm & ~alphas[i][1])
            st.slices.append(alphas[i][1])
        else:
            st.live |= pm
            st.thr[i] = j = (st.r & pm).bit_count()
            rmask, rope = (tables[i].get(j)
                           or (yield _fill(memo, check, g._derive(pm), seed & pm, j)))
            st.rope = MoveRope.cat(st.rope, rope)
            st.mod_ropes[i] = rope
            st.r = (st.r & ~pm) | rmask
    if check:
        st.check()

    while True:
        # Rule 1: a live part whose slice is already a maximum independent
        # set of the part is frozen there; survivors join the pool.
        for pm, (size, _) in zip(part_masks, alphas):
            if pm & st.live and (st.r & pm).bit_count() == size:
                st.h = _drop(st.h, pm & ~st.r)
                st.slices.append(pm & st.r)
                st.live &= ~pm
                # tokens just entered the pool, so its floor window moved; r lies in
                # V(H), the pool and the live parts, so r & live is r outside the pool
                st.thr0 = max(st.thr0, k - (st.r & st.live).bit_count())
                break
        else:  # Rules 2a and 2b, or the fixpoint
            if not (yield from _improve(st, tables, memo, check)):
                break
        stats.inc("rule_applications")
        if check:
            st.check()

    return st.r, st.rope


def _improve(st: EngineState, tables: list[dict | None], memo: dict, check: bool) -> Generator:
    """Rules 2a and 2b: grow R once and return True, or return False if neither applies.

    Rule 2b reads floor 0 from a part's table as any floor: ``_fill``'s alpha entry.
    """
    g, k = st.g, st.k

    # Rule 2a: improve inside the pool, restricted to vertices with no
    # neighbor in any live part.  Each slice is an edgeless module of h,
    # so one member's row decides the whole slice, and the free slices
    # are the blocks of the f0 view's twin partition, memoised here for
    # the class search.  A pool full of tokens has nothing to improve.
    free = [s for s in st.slices if not st.h._adj[s.bit_length() - 1] & st.live]
    f0 = sum(free)
    rf0 = st.r & f0
    if rf0 != f0:
        floor0 = max(k - (st.r & ~f0).bit_count(), 0)
        view = st.h._derive(f0)
        _twin_masks(view, free)
        reached, rope = _class_search(view, floor0, rf0)
        if reached.bit_count() > rf0.bit_count():
            st.thr0 = floor0
            st.rope = MoveRope.cat(st.rope, rope)
            st.r = (st.r & ~f0) | reached
            return True

    # Rule 2b: improve inside one live part via its table, at the floor its slack allows
    for i, pm in enumerate(st.part_masks):
        if not pm & st.live:
            continue
        j = max(k - (st.r & ~pm).bit_count(), 0)
        if j > st.thr[i]:
            raise InternalError("requested threshold above the stored one")
        rmask, rope = (tables[i].get(j)
                       or (yield _fill(memo, check, g._derive(pm), st.seed & pm, j)))
        if rmask.bit_count() <= (st.r & pm).bit_count():
            continue
        st.rope = MoveRope.cat(st.rope, MoveRope.cat(MoveRope.rev(st.mod_ropes[i]), rope))
        st.mod_ropes[i] = rope
        st.r = (st.r & ~pm) | rmask
        st.thr[i] = j
        return True
    return False


def _fill(memo: dict[tuple[int, int], dict], check: bool, g: Graph, seed: int,
          j: int) -> Generator:
    """The entry of ``g``'s table for a seed mask at threshold ``j``, filled on the trampoline.

    ``memo`` is the one table store of a public call: it maps a vertex mask
    and a seed to the table, a dict from threshold to entry.  Every graph
    in a call is a view of one root, and a table depends on nothing else,
    so each entry is filled once per call however many parents read it.
    Under the key None a table keeps its root parts: their masks, their
    tables (the children's own, from the store) and alphas, or ``()`` when
    the class search fills the table.
    """
    table = memo.setdefault((g._vmask, seed), {})
    hit = table.get(j)
    if hit is not None:
        return hit
    if j == 0:
        _, w = _alpha_mask(g)
        hit = w, MoveRope.cat(removes(g._ids(seed & ~w)), adds(g._ids(w & ~seed)))
    else:
        parts = table.get(None)
        if parts is None:
            part_masks = _root_child_masks(g)[1] if g.n > 2 else []
            parts = ()
            if not all(pm.bit_count() == 1 for pm in part_masks):
                parts = (part_masks,
                         [memo.setdefault((pm, seed & pm), {}) if seed & pm else None
                          for pm in part_masks],
                         [_alpha_mask(g._derive(pm)) for pm in part_masks])
            table[None] = parts
        if parts:
            hit = yield from _lambda_step_raw(g, j, seed, *parts, memo, check)
        else:
            hit = _class_search(g, j, seed)
    table[j] = hit
    return hit


def lambda_step(g: Graph, k: int, seed, parts: Sequence[frozenset[int]],
                tables: Sequence[Mapping[int, LambdaResult] | None], *,
                check: bool = False) -> LambdaResult:
    """One table-combining step over an explicit module partition.

    The partition must be non-trivial, and for each part meeting the seed
    the table must answer every threshold from 1 up to the seed slice
    size.  Each of those entries is checked once, before the rule loop
    runs: it must be a ``LambdaResult`` whose size matches its set, inside
    its part.  The engine's own tables skip that check and the set round
    trip.  Floor 0 needs none: the rule loop fills in the part's alpha witness.
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
    read: list[dict | None] = []
    for i, (table, pm) in enumerate(zip(tables, part_masks)):
        read.append({} if smask & pm else None)
        for j in range((smask & pm).bit_count(), 0, -1):
            try:
                e = table[j]
            except (LookupError, TypeError):  # TypeError: no table for a part meeting the seed
                raise InputError(f"tables for part {i} lack threshold {j}") from None
            if not isinstance(e, LambdaResult) or e.size != len(e.reached):
                raise InputError(f"malformed table entry for part {i}, threshold {j}")
            rmask = g._mask(e.reached)
            if rmask & ~pm:
                raise InputError(f"table entry for part {i} leaves the part")
            read[i][j] = rmask, e._rope
    alphas = [_alpha_mask(g._derive(pm)) for pm in part_masks]
    return _result(g, seed, k, _run(_lambda_step_raw(g, k, smask, part_masks, read, alphas,
                                                     {}, check)))


def lambda_single(g: Graph, seed, k: int, *, check: bool = False) -> LambdaResult:
    """Largest independent set reachable from the seed under TAR(k)."""
    seed = frozenset(seed)
    smask = _seed_mask(g, seed)
    if k < 0 or k > len(seed):
        raise InputError(f"floor {k} outside [0, {len(seed)}]")
    return _result(g, seed, k, _run(_fill({}, check, g, smask, k)))


def lambda_all(g: Graph, seed, *, check: bool = False) -> dict[int, LambdaResult]:
    """Table of largest reachable sets for every floor from 1 to |seed|."""
    seed = frozenset(seed)
    smask, memo = _seed_mask(g, seed), {}
    return {j: _result(g, seed, j, _run(_fill(memo, check, g, smask, j)))
            for j in range(1, len(seed) + 1)}
