"""Reconfiguration rules: single-step semantics and sequence verification."""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

from .errors import InputError, RuleViolation, SequenceError
from .graph import Graph

TAR = "tar"
TJ = "tj"
TS = "ts"


@dataclass(frozen=True)
class Rule:
    """A reconfiguration rule; TAR carries its size floor k."""

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind == TAR:
            if self.k is None or self.k < 0:
                raise InputError("TAR requires a non-negative threshold k")
        elif self.kind in (TJ, TS):
            if self.k is not None:
                raise InputError(f"{self.kind} does not take a threshold")
        else:
            raise InputError(f"unknown rule kind {self.kind!r}")

    @staticmethod
    def tar(k: int) -> "Rule":
        return Rule(TAR, k)

    @staticmethod
    def tj() -> "Rule":
        return Rule(TJ)

    @staticmethod
    def ts() -> "Rule":
        return Rule(TS)

    def __str__(self) -> str:
        return f"TAR({self.k})" if self.kind == TAR else self.kind.upper()


@dataclass(frozen=True)
class Move:
    """One move: add/remove a token, or jump/slide it from u to v."""

    op: str
    v: int
    u: int | None = None

    @staticmethod
    def add(v: int) -> "Move":
        return Move("add", v)

    @staticmethod
    def remove(v: int) -> "Move":
        return Move("remove", v)

    @staticmethod
    def jump(u: int, v: int) -> "Move":
        return Move("jump", v, u)

    @staticmethod
    def slide(u: int, v: int) -> "Move":
        return Move("slide", v, u)

    def reversed(self) -> "Move":
        if self.op == "add":
            return Move("remove", self.v)
        if self.op == "remove":
            return Move("add", self.v)
        return Move(self.op, self.u, self.v)

    def to_json(self) -> dict:
        if self.u is None:
            return {"op": self.op, "v": self.v}
        return {"op": self.op, "u": self.u, "v": self.v}

    @staticmethod
    def from_json(obj: dict) -> "Move":
        try:
            op = obj["op"]
            v = obj["v"]
        except (TypeError, KeyError):
            raise InputError(f"malformed move object: {_shown(obj)}") from None
        if op in ("add", "remove"):
            return Move(op, _vertex_id(obj, v))
        if op in ("jump", "slide"):
            if "u" not in obj:
                raise InputError(f"{op} move needs a source vertex u: {_shown(obj)}")
            return Move(op, _vertex_id(obj, v), _vertex_id(obj, obj["u"]))
        raise InputError(f"unknown move op {_shown(op)}")


def _shown(value) -> str:
    """A malformed move's repr for an error message: depth and size bounded, then cut to 100."""
    return f"{reprlib.repr(value):.100}"


def _vertex_id(obj: dict, v) -> int:
    """A move's vertex field, which JSON must give as an integer."""
    if type(v) is not int:
        raise InputError(f"move vertices must be integers: {_shown(obj)}")
    return v


@dataclass(frozen=True)
class ReconfSequence:
    """A start set plus moves applied left to right under one rule."""

    rule: Rule
    start: frozenset[int]
    moves: tuple[Move, ...]

    def __len__(self) -> int:
        return len(self.moves)


def step_valid(rule: Rule, g: Graph, current: frozenset[int], move: Move) -> frozenset[int]:
    """Apply one move; return the successor set or raise RuleViolation."""
    cur = g._mask(current)
    if not g._independent(cur):
        raise InputError("current set is not independent")
    return g._idset(_apply(rule, g, cur, move))


def _apply(rule: Rule, g: Graph, cur: int, move: Move) -> int:
    """One move on the position mask of an independent set; the successor mask."""
    if move.op in ("add", "remove"):
        if rule.kind != TAR:
            raise RuleViolation(f"{move.op} moves are only legal under TAR")
        p = g._position(move.v)
        bit = 1 << p
        if move.op == "add":
            if cur & bit:
                raise RuleViolation(f"vertex {move.v} already holds a token")
            if g._adj[p] & cur:
                raise RuleViolation(f"adding {move.v} breaks independence")
            if cur.bit_count() < rule.k:
                raise RuleViolation(f"set size fell below the floor {rule.k}")
            return cur | bit
        if not cur & bit:
            raise RuleViolation(f"vertex {move.v} holds no token to remove")
        if cur.bit_count() - 1 < rule.k:
            raise RuleViolation(f"removal would drop below the floor {rule.k}")
        return cur ^ bit

    if move.op == "jump" and rule.kind != TJ:
        raise RuleViolation("jump moves are only legal under TJ")
    if move.op == "slide" and rule.kind != TS:
        raise RuleViolation("slide moves are only legal under TS")
    u, v = move.u, move.v
    pu = g._position(u)
    pv = g._position(v)
    if not cur & (1 << pu):
        raise RuleViolation(f"vertex {u} holds no token to move")
    if cur & (1 << pv):
        raise RuleViolation(f"vertex {v} already holds a token")
    rest = cur & ~(1 << pu)
    if g._adj[pv] & rest:
        raise RuleViolation(f"moving the token to {v} breaks independence")
    if move.op == "slide" and not g._adj[pu] & (1 << pv):
        raise RuleViolation(f"slide endpoints {u},{v} are not adjacent")
    return rest | (1 << pv)


def verify_sequence(g: Graph, seq: ReconfSequence) -> frozenset[int]:
    """Replay a sequence; return the final set or raise SequenceError.

    The first illegal move aborts verification; its 1-based index and the
    violated clause are reported.  The start is checked once (known IDs,
    independent, at the TAR floor); each move then costs a constant number
    of mask operations, so replay is linear in the sequence length.  The
    current set stays independent by induction, because every move checks
    the vertex gaining a token against the tokens that stay.
    """
    return g._idset(_replay(g, seq))


def _replay(g: Graph, seq: ReconfSequence) -> int:
    """verify_sequence on position masks: the final set's mask."""
    cur = g._mask(seq.start)
    if not g._independent(cur):
        raise InputError("start set is not independent")
    rule = seq.rule
    if rule.kind == TAR and len(seq.start) < rule.k:
        raise InputError("start set is below the TAR floor")
    for i, move in enumerate(seq.moves, start=1):
        try:
            cur = _apply(rule, g, cur, move)
        except (RuleViolation, InputError) as exc:
            raise SequenceError(i, str(exc)) from None
    return cur


def tj_threshold(s: frozenset[int] | set[int]) -> int:
    """TAR floor whose reachability matches TJ for sets of this size."""
    return max(len(s) - 1, 0)
