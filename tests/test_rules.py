import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isreconf import (InputError, Move, ReconfSequence, Rule, RuleViolation,
                      SequenceError, step_valid, tj_threshold, verify_sequence)
from isreconf.moveseq import MoveRope
from isreconf.rules import TAR, TJ, TS

from helpers import cycle_graph, graph_with_set, graphs, path_graph, random_independent_set


def p3():
    return path_graph([1, 2, 3])


def test_rule_constructors():
    assert str(Rule.tar(2)) == "TAR(2)"
    assert Rule.tj().kind == "tj"
    with pytest.raises(InputError):
        Rule.tar(-1)
    with pytest.raises(InputError):
        Rule("tj", 3)
    with pytest.raises(InputError):
        Rule("nope")


def test_step_valid_tar_add():
    assert step_valid(Rule.tar(1), p3(), frozenset({1}), Move.add(3)) == {1, 3}


def test_step_valid_tar_floor():
    with pytest.raises(RuleViolation):
        step_valid(Rule.tar(1), p3(), frozenset({1}), Move.remove(1))


def test_step_valid_ts_independence():
    c4 = cycle_graph([1, 2, 3, 4])
    with pytest.raises(RuleViolation):
        step_valid(Rule.ts(), c4, frozenset({1, 3}), Move.slide(1, 2))


def test_step_valid_move_kind_must_match_rule():
    with pytest.raises(RuleViolation):
        step_valid(Rule.tj(), p3(), frozenset({1}), Move.add(3))
    with pytest.raises(RuleViolation):
        step_valid(Rule.tar(0), p3(), frozenset({1}), Move.jump(1, 3))
    with pytest.raises(RuleViolation):
        step_valid(Rule.tj(), p3(), frozenset({1}), Move.slide(1, 2))


def test_step_valid_rejects_dependent_current():
    with pytest.raises(InputError, match="current set is not independent"):
        step_valid(Rule.tar(0), p3(), frozenset({1, 2}), Move.remove(1))
    with pytest.raises(InputError, match="current set is not independent"):
        step_valid(Rule.ts(), cycle_graph([1, 2, 3, 4]), frozenset({1, 3, 4}), Move.slide(1, 2))


def test_step_valid_slide_needs_edge():
    with pytest.raises(RuleViolation):
        step_valid(Rule.ts(), p3(), frozenset({1}), Move.slide(1, 3))
    assert step_valid(Rule.ts(), p3(), frozenset({1}), Move.slide(1, 2)) == {2}


def test_verify_empty_sequence():
    seq = ReconfSequence(Rule.tar(1), frozenset({1}), ())
    assert verify_sequence(p3(), seq) == {1}


def test_verify_two_step_sequence():
    seq = ReconfSequence(Rule.tar(1), frozenset({1}), (Move.add(3), Move.remove(1)))
    assert verify_sequence(p3(), seq) == {3}


def test_verify_reports_first_bad_index():
    seq = ReconfSequence(Rule.tar(2), frozenset({1}), (Move.add(3), Move.remove(1)))
    with pytest.raises(InputError):
        # the start itself is below the floor
        verify_sequence(p3(), seq)
    seq = ReconfSequence(Rule.tar(2), frozenset({1, 3}), (Move.remove(1), Move.add(1)))
    with pytest.raises(SequenceError) as err:
        verify_sequence(p3(), seq)
    assert err.value.index == 1


def test_tj_threshold():
    assert tj_threshold({1, 2, 3}) == 2
    assert tj_threshold({1}) == 0
    assert tj_threshold(set()) == 0


def test_move_json_round_trip():
    for m in (Move.add(3), Move.remove(7), Move.jump(1, 2), Move.slide(4, 5)):
        assert Move.from_json(m.to_json()) == m
    with pytest.raises(InputError):
        Move.from_json({"op": "jump", "v": 2})
    with pytest.raises(InputError):
        Move.from_json({"op": "warp", "v": 2})
    for bad in ({"op": "add", "v": [3]}, {"op": "remove", "v": "3"}, {"op": "add", "v": True},
                {"op": "jump", "u": 1.0, "v": 2}, {"op": "slide", "u": 1, "v": None}):
        with pytest.raises(InputError):
            Move.from_json(bad)


def test_move_json_errors_stay_short():
    # each message shows a bounded repr of the malformed input, not all of it
    nested = []
    for _ in range(900):
        nested = [nested]
    long = "x" * 5000
    for bad in (nested, {"op": long, "v": 1}, {"op": nested, "v": 1}, {"op": "add", "v": long},
                {"op": "slide", "v": 1, "pad": long}, {"op": "jump", "u": nested, "v": 2},
                {"op": "remove", "v": 1.5, **{str(i): i for i in range(5000)}}):
        with pytest.raises(InputError) as err:
            Move.from_json(bad)
        assert len(str(err.value)) < 200


def _random_walk(rng, g, start, rule, length):
    """Random legal move walk, built by direct enumeration."""
    current = set(start)
    moves = []
    for _ in range(length):
        options = _legal_moves(g, current, rule)
        if not options:
            break
        move = rng.choice(options)
        moves.append(move)
        _play(current, move)
    return tuple(moves), frozenset(current)


def _legal_moves(g, current, rule):
    options = []
    if rule.kind == "tar":
        if len(current) - 1 >= rule.k:
            options += [Move.remove(v) for v in current]
        for v in g.ids:
            if v not in current and not g.neighborhood({v}) & current:
                options.append(Move.add(v))
    else:
        for u in current:
            rest = current - {u}
            targets = g.neighbors(u) if rule.kind == "ts" else set(g.ids)
            for v in targets:
                if v not in current and not g.neighborhood({v}) & rest:
                    options.append(Move.jump(u, v) if rule.kind == "tj" else Move.slide(u, v))
    return options


def _play(current, move):
    if move.op == "add":
        current.add(move.v)
    elif move.op == "remove":
        current.discard(move.v)
    else:
        current.discard(move.u)
        current.add(move.v)


@settings(max_examples=80, deadline=None)
@given(graph_with_set(), st.integers(0, 2 ** 20))
def test_tar_walks_verify_and_obey_monotonicity(pair, seed):
    g, s = pair
    rng = random.Random(seed)
    k = rng.randint(0, len(s))
    moves, final = _random_walk(rng, g, s, Rule.tar(k), 8)
    seq = ReconfSequence(Rule.tar(k), s, moves)
    assert verify_sequence(g, seq) == final
    if k >= 1:
        lowered = ReconfSequence(Rule.tar(k - 1), s, moves)
        assert verify_sequence(g, lowered) == final


@settings(max_examples=80, deadline=None)
@given(graph_with_set(), st.integers(0, 2 ** 20))
def test_reversed_tar_walks_verify(pair, seed):
    g, s = pair
    rng = random.Random(seed)
    k = rng.randint(0, len(s))
    moves, final = _random_walk(rng, g, s, Rule.tar(k), 8)
    back = tuple(m.reversed() for m in reversed(moves))
    assert verify_sequence(g, ReconfSequence(Rule.tar(k), final, back)) == s


def test_reversed_rope_of_jumps_and_slides_replays_back():
    # a reversed jump or slide runs from its target back to its source
    g = path_graph([1, 2, 3, 4])
    slides = MoveRope.leaf([Move.slide(1, 2), Move.slide(2, 3)])
    back = MoveRope.rev(slides).flatten()
    assert back == (Move.slide(3, 2), Move.slide(2, 1))
    assert verify_sequence(g, ReconfSequence(Rule.ts(), frozenset({3}), back)) == {1}
    jumps = MoveRope.cat(MoveRope.leaf([Move.jump(3, 4)]), MoveRope.leaf([Move.jump(1, 2)]))
    back = MoveRope.rev(jumps).flatten()
    assert back == (Move.jump(2, 1), Move.jump(4, 3))
    assert verify_sequence(g, ReconfSequence(Rule.tj(), frozenset({2, 4}), back)) == {1, 3}


@settings(max_examples=60, deadline=None)
@given(graph_with_set(min_n=2), st.integers(0, 2 ** 20))
def test_tj_walks_convert_to_tar_pairs(pair, seed):
    g, s = pair
    rng = random.Random(seed)
    moves, final = _random_walk(rng, g, s, Rule.tj(), 6)
    assert verify_sequence(g, ReconfSequence(Rule.tj(), s, moves)) == final
    paired = []
    for m in moves:
        paired += [Move.remove(m.u), Move.add(m.v)]
    assert verify_sequence(
        g, ReconfSequence(Rule.tar(tj_threshold(s)), s, tuple(paired))) == final


# -- reference: the set-based replay that rebuilt the current set every move


def _ref_step_valid(rule, g, current, move):
    """Apply one move; return the successor set or raise RuleViolation."""
    cur = g._mask(current)
    if not g.is_independent(current):
        raise InputError("current set is not independent")
    if move.op in ("add", "remove"):
        if rule.kind != TAR:
            raise RuleViolation(f"{move.op} moves are only legal under TAR")
        p = g._pos.get(move.v)
        if p is None or not (g._vmask >> p) & 1:
            raise InputError(f"unknown vertex id {move.v!r}")
        bit = 1 << p
        if move.op == "add":
            if cur & bit:
                raise RuleViolation(f"vertex {move.v} already holds a token")
            if g._adj[p] & cur:
                raise RuleViolation(f"adding {move.v} breaks independence")
            if cur.bit_count() < rule.k:
                raise RuleViolation(f"set size fell below the floor {rule.k}")
            return current | {move.v}
        if not cur & bit:
            raise RuleViolation(f"vertex {move.v} holds no token to remove")
        if cur.bit_count() - 1 < rule.k:
            raise RuleViolation(f"removal would drop below the floor {rule.k}")
        return current - {move.v}

    if move.op == "jump" and rule.kind != TJ:
        raise RuleViolation("jump moves are only legal under TJ")
    if move.op == "slide" and rule.kind != TS:
        raise RuleViolation("slide moves are only legal under TS")
    u, v = move.u, move.v
    pu = g._pos.get(u)
    pv = g._pos.get(v)
    if pu is None or not (g._vmask >> pu) & 1:
        raise InputError(f"unknown vertex id {u!r}")
    if pv is None or not (g._vmask >> pv) & 1:
        raise InputError(f"unknown vertex id {v!r}")
    if not cur & (1 << pu):
        raise RuleViolation(f"vertex {u} holds no token to move")
    if cur & (1 << pv):
        raise RuleViolation(f"vertex {v} already holds a token")
    if g._adj[pv] & (cur & ~(1 << pu)):
        raise RuleViolation(f"moving the token to {v} breaks independence")
    if move.op == "slide" and not g._adj[pu] & (1 << pv):
        raise RuleViolation(f"slide endpoints {u},{v} are not adjacent")
    return (current - {u}) | {v}


def _ref_verify_sequence(g, seq):
    """Replay a sequence; return the final set or raise SequenceError."""
    if not g.is_independent(seq.start):
        raise InputError("start set is not independent")
    if seq.rule.kind == TAR and len(seq.start) < seq.rule.k:
        raise InputError("start set is below the TAR floor")
    current = frozenset(seq.start)
    for i, move in enumerate(seq.moves, start=1):
        try:
            current = _ref_step_valid(seq.rule, g, current, move)
        except (RuleViolation, InputError) as exc:
            raise SequenceError(i, str(exc)) from None
    return current


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except SequenceError as exc:
        return "SequenceError", exc.index, exc.reason
    except (InputError, RuleViolation) as exc:
        return type(exc).__name__, str(exc)


def _mixed_moves(rng, g, start, rule, length):
    """Mostly legal moves for the rule, the rest of any kind, often on unknown IDs."""
    ids = list(g.ids) + [0, g.n + 1]     # graphs() numbers vertices 1..n
    current = set(start)
    moves = []
    for _ in range(length):
        sound = current <= g.vertices and g.is_independent(current)
        options = _legal_moves(g, current, rule) if sound else []
        if options and rng.random() < 0.8:
            move = rng.choice(options)
        else:
            op = rng.choice(("add", "remove", "jump", "slide"))
            u = rng.choice(sorted(current)) if current and rng.random() < 0.5 else rng.choice(ids)
            v = rng.choice(ids)
            move = Move(op, v) if op in ("add", "remove") else Move(op, v, u)
        moves.append(move)
        _play(current, move)
    return tuple(moves)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=8), st.integers(0, 2 ** 30))
def test_mask_replay_matches_set_replay(g, seed):
    rng = random.Random(seed)
    if rng.random() < 0.8:
        start = random_independent_set(rng, g)
    else:  # possibly dependent, possibly naming an unknown ID
        start = frozenset(rng.sample(list(g.ids) + [0], rng.randint(0, g.n)))
    for rule in [Rule.tar(k) for k in range(len(start) + 2)] + [Rule.tj(), Rule.ts()]:
        moves = _mixed_moves(rng, g, start, rule, rng.randint(0, 12))
        seq = ReconfSequence(rule, start, moves)
        assert _outcome(verify_sequence, g, seq) == _outcome(_ref_verify_sequence, g, seq)
        for move in moves[:3]:
            assert (_outcome(step_valid, rule, g, start, move)
                    == _outcome(_ref_step_valid, rule, g, start, move))
