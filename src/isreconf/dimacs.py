"""DIMACS-like graph files and the JSON instance sidecar."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InputError
from .graph import Graph
from .rules import Rule, TAR, TJ, TS


def parse_graph(text: str) -> Graph:
    """Parse `c` comments, one `p edge <n> <m>` line, then `e <u> <v>` lines.

    Vertex IDs are 1-based; duplicate edges are merged; self-loops and
    out-of-range endpoints are rejected with the offending line number.
    """
    n = None
    adj: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise InputError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n = int(fields[2])
                int(fields[3])
            except ValueError:
                raise InputError(f"line {lineno}: malformed problem line") from None
            if n < 0:
                raise InputError(f"line {lineno}: negative vertex count")
            adj = [0] * n
        elif fields[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before the problem line")
            if len(fields) != 3:
                raise InputError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise InputError(f"line {lineno}: malformed edge line") from None
            if u == v:
                raise InputError(f"line {lineno}: self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"line {lineno}: vertex out of range 1..{n}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        else:
            raise InputError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise InputError("missing problem line 'p edge <n> <m>'")
    return Graph._from_adj(list(range(1, n + 1)), adj)


def emit_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    """A parsed problem: graph, rule, and the two configurations."""

    graph: Graph
    rule: Rule
    start: frozenset[int]
    target: frozenset[int]


def load_sidecar(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"sidecar is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InputError("sidecar must be a JSON object")
    return obj


def build_instance(g: Graph, sidecar: dict, rule_flag: str | None = None,
                   k_flag: int | None = None, check_target_floor: bool = True) -> Instance:
    """Combine graph, sidecar and flag overrides into a checked Instance."""
    kind = rule_flag or sidecar.get("rule")
    if kind not in (TAR, TJ, TS):
        raise InputError(f"rule must be one of tar, tj, ts (got {kind!r})")
    k = k_flag if k_flag is not None else sidecar.get("k")
    if kind == TAR:
        if k is None:
            raise InputError("rule tar requires a threshold k")
        rule = Rule.tar(int(k))
    else:
        rule = Rule(kind)
    try:
        start = frozenset(int(v) for v in sidecar["start"])
        target = frozenset(int(v) for v in sidecar["target"])
    except (KeyError, TypeError, ValueError):
        raise InputError("sidecar must carry integer arrays 'start' and 'target'") from None
    for name, side in (("start", start), ("target", target)):
        if not g.is_independent(side):
            raise InputError(f"{name} set is not independent")
    if kind == TAR:
        floor_sets = (start, target) if check_target_floor else (start,)
        if any(rule.k > len(side) for side in floor_sets):
            raise InputError("TAR threshold exceeds a configuration size")
    return Instance(g, rule, start, target)


def sidecar_json(rule: Rule, start, target) -> str:
    obj: dict = {"rule": rule.kind}
    if rule.kind == TAR:
        obj["k"] = rule.k
    obj["start"] = sorted(start)
    obj["target"] = sorted(target)
    return json.dumps(obj, indent=2) + "\n"
