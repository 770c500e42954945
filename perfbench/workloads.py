"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of instances, named in ``workloads.json`` by
generator and generator seed, with the answers they are known to have.
The run seed does not pick other instances and does not relabel
vertices: it shuffles the edge lines of every DIMACS file, the endpoint
order on each line, and the order in which instances are solved.  The
solvers break ties towards smaller vertex IDs, so their work depends on
the labelling: under random relabellings the TJ instance of mixed_w12
does twice the work for 3 seeds in 10, which would make the seed, not the
program, the largest source of variance.  Fixed labels keep answers
known in advance and work equal from seed to seed.

The small "shadow" instances (n <= 14) are drawn from the same generators
with seeds derived from the run seed, so they differ from seed to seed,
and are checked against the brute-force oracle instead of recorded
answers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from isreconf import GenProfile, gen_instance

SPEC_PATH = Path(__file__).with_name("workloads.json")
SHADOW_N = 14


@dataclass(frozen=True)
class Item:
    """One instance as a CLI user would hand it over: DIMACS text and sidecar."""

    name: str
    op: str                  # "tar" | "tj" | "ts" | "lambda"
    graph_text: str
    sidecar_text: str
    expected: object         # "yes"/"no", or the lambda size per floor


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def threshold_instance(seed: int, n: int):
    """Threshold graph on 1..n: each new vertex is isolated or dominating.

    S and T are random maximal independent sets and the floor is drawn in
    1..min(|S|, |T|).  Modular width is 2 and the decomposition is about n
    levels deep.  Returns (n, edges, S, T, k).
    """
    rng = random.Random(seed)
    adj = [0] * n
    edges = []
    for v in range(1, n):
        if rng.random() < 0.5:
            adj[v] = (1 << v) - 1
            for u in range(v):
                adj[u] |= 1 << v
                edges.append((u + 1, v + 1))

    def maximal_independent() -> frozenset[int]:
        order = list(range(n))
        rng.shuffle(order)
        chosen = 0
        for p in order:
            if not adj[p] & chosen:
                chosen |= 1 << p
        return frozenset(p + 1 for p in range(n) if chosen >> p & 1)

    s = maximal_independent()
    t = maximal_independent()
    k = rng.randint(1, min(len(s), len(t)))
    return n, edges, s, t, k


def _structure(entry: dict, n: int):
    """(n, edges, S, T, k) for one instance entry of the spec."""
    if entry["source"] == "threshold":
        return threshold_instance(entry["seed"], n)
    rule = "tar" if entry["op"] == "lambda" else entry["op"]
    g, s, t, k = gen_instance(entry["seed"], GenProfile(n=n, width=entry["width"], rule=rule))
    return g.n, list(g.edges()), s, t, k


def _item(name: str, op: str, structure, rng: random.Random | None, expected) -> Item:
    n, edges, s, t, k = structure
    if rng is not None:
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(edges)
    lines = [f"p edge {n} {len(edges)}\n"]
    lines.extend(f"e {u} {v}\n" for u, v in edges)
    sidecar = {"rule": "tar" if op == "lambda" else op}
    if k is not None:
        sidecar["k"] = k
    sidecar["start"] = sorted(s)
    sidecar["target"] = sorted(t)
    return Item(name, op, "".join(lines), json.dumps(sidecar), expected)


def make_items(spec: dict, seed: int) -> list[Item]:
    """The workload's instances, with edge lines and order shuffled by the run seed."""
    rng = random.Random(f"{spec['name']}:{seed}")
    items = []
    for entry in spec["instances"]:
        name = f"{entry['source']}-{entry['op']}-n{entry['n']}-s{entry['seed']}"
        items.append(_item(name, entry["op"], _structure(entry, entry["n"]), rng,
                           entry["expected"]))
    rng.shuffle(items)
    return items


def make_shadows(spec: dict, seed: int, count: int) -> list[Item]:
    """Small instances of the workload's generators, answers left to the oracle."""
    items = []
    kinds = sorted({(e["source"], e["op"], e.get("width", 2)) for e in spec["instances"]})
    for source, op, width in kinds:
        for i in range(count):
            shadow_seed = 1_000_000 + seed * count + i
            entry = {"source": source, "op": op, "seed": shadow_seed, "width": width}
            items.append(_item(f"shadow-{source}-{op}-s{shadow_seed}", op,
                               _structure(entry, SHADOW_N), None, None))
    return items
