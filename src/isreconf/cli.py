"""Command-line front end.

Commands: decompose, alpha, lambda, solve, verify, oracle, gen, bench.
Results are JSON on stdout.  Exit codes: 0 for a completed run (yes or
no alike, also when the reader closes stdout early), 2 for input errors,
3 for internal failures such as a certificate that does not verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import stats
from .decomposition import MDNode, md_tree, modular_width, nd_partition
from .dimacs import Instance, build_instance, emit_graph, load_sidecar, parse_graph, sidecar_json
from .errors import InputError, InternalError, OracleCapError, SequenceError
from .graph import Graph
from .mis import alpha
from .oracle import GenProfile, gen_instance, oracle_cap, oracle_reach
from .rules import Move, ReconfSequence, Rule, TAR, TJ, TS, verify_sequence
from .tar_engine import lambda_single
from .tar_reach import reach_tar, reach_tj
from .ts_reach import reach_ts


def _emit(obj: dict, compact: bool) -> None:
    print(json.dumps(obj) if compact else json.dumps(obj, indent=2))


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_graph(args) -> Graph:
    return parse_graph(_read(args.graph))


def _load_instance(args, check_target_floor: bool = True) -> Instance:
    g = _load_graph(args)
    sidecar_path = args.sidecar or args.graph + ".json"
    sidecar = load_sidecar(_read(sidecar_path))
    return build_instance(g, sidecar, getattr(args, "rule", None), getattr(args, "k", None),
                          check_target_floor=check_target_floor)


def _parse_profile(text: str) -> GenProfile:
    fields = {}
    for item in text.split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        fields[key.strip()] = value.strip()
    try:
        n = int(fields.pop("n"))
        width = int(fields.pop("width", 4))
        rule = fields.pop("rule", TAR)
    except (KeyError, ValueError):
        raise InputError(f"profile must look like n=20,width=4[,rule=tar]: {text!r}") from None
    if fields:
        raise InputError(f"unknown profile keys: {sorted(fields)}")
    return GenProfile(n=n, width=width, rule=rule)


def _tree_json(node: MDNode) -> dict:
    if node.kind == "leaf":
        return {"kind": "leaf", "v": node.vertex}
    return {"kind": node.kind, "children": [_tree_json(c) for c in node.children]}


def _sequence_json(seq: ReconfSequence) -> list[dict]:
    return [m.to_json() for m in seq.moves]


def _run_stats(g: Graph, started: float, skip_width: bool = False) -> dict:
    return {
        "width": None if skip_width else modular_width(g),
        "nodes_deleted": stats.get("nodes_deleted"),
        "rule_applications": stats.get("rule_applications"),
        "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
    }


def cmd_decompose(args) -> int:
    g = _load_graph(args)
    started = time.perf_counter()
    tree = md_tree(g)
    classes = nd_partition(g)
    _emit({
        "answer": "ok",
        "n": g.n,
        "m": g.m,
        "width": modular_width(g),
        "nd": len(classes),
        "classes": [{"kind": c.kind, "members": sorted(c.members)} for c in classes],
        "tree": _tree_json(tree),
        "stats": _run_stats(g, started),
    }, args.json)
    return 0


def cmd_alpha(args) -> int:
    g = _load_graph(args)
    started = time.perf_counter()
    best = alpha(g)
    _emit({
        "answer": "ok",
        "size": best.size,
        "set": sorted(best.witness),
        "stats": _run_stats(g, started),
    }, args.json)
    return 0


def cmd_lambda(args) -> int:
    inst = _load_instance(args, check_target_floor=False)
    if inst.rule.kind != TAR:
        raise InputError("lambda is defined for rule tar only")
    started = time.perf_counter()
    result = lambda_single(inst.graph, inst.start, inst.rule.k)
    out = {
        "answer": "ok",
        "size": result.size,
        "set": sorted(result.reached),
        "stats": _run_stats(inst.graph, started),
    }
    if args.certify:
        seq = result.sequence
        final = verify_sequence(inst.graph, seq)
        if final != result.reached:
            raise InternalError("witness sequence does not end at the reported set")
        out["sequence"] = _sequence_json(seq)
    _emit(out, args.json)
    return 0


def cmd_solve(args) -> int:
    inst = _load_instance(args)
    g, rule = inst.graph, inst.rule
    started = time.perf_counter()
    if rule.kind == TS:
        if args.certify:
            raise InputError("certificates are not available under ts")
        yes = reach_ts(g, inst.start, inst.target)
        answer = None
    else:
        answer = (reach_tar(g, rule.k, inst.start, inst.target) if rule.kind == TAR
                  else reach_tj(g, inst.start, inst.target))
        yes = answer.reachable
    out = {"answer": "yes" if yes else "no",
           "stats": _run_stats(g, started)}
    if args.certify and yes:
        seq = answer.certificate
        final = verify_sequence(g, seq)
        if final != inst.target:
            raise InternalError("certificate does not end at the target set")
        out["sequence"] = _sequence_json(seq)
    _emit(out, args.json)
    return 0


def cmd_verify(args) -> int:
    inst = _load_instance(args)
    try:
        payload = json.loads(_read(args.sequence))
    except json.JSONDecodeError as exc:
        raise InputError(f"sequence file is not valid JSON: {exc}") from None
    if not isinstance(payload, list):
        raise InputError("sequence file must be a JSON array of moves")
    moves = tuple(Move.from_json(m) for m in payload)
    seq = ReconfSequence(inst.rule, inst.start, moves)
    started = time.perf_counter()
    try:
        final = verify_sequence(inst.graph, seq)
    except SequenceError as exc:
        _emit({"answer": "invalid", "index": exc.index, "reason": exc.reason,
               "stats": _run_stats(inst.graph, started, skip_width=True)}, args.json)
        return 0
    ok = final == inst.target
    _emit({
        "answer": "valid" if ok else "invalid",
        "final": sorted(final),
        "matches_target": ok,
        "stats": _run_stats(inst.graph, started, skip_width=True),
    }, args.json)
    return 0


def cmd_oracle(args) -> int:
    inst = _load_instance(args)
    started = time.perf_counter()
    yes = oracle_reach(inst.rule, inst.graph, inst.start, inst.target)
    _emit({"answer": "yes" if yes else "no",
           "stats": _run_stats(inst.graph, started, skip_width=True)}, args.json)
    return 0


def cmd_gen(args) -> int:
    profile = _parse_profile(args.profile)
    g, s, t, k = gen_instance(args.seed, profile)
    rule = Rule.tar(k) if profile.rule == TAR else Rule(profile.rule)
    graph_path = Path(str(args.out) + ".gr")
    sidecar_path = Path(str(graph_path) + ".json")
    graph_path.write_text(emit_graph(g))
    sidecar_path.write_text(sidecar_json(rule, s, t))
    _emit({
        "answer": "ok",
        "graph": str(graph_path),
        "sidecar": str(sidecar_path),
        "n": g.n,
        "m": g.m,
        "rule": profile.rule,
        "k": k,
        "start_size": len(s),
        "target_size": len(t),
    }, args.json)
    return 0


def _bench_one(task: tuple[int, str, int | None]) -> dict:
    seed, profile_text, cap = task
    profile = _parse_profile(profile_text)
    g, s, t, k = gen_instance(seed, profile)
    stats.reset()
    solver_started = time.perf_counter()
    if profile.rule == TAR:
        answer = reach_tar(g, k, s, t).reachable
    elif profile.rule == TJ:
        answer = reach_tj(g, s, t).reachable
    else:
        answer = reach_ts(g, s, t)
    solver_ms = (time.perf_counter() - solver_started) * 1000
    oracle_ms = ""
    rule = Rule.tar(k) if profile.rule == TAR else Rule(profile.rule)
    if g.n <= (cap if cap is not None else oracle_cap()):
        oracle_started = time.perf_counter()
        oracle_answer = oracle_reach(rule, g, s, t, cap=cap)
        oracle_ms = f"{(time.perf_counter() - oracle_started) * 1000:.3f}"
        if oracle_answer != answer:
            raise InternalError(f"seed {seed}: solver disagrees with the oracle")
    return {
        "instance_id": seed,
        "n": g.n,
        "m": g.m,
        "width": modular_width(g),
        "rule": profile.rule,
        "k": "" if k is None else k,
        "answer": "yes" if answer else "no",
        "solver_ms": f"{solver_ms:.3f}",
        "oracle_ms": oracle_ms,
    }


def cmd_bench(args) -> int:
    try:
        first, _, last = args.seeds.partition(":")
        seeds = range(int(first), int(last))
    except ValueError:
        raise InputError(f"--seeds must look like 0:20: {args.seeds!r}") from None
    tasks = [(seed, args.profile, args.oracle_cap) for seed in seeds]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_bench_one, tasks))
    else:
        rows = [_bench_one(t) for t in tasks]
    header = ["instance_id", "n", "m", "width", "rule", "k", "answer", "solver_ms", "oracle_ms"]
    print(",".join(header))
    for row in rows:
        print(",".join(str(row[h]) for h in header))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isreconf",
        description="Independent set reconfiguration under TAR, TJ and TS.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument("graph", help="graph file (DIMACS-like: p edge / e lines)")
        p.add_argument("--json", action="store_true", help="compact single-line JSON")

    def add_instance(p):
        add_graph(p)
        p.add_argument("--sidecar", help="instance sidecar (default: <graph>.json)")
        p.add_argument("--rule", choices=(TAR, TJ, TS), help="override the sidecar rule")
        p.add_argument("--k", type=int, help="override the TAR threshold")

    p = sub.add_parser("decompose", help="modular decomposition, widths, twin classes")
    add_graph(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("alpha", help="maximum independent set")
    add_graph(p)
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("lambda", help="largest reachable set under TAR(k)")
    add_instance(p)
    p.add_argument("--certify", action="store_true", help="emit and re-verify the sequence")
    p.set_defaults(fn=cmd_lambda)

    p = sub.add_parser("solve", help="decide reachability")
    add_instance(p)
    p.add_argument("--certify", action="store_true", help="emit and re-verify the certificate")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="replay a sequence file against an instance")
    add_instance(p)
    p.add_argument("--sequence", required=True, help="JSON array of moves")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force reachability (small graphs)")
    add_instance(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("gen", help="write a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", required=True, help="n=<int>,width=<int>[,rule=tar|tj|ts]")
    p.add_argument("--out", default="instance", help="output path prefix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="solve a seed range, print CSV timings")
    p.add_argument("--seeds", required=True, help="half-open seed range, e.g. 0:20")
    p.add_argument("--profile", required=True, help="n=<int>,width=<int>[,rule=...]")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--oracle-cap", type=int, default=None,
                   help="run the oracle column up to this many vertices")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    stats.reset()
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except (InputError, OracleCapError) as exc:
        print(json.dumps({"answer": "error", "error": str(exc)}), file=sys.stderr)
        return 2
    except InternalError as exc:
        print(json.dumps({"answer": "error", "error": f"internal: {exc}"}), file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader stopped reading (say, `| head`) after the run completed;
        # stdout goes to devnull so that the exit-time flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
