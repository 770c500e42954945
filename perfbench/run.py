#!/usr/bin/env python3
"""Certified-solve benchmark for isreconf.

One workload, one process, one client, closed loop:

    python3 perfbench/run.py --workload mixed_w12 --seed 0 --seconds 55 --trace 0

Each iteration takes the workload's instances one after another, as a CLI
user would: it loads one through the CLI path (``parse_graph``,
``load_sidecar``, ``build_instance``) from DIMACS text made before timing
starts, then solves, certifies and checks it, and drops it before the
next.  Iterations repeat until ``--seconds`` is used up (at least three).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``, nothing wrapped), in seconds at the
reference speed (see ``REF_CHUNK_S``; the unscaled wall medians are
printed on the line before the result):
  suite_s      median over iterations of the time to solve, certify and
               check every instance of the workload
  solve_s_p50  median time of one instance's solve + certify + check,
               pooled over iterations (the sample count is printed)
  setup_s      median over iterations of the time to load every instance
  peak_rss_mb  peak resident memory of the process (one instance is
               held at a time)

Per-layer metrics (``--trace 1``) come from wrapping the package's
functions from outside (see ``layertrace.py``); counts are per iteration and
must repeat exactly, times are medians over iterations, each scaled to the
reference speed by its iteration's factor.

A failure is a wrong answer against ``workloads.json``, a certificate or
lambda sequence that does not replay to its set, a lambda table that is
not independent, sized or monotone, an exception (``RecursionError``
included), a shadow instance on which the oracle disagrees, or an
iteration whose output digest (answers, lambda sizes, certificate moves)
or trace counts differ from the first iteration's.

Without ``--workload`` every workload runs in a fresh process, untraced
once and traced twice; the table of metrics with units, the fail ratio
and the tracing overhead are printed, and ``.perfbench/summary.json`` is
written.  Non-zero exit when any run fails, digests differ between the
runs, or the two traced runs count differently.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_ITERATIONS = 3
SHADOWS_PER_KIND = 6

E2E_METRICS = [("suite_s", "s"), ("solve_s_p50", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# per-layer metric -> (unit, how it is read); "calls" sums the named functions'
# call counts, "self" is a layer's self time, "total" a function's inclusive time
LAYER_METRICS = {
    "graph.convert_calls": ("count", "calls", ["graph._mask", "graph._idset"]),
    "graph.derive_calls": ("count", "calls", ["graph._derive"]),
    "graph.self_s": ("s", "self", "graph"),
    "decomposition.md_tree_calls": ("count", "calls", ["decomposition.md_tree"]),
    "decomposition.top_partition_calls": ("count", "calls", ["decomposition.top_partition"]),
    "decomposition.nd_partition_calls": ("count", "calls", ["decomposition.nd_partition"]),
    "decomposition.self_s": ("s", "self", "decomposition"),
    "decomposition.max_prime_fanout": ("count", "input", "max_prime_fanout"),
    "decomposition.depth": ("count", "input", "depth"),
    "mis.alpha_calls": ("count", "calls", ["mis.alpha"]),
    "mis.alpha_node_calls": ("count", "calls", ["mis._alpha_node"]),
    "mis.prime_calls": ("count", "calls", ["mis._alpha_prime"]),
    "mis.self_s": ("s", "self", "mis"),
    "tar_engine.lambda_single_calls": ("count", "calls", ["tar_engine.lambda_single"]),
    "tar_engine.lambda_nd_calls": ("count", "calls", ["tar_engine.lambda_nd"]),
    "tar_engine.self_s": ("s", "self", "tar_engine"),
    "stats.rule_applications": ("count", "stats", "rule_applications"),
    "tar_reach.reach_calls": ("count", "calls", ["tar_reach._reach_tar", "tar_reach._reach_nd"]),
    "tar_reach.self_s": ("s", "self", "tar_reach"),
    "stats.nodes_deleted": ("count", "stats", "nodes_deleted"),
    "ts_reach.aux_decide_calls": ("count", "calls", ["ts_reach.ts_aux_decide"]),
    "ts_reach.self_s": ("s", "self", "ts_reach"),
    "moveseq.flatten_s": ("s", "total", "moveseq.flatten"),
    "moveseq.cert_moves": ("count", "cert_moves", None),
    "rules.verify_s": ("s", "total", "rules.verify_sequence"),
    "rules.steps_replayed": ("count", "steps_replayed", None),
    "dimacs.parse_s": ("s", "total", "dimacs.parse_graph"),
    "trace.suite_s": ("s", "suite", None),
}


# The host's speed drifts by a third and more over minutes, far more than
# a run can average out.  So a fixed pure-Python kernel (big-int masks,
# small sets, a dict, as the solvers use them) runs after every timed
# segment (one instance's load or solve) and once before the first, for
# about REF_SHARE of the segment's time.  Each segment is then scaled by
# REF_CHUNK_S / (the kernel's mean chunk time over the runs within
# REF_WINDOW_S of the segment): the metrics read as seconds at the speed at
# which one chunk takes REF_CHUNK_S, about its time on the 2-core test
# machine at its faster speed.  The window averages out the kernel's own
# short-term noise and still follows drifts that last minutes.  The kernel
# does not touch isreconf, so a change to the package moves the metrics in
# full.
REF_CHUNK_S = 0.01
REF_SHARE = 0.05
REF_WINDOW_S = 10.0
REF_MIN_CHUNKS, REF_MAX_CHUNKS = 5, 50
_REF_RNG = random.Random(7)
_REF_MASKS = [_REF_RNG.getrandbits(1500) for _ in range(64)]


def _reference_chunk() -> None:
    masks = _REF_MASKS
    table = {}
    acc = 0
    for r in range(60):
        lo = r & 31
        other = {k for k in range(lo, lo + 40)}
        for i, m in enumerate(masks):
            acc ^= (m & ~masks[(i + r) & 63]).bit_count()
            table[i, r & 7] = len({j for j in range(i, i + 40)} & other)


class Reference:
    """Runs of the reference kernel, and the scaling of timed segments by them."""

    def __init__(self) -> None:
        self.runs: list[tuple[float, float, int]] = []     # (midpoint, seconds, chunks)

    def run(self, segment_s: float = 0.0) -> None:
        chunks = min(REF_MAX_CHUNKS,
                     max(REF_MIN_CHUNKS, round(REF_SHARE * segment_s / REF_CHUNK_S)))
        t0 = time.perf_counter()
        for _ in range(chunks):
            _reference_chunk()
        t1 = time.perf_counter()
        self.runs.append(((t0 + t1) / 2, t1 - t0, chunks))

    def scale(self, segment: tuple[float, float]) -> float:
        """The (start, end) segment's duration at the reference speed."""
        start, end = segment
        near = [(secs, chunks) for mid, secs, chunks in self.runs
                if start - REF_WINDOW_S <= mid <= end + REF_WINDOW_S]
        per_chunk = sum(secs for secs, _ in near) / sum(chunks for _, chunks in near)
        return (end - start) * REF_CHUNK_S / per_chunk


class Failure(Exception):
    """A wrong or unverifiable result."""


def _load(item):
    from isreconf.dimacs import build_instance, load_sidecar, parse_graph
    g = parse_graph(item.graph_text)
    return build_instance(g, load_sidecar(item.sidecar_text),
                          check_target_floor=item.op != "lambda")


def _solve(item, inst):
    """Solve, certify and check one instance; returns (answer, certificate moves)."""
    from isreconf import lambda_all, reach_tar, reach_tj, reach_ts, verify_sequence
    g = inst.graph
    if item.op == "ts":
        return ("yes" if reach_ts(g, inst.start, inst.target) else "no"), 0
    if item.op == "lambda":
        table = lambda_all(g, inst.start)
        sizes, moves = [], 0
        for j in sorted(table):
            entry = table[j]
            seq = entry.sequence
            moves += len(seq.moves)
            if verify_sequence(g, seq) != entry.reached:
                raise Failure(f"floor {j}: sequence does not end at the reached set")
            if not g.is_independent(entry.reached) or entry.size != len(entry.reached):
                raise Failure(f"floor {j}: reached set is not independent or missized")
            if sizes and entry.size > sizes[-1]:
                raise Failure(f"floor {j}: size grows as the floor rises")
            sizes.append(entry.size)
        return sizes, moves
    if item.op == "tar":
        ans = reach_tar(g, inst.rule.k, inst.start, inst.target)
    else:
        ans = reach_tj(g, inst.start, inst.target)
    if not ans.reachable:
        return "no", 0
    seq = ans.certificate
    if verify_sequence(g, seq) != inst.target:
        raise Failure("certificate does not end at the target")
    return "yes", len(seq.moves)


def _oracle(item, inst, answer) -> None:
    from isreconf import oracle_lambda, oracle_reach
    if item.op == "lambda":
        want = [oracle_lambda(inst.graph, inst.start, j) for j in range(1, len(inst.start) + 1)]
    else:
        want = "yes" if oracle_reach(inst.rule, inst.graph, inst.start, inst.target) else "no"
    if answer != want:
        raise Failure(f"oracle says {want}, solver says {answer}")


def _run_item(item, inst, log):
    """(answer, moves) or None on failure, which is logged to stderr."""
    try:
        if inst is None:
            inst = _load(item)
        answer, moves = _solve(item, inst)
        if item.expected is None:
            _oracle(item, inst, answer)
        elif answer != item.expected:
            raise Failure(f"expected {item.expected}, got {answer}")
        return answer, moves
    except Exception as exc:            # every failure kind is counted, none aborts the run
        log(f"FAIL {item.name}: {type(exc).__name__}: {exc}")
        return None


def _describe(items) -> dict:
    """Largest prime fanout and tree depth over the workload's inputs."""
    from isreconf import md_tree
    fanout = depth = 0
    for item in items:
        tree = md_tree(_load(item).graph)
        stack = [(tree, 1)]
        while stack:
            node, level = stack.pop()
            depth = max(depth, level)
            if node.kind == "prime":
                fanout = max(fanout, len(node.children))
            stack.extend((c, level + 1) for c in node.children)
    return {"max_prime_fanout": fanout, "depth": depth}


def _layer_sample(tracer, counters: dict, cert_moves: int) -> dict:
    """Per-layer metric values of one traced iteration (input metrics and
    ``trace.suite_s``, which is scaled at the end of the run, excluded)."""
    values = {}
    for metric, (_, how, what) in LAYER_METRICS.items():
        if how == "calls":
            values[metric] = sum(tracer.count(name) for name in what)
        elif how == "self":
            values[metric] = tracer.self_s[what]
        elif how == "total":
            values[metric] = tracer.seconds(what)
        elif how == "stats":
            values[metric] = counters[what]
        elif how == "cert_moves":
            values[metric] = cert_moves
        elif how == "steps_replayed":
            values[metric] = tracer.steps_replayed
    return values


def run_workload(items, shadows, seconds: float, tracer=None, log=print) -> dict:
    """Measure one workload; returns the metric values plus bookkeeping."""
    from isreconf import stats
    attempted = failed = 0
    for item in shadows:                # outside the timed region, never traced
        attempted += 1
        failed += _run_item(item, None, log) is None

    if tracer is not None:
        tracer.install()
    ref = Reference()
    loads, runs, samples = [], [], []     # (start, end) segments per iteration
    first = None
    began = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        ref.run()
        loads_now, runs_now, records = [], [], []
        counters = {"rule_applications": 0, "nodes_deleted": 0}
        for index, item in enumerate(items):
            attempted += 1
            gc.collect()
            stats.reset()
            if tracer is not None:
                tracer.request = index
            s0 = time.perf_counter()
            try:
                inst = _load(item)
            except Exception as exc:    # a load error fails that instance only
                log(f"FAIL {item.name}: load: {type(exc).__name__}: {exc}")
                inst = None
            loads_now.append((s0, time.perf_counter()))
            ref.run(loads_now[-1][1] - s0)
            s0 = time.perf_counter()
            out = None if inst is None else _run_item(item, inst, log)
            runs_now.append((s0, time.perf_counter()))
            del inst
            ref.run(runs_now[-1][1] - s0)
            for key in counters:
                counters[key] += stats.get(key)
            failed += out is None
            records.append([item.name, out])
        t2 = time.perf_counter()
        loads.append(loads_now)
        runs.append(runs_now)

        # the digest covers answers, lambda sizes and certificate moves
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        counts = None
        if tracer is not None:
            cert_moves = sum(out[1] for _, out in records if out)
            samples.append(_layer_sample(tracer, counters, cert_moves))
            counts = (tuple(tracer.calls),
                      [v for k, v in samples[-1].items() if LAYER_METRICS[k][0] == "count"])
        if first is None:
            first = (digest, counts)
        elif (digest, counts) != first:
            log(f"FAIL iteration {len(runs)}: output digest or trace counts differ")
            attempted += 1
            failed += 1
        elapsed = time.perf_counter() - began
        if len(runs) >= MIN_ITERATIONS and elapsed + (t2 - t0) > seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    setups = [sum(ref.scale(seg) for seg in it) for it in loads]
    suites = [sum(ref.scale(seg) for seg in it) for it in runs]
    solves = [ref.scale(seg) for it in runs for seg in it]

    def wall(segments):
        return statistics.median(sum(end - start for start, end in it) for it in segments)

    result = {
        "attempted": attempted,
        "failed": failed,
        "iterations": len(runs),
        "digest": first[0],
        "solve_samples": len(solves),
        "per_instance": {item.name: statistics.median(ref.scale(it[i]) for it in runs)
                         for i, item in enumerate(items)},
        "setups": setups,
        "suites": suites,
        "wall": {"setup_s": wall(loads), "suite_s": wall(runs),
                 "solve_s_p50": statistics.median(end - start for it in runs for start, end in it)},
        "e2e": {
            "suite_s": statistics.median(suites),
            "solve_s_p50": statistics.median(solves),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if tracer is not None:
        # layer times are scaled by their iteration's overall reference factor
        for sample, setup, suite, loads_now, runs_now in zip(samples, setups, suites, loads, runs):
            wall_s = sum(end - start for start, end in loads_now + runs_now)
            factor = (setup + suite) / wall_s
            for key in sample:
                if LAYER_METRICS[key][0] == "s":
                    sample[key] *= factor
            sample["trace.suite_s"] = suite
        # counts repeat across iterations, so the first stands for all; times are medians
        layers = {k: (v if LAYER_METRICS[k][0] == "count"
                      else statistics.median(sample[k] for sample in samples))
                  for k, v in samples[0].items()}
        layers.update((f"decomposition.{k}", v) for k, v in _describe(items).items())
        result["layers"] = layers
    return result


def run_one(args) -> int:
    from layertrace import Tracer
    from workloads import load_spec, make_items, make_shadows
    specs = load_spec()["workloads"]
    if args.workload not in specs:
        print(f"unknown workload {args.workload!r}; choose from {sorted(specs)}", file=sys.stderr)
        return 2
    spec = specs[args.workload]
    items = make_items(spec, args.seed)
    shadows = make_shadows(spec, args.seed, SHADOWS_PER_KIND)
    tracer = Tracer() if args.trace else None
    res = run_workload(items, shadows, args.seconds, tracer,
                       log=lambda msg: print(msg, file=sys.stderr))

    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        spans = tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.csv")
        metrics = {name: {"value": res["layers"][name], "unit": LAYER_METRICS[name][0]}
                   for name in LAYER_METRICS}
        print(f"{args.workload} seed={args.seed} traced: {res['iterations']} iterations, "
              f"{spans} spans of the last one in .perfbench/")
    else:
        metrics = {name: {"value": res["e2e"][name], "unit": unit} for name, unit in E2E_METRICS}
        print(f"{args.workload} seed={args.seed}: {res['iterations']} iterations, "
              f"solve_s_p50 over {res['solve_samples']} samples, "
              f"fail_ratio {res['failed']}/{res['attempted']}")
        print("unscaled wall medians " + " ".join(f"{k} {v:.4f}" for k, v in res["wall"].items()))
        print("per-instance medians " + " ".join(f"{k} {v:.4f}"
                                                  for k, v in res["per_instance"].items()))
        print("setup_s samples " + " ".join(f"{v:.3f}" for v in res["setups"]))
        print("suite_s samples " + " ".join(f"{v:.3f}" for v in res["suites"]))
    print(f"digest {res['digest']}")
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def _child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], int]:
    """Run one workload in a fresh process; returns (result, stdout lines, exit code)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return result, lines, proc.returncode


def _digest(lines: list[str]) -> str:
    return next((ln.split()[1] for ln in lines if ln.startswith("digest ")), "")


def run_all(args) -> int:
    from workloads import load_spec
    ok = True
    summary = {}
    print(f"{'workload':<14}{'metric':<36}{'value':>14}  unit")
    for workload in load_spec()["workloads"]:
        plain, lines, code = _child(workload, args.seed, args.seconds, 0)
        traced = [_child(workload, args.seed, args.seconds, 1) for _ in range(2)]
        ok &= code == 0 and all(t[2] == 0 for t in traced)
        digest = _digest(lines)
        same_answers = all(_digest(t[1]) == digest for t in traced)
        counted = [{k: v["value"] for k, v in t[0]["metrics"].items() if v["unit"] == "count"}
                   for t in traced]
        ok &= same_answers and counted[0] == counted[1]
        rows = dict(plain["metrics"])
        rows["fail_ratio"] = {"value": plain["failed"] / plain["attempted"], "unit": "ratio"}
        rows.update(traced[0][0]["metrics"])
        overhead = (traced[0][0]["metrics"].get("trace.suite_s", {}).get("value", 0.0)
                    - plain["metrics"].get("suite_s", {}).get("value", 0.0))
        rows["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"{workload:<14}{lines[0] if lines else 'no output'}")
        for name, m in rows.items():
            print(f"{workload:<14}{name:<36}{m['value']:>14.6g}  {m['unit']}")
        print(f"{workload:<14}{'answers equal traced/untraced':<36}{str(same_answers):>14}")
        print(f"{workload:<14}{'counts equal across traced runs':<36}"
              f"{str(counted[0] == counted[1]):>14}")
        summary[workload] = {"metrics": rows, "digest": digest, "attempted": plain["attempted"],
                             "failed": plain["failed"], "answers_equal": same_answers,
                             "counts_repeat": counted[0] == counted[1]}
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isreconf" / "__init__.py").is_file():
        print(f"no isreconf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
