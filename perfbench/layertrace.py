"""Per-layer tracing of isreconf, installed from outside the package.

The tracer wraps named functions of each ``isreconf`` module once the
package is imported: the module attribute itself and every other ``isreconf`` module's
global that holds the same function object (for example ``alpha`` as
imported into ``tar_reach``), so calls through either name are seen.
Nothing inside ``src/isreconf`` is edited.

Each wrapped call is counted and timed under its layer (the module it
belongs to), and a call that crosses from one layer into another is
recorded as a span: function, instance, parent span, start and end.  A
layer's self time is the duration of its calls minus the time covered by
the wrapped calls they make.  Spans are kept in memory and written out at the end.
``graph.bits`` is deliberately not wrapped: it runs millions of times and
the wrapper would cost more than the work.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

# layer -> (module, owner class or None, function name); names missing from
# the program are skipped, so a refactor that drops one reads as a zero count
TARGETS: dict[str, list[tuple[str, str | None, str]]] = {
    "graph": [("graph", "Graph", name) for name in
              ("_mask", "_idset", "_derive", "delete_vertices", "induced_subgraph")],
    "decomposition": [("decomposition", None, name) for name in
                      ("md_tree", "top_partition", "nd_partition", "modular_width",
                       "is_module")],
    "mis": [("mis", None, name) for name in ("alpha", "_alpha_node", "_alpha_prime")],
    "tar_engine": [("tar_engine", None, name) for name in
                   ("lambda_all", "lambda_single", "lambda_step", "lambda_nd",
                    "_lambda_step_raw", "shrink_module")],
    "tar_reach": [("tar_reach", None, name) for name in
                  ("reach_tar", "reach_tj", "reach_nd", "_reach_tar", "_reach_nd",
                   "_aux_reach_rope", "_empty_module_rope", "empty_module",
                   "reduce_empty_module")],
    "ts_reach": [("ts_reach", None, name) for name in
                 ("reach_ts", "_reach_ts", "ts_big_module", "ts_shrink", "ts_aux_decide")],
    "moveseq": [("moveseq", "MoveRope", "flatten")],
    "rules": [("rules", None, "verify_sequence")],
    "dimacs": [("dimacs", None, name) for name in
               ("parse_graph", "load_sidecar", "build_instance")],
}


class Tracer:
    """Counts, self time by layer, replayed steps, and the span log."""

    def __init__(self):
        self.names: list[str] = []          # function index -> "module.function"
        self.layer_of: list[str] = []       # function index -> layer
        self.installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh measurement; spans not yet written out are dropped."""
        self.calls = [0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.self_s: dict[str, float] = dict.fromkeys(TARGETS, 0.0)
        self.steps_replayed = 0
        self.request = -1                   # the instance the spans belong to
        # open calls: [span id, time covered by children, layer]
        self._stack: list[list] = []
        # span log: one span per call that crosses into another layer; calls
        # within a layer are counted and timed but fold into the caller's span
        self.span_name = array("i")
        self.span_request = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def _wrap(self, index: int, layer: str, fn):
        tracer = self
        replay = fn.__name__ == "verify_sequence"

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            caller = stack[-1] if stack else None
            start = perf_counter()
            if caller is not None and caller[2] == layer:
                frame = [caller[0], 0.0, layer]
                span = -1
            else:
                span = len(tracer.span_name)
                tracer.span_name.append(index)
                tracer.span_request.append(tracer.request)
                tracer.span_parent.append(caller[0] if caller is not None else -1)
                tracer.span_start.append(start)
                tracer.span_end.append(start)
                frame = [span, 0.0, layer]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if span >= 0:
                    tracer.span_end[span] = end
                tracer.calls[index] += 1
                tracer.total_s[index] += took
                tracer.self_s[layer] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if replay:
                    tracer.steps_replayed += len(args[1].moves)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap every target under every name the isreconf modules hold."""
        for layer, targets in TARGETS.items():
            for module_name, owner_name, name in targets:
                module = importlib.import_module(f"isreconf.{module_name}")
                owner = getattr(module, owner_name) if owner_name else module
                fn = owner.__dict__.get(name) if owner_name else getattr(module, name, None)
                if fn is None:
                    continue
                index = len(self.names)
                self.names.append(f"{module_name}.{name}")
                self.layer_of.append(layer)
                wrapper = self._wrap(index, layer, fn)
                if owner_name:
                    self._patch(owner, name, fn, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "isreconf" or mod_name.startswith("isreconf."):
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                self._patch(mod, attr, fn, wrapper)
        self.reset()

    def _patch(self, holder, attr: str, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self.installed.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self.installed):
            setattr(holder, attr, original)
        self.installed.clear()

    def count(self, qualified: str) -> int:
        """Calls of "module.function"; 0 when the program has no such function."""
        try:
            return self.calls[self.names.index(qualified)]
        except ValueError:
            return 0

    def seconds(self, qualified: str) -> float:
        """Inclusive time spent in "module.function"."""
        try:
            return self.total_s[self.names.index(qualified)]
        except ValueError:
            return 0.0

    def write_spans(self, path) -> int:
        """Write the span log as CSV; returns the number of spans.

        Columns: span id, parent span id (-1 at the top), instance index
        (-1 outside any instance), function, layer, start and end in
        seconds from the first span.
        """
        base = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as out:
            out.write("span,parent,request,name,layer,start_s,end_s\n")
            for i in range(len(self.span_name)):
                k = self.span_name[i]
                out.write(f"{i},{self.span_parent[i]},{self.span_request[i]},{self.names[k]},"
                          f"{self.layer_of[k]},{self.span_start[i] - base:.9f},"
                          f"{self.span_end[i] - base:.9f}\n")
        return len(self.span_name)
