"""Maximum independent set by dynamic programming over the decomposition tree.

Alpha and a witness position mask are kept in each module subgraph's memo,
so they are computed once per module of a graph; prime quotients are solved
by memoised branching, at worst ``2^width`` subproblems per prime node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import _fold
from .graph import Graph, bits


@dataclass(frozen=True)
class AlphaResult:
    size: int
    witness: frozenset[int]


def alpha(g: Graph) -> AlphaResult:
    """Size and witness of a maximum independent set.

    Parallel nodes sum their children and series nodes keep the first
    best child.  A prime node with r children finds the heaviest
    independent set of its quotient, each child weighted by its alpha, by
    memoised branching on the highest child index: at most ``2^r``
    subproblems.  Ties go to the fewest children, then to the numerically
    smallest child-index mask, so witnesses are deterministic.
    """
    size, mask = _alpha_mask(g)
    return AlphaResult(size, g._idset(mask))


def _alpha_mask(g: Graph) -> tuple[int, int]:
    """Alpha and a witness position mask, memoised per module subgraph.

    Unsolved module subgraphs are solved children first; disjoint
    children's masks add.
    """
    return _fold(g, "alpha_mask", lambda h: (h.n, h._vmask), _alpha_node)


def _alpha_node(g: Graph, kind: str, masks: list[int], parts: list[tuple[int, int]]) -> tuple[int, int]:
    """Alpha and witness mask of a module subgraph from its children's."""
    if kind == "parallel":
        return sum(p[0] for p in parts), sum(p[1] for p in parts)
    if kind == "series":
        return max(parts, key=lambda p: p[0])
    return _alpha_prime(g, masks, parts)


def _alpha_prime(g: Graph, child_masks: list[int], parts: list[tuple[int, int]]) -> tuple[int, int]:
    # the quotient the prime split left on g, rows in ``child_masks`` order
    size, _, negm = _heaviest((1 << len(child_masks)) - 1, g._memo["quotient"],
                              [p[0] for p in parts], {0: (0, 0, 0)})
    return size, sum(parts[i][1] for i in bits(-negm))


def _heaviest(cand: int, qadj: list[int], sizes: list[int], memo: dict) -> tuple[int, int, int]:
    """Largest (weight, -count, -mask) over the independent subsets of cand.

    ``_alpha_prime`` weighs a prime node's children by their alphas, and
    ``tar_engine._class_search`` weighs twin classes by their sizes for the
    bound at which it stops.  Branches on the highest child: take it (and
    drop its neighbours) or, when it has a neighbour left, leave it.  The
    branches are solved on an explicit stack, so a long chain of decisions
    needs no recursion; not on ``decomposition._run``, as a generator per
    subproblem is slower here.
    """
    if cand in memo:
        return memo[cand]
    stack = [cand]      # each entry a proper subset of the one below, so none repeats
    while stack:
        c = stack[-1]
        i = c.bit_length() - 1
        bit = 1 << i
        rest = c ^ bit
        take = rest & ~qadj[i]
        took = memo.get(take)
        if took is None:
            stack.append(take)
            continue
        res = (took[0] + sizes[i], took[1] - 1, took[2] - bit)
        if qadj[i] & rest:  # else taking child i outweighs every set without it
            left = memo.get(rest)
            if left is None:
                stack.append(rest)
                continue
            res = max(res, left)
        memo[c] = res
        stack.pop()
    return memo[cand]
