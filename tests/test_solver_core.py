"""The mask-native solver core: pinned outputs and a bound on set conversions.

The digests below were computed before the solvers moved from vertex-ID
sets to position masks; answers, flattened certificates and lambda
tables must stay byte-identical.  The conversion test counts
``Graph._mask`` and ``Graph._idset`` calls, which only the public
functions should make: a constant for the inputs plus one per returned
result, however deep the recursion goes.
"""

import hashlib
import random

import pytest

from isreconf import (GenProfile, Graph, gen_instance, lambda_all, lambda_single, reach_nd,
                      reach_tar, reach_tj, reach_ts, stats)


THRESHOLD_DRAWS = 2000


def threshold_instance(seed, n):
    """Threshold graph on 0..n-1 (each new vertex isolated or dominating) and
    two different maximal independent sets of equal size."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        if rng.random() < 0.5:
            edges += [(u, v) for u in range(v)]
    g = Graph(range(n), edges)

    def maximal_independent():
        order = list(range(n))
        rng.shuffle(order)
        chosen = set()
        for p in order:
            if not any(g.has_edge(p, q) for q in chosen):
                chosen.add(p)
        return frozenset(chosen)

    s = maximal_independent()
    for _ in range(THRESHOLD_DRAWS):
        t = maximal_independent()
        if len(t) == len(s) and t != s:
            return g, s, t
    raise ValueError(f"threshold_instance({seed}, {n}): no second maximal independent set "
                     f"of size {len(s)} in {THRESHOLD_DRAWS} draws")


def moves(seq):
    return [(m.op, m.u, m.v) for m in seq.moves]


def answer_lines(ans):
    return [str(ans.reachable)] + ([str(ans.certificate.rule), repr(moves(ans.certificate))]
                                   if ans.reachable else [])


def table_lines(table):
    return [repr((j, r.size, sorted(r.reached), moves(r.sequence))) for j, r in table.items()]


def case_lines(name):
    if name.startswith("threshold"):
        g, s, t = threshold_instance(0, 300)
        k = len(s) // 2
        return (answer_lines(reach_tar(g, k, s, t)) + answer_lines(reach_nd(g, k, s, t))
                + answer_lines(reach_tj(g, s, t)) + [str(reach_ts(g, s, t))]
                + table_lines(lambda_all(g, s)))
    rule, seed = name.split("-")
    g, s, t, k = gen_instance(int(seed), GenProfile(n=200, width=6, rule=rule))
    if rule == "tar":
        return answer_lines(reach_tar(g, k, s, t)) + table_lines(lambda_all(g, s))
    if rule == "tj":
        return answer_lines(reach_tj(g, s, t))
    return [str(reach_ts(g, s, t))]


PINNED = {  # sha256 of case_lines(name)
    "tar-0": "3db119ac32ea911c6fd2ce56ec26554be63276fb2dfe2512a256630e24121354",
    "tar-1": "c91be3dc13b0035673c66138120636c37191a01e80f2c24ccdbc17dbfe848227",
    "tar-2": "793962e7fa6a1d688eca0e6be55c94ebc13239aa06e13dec6ff05a2aecb8cf22",
    "tar-3": "8f4740b021676fa113bc67172f565ed9ccec1ff9a1da9c5042aaecf81e7bb99b",
    "tj-0": "e56ae1904e3f19c95d9541eba7fc8143cc5e3796670cfedf075c9f2fd4ac2316",
    "tj-1": "dfed214d6a84302ecccc7f260a601936c7a6528089125329a8f56b8eec9cdba9",
    "tj-2": "b24fb007657adfbf8d495f5d05cf58e18c48c29b3c313da614eb4e03b34d2b87",
    "tj-3": "b3db391350ba59f8d33de1dd87a8d797d6f977c1c47e0a6de3b97ab979ee2e4e",
    "ts-0": "60a33e6cf5151f2d52eddae9685cfa270426aa89d8dbc7dfb854606f1d1a40fe",
    "ts-1": "60a33e6cf5151f2d52eddae9685cfa270426aa89d8dbc7dfb854606f1d1a40fe",
    "ts-2": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
    "ts-3": "3cbc87c7681f34db4617feaa2c8801931bc5e42d8d0f560e756dd4cd92885f18",
    "threshold-300": "8f2c8978b65516a9ad8ebc16d296e87a15be6c7f86f1d16c7f83f66d50daafa8",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_match_pinned_digests(name):
    digest = hashlib.sha256("\n".join(case_lines(name)).encode()).hexdigest()
    assert digest == PINNED[name]


@pytest.fixture
def conversions(monkeypatch):
    count = [0]
    for attr in ("_mask", "_idset"):
        original = getattr(Graph, attr)

        def counted(self, arg, _original=original):
            count[0] += 1
            return _original(self, arg)

        monkeypatch.setattr(Graph, attr, counted)
    return count


CALLS = {
    "reach_tar": lambda g, s, t: reach_tar(g, len(s) // 2, s, t),
    "reach_nd": lambda g, s, t: reach_nd(g, len(s) // 2, s, t),
    "reach_tj": lambda g, s, t: reach_tj(g, s, t),
    "reach_ts": lambda g, s, t: reach_ts(g, s, t),
    "lambda_single": lambda g, s, t: lambda_single(g, s, len(s) // 2),
    "lambda_all": lambda g, s, t: lambda_all(g, s),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_set_conversions_are_bounded_by_the_results(name, conversions):
    g, s, t = threshold_instance(0, 300)
    conversions[0] = 0
    stats.reset()
    out = CALLS[name](g, s, t)
    results = len(out) if isinstance(out, dict) else 1
    assert stats.get("nodes_deleted") > 0
    assert conversions[0] <= 4 + results


def test_threshold_instance_gives_up_with_a_clear_error():
    # seed 0 at n = 12 has no second maximal independent set of its first one's size
    with pytest.raises(ValueError, match=r"threshold_instance\(0, 12\): no second"):
        threshold_instance(0, 12)
