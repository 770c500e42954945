"""Checks of the traced mode; run with ``python -m pytest perfbench``.

Uses each workload's small shadow instances (n <= 14, answers from the
brute-force oracle) as the measured items, so the whole file takes
seconds.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import isreconf  # noqa: E402
from layertrace import Tracer  # noqa: E402
from run import LAYER_METRICS, run_workload  # noqa: E402
from workloads import load_spec, make_shadows  # noqa: E402

SPECS = load_spec()["workloads"]


def _fail(msg):
    raise AssertionError(msg)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_traced_counts_repeat_and_answers_match_untraced(name):
    items = make_shadows(SPECS[name], seed=3, count=2)
    plain = run_workload(items, [], 0, None, _fail)
    traced = [run_workload(items, [], 0, Tracer(), _fail) for _ in range(2)]
    assert plain["failed"] == 0 and all(t["failed"] == 0 for t in traced)
    assert all(t["digest"] == plain["digest"] for t in traced)
    counts = [{k: v for k, v in t["layers"].items() if LAYER_METRICS[k][0] == "count"}
              for t in traced]
    assert counts[0] == counts[1]
    assert counts[0]["graph.convert_calls"] > 0
    assert set(traced[0]["layers"]) == set(LAYER_METRICS)


def test_uninstall_restores_every_name():
    tracer = Tracer()
    tracer.install()
    assert hasattr(isreconf.tar_reach.alpha, "__wrapped__")
    assert hasattr(isreconf.tar_engine.lambda_nd, "__wrapped__")
    assert hasattr(isreconf.Graph._mask, "__wrapped__")
    tracer.uninstall()
    assert isreconf.tar_reach.alpha is isreconf.mis.alpha is isreconf.alpha
    assert not hasattr(isreconf.alpha, "__wrapped__")
    assert not hasattr(isreconf.Graph._mask, "__wrapped__")
    assert not hasattr(isreconf.graph.bits, "__wrapped__")
