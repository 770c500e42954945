"""Independent set reconfiguration under TAR, TJ and TS.

Exact decision procedures whose exponential cost is confined to the
modular width of the input, with witness sequences for yes answers and a
brute-force configuration-graph oracle for verification.
"""

from .decomposition import (MDNode, TwinClass, is_module, md_tree, modular_width,
                            nd_partition, top_partition)
from .errors import (InputError, InternalError, OracleCapError, RuleViolation,
                     SequenceError)
from .graph import Graph
from .mis import AlphaResult, alpha
from .oracle import GenProfile, brute_alpha, brute_modular_width, gen_instance, \
    oracle_cap, oracle_lambda, oracle_reach
from .rules import Move, ReconfSequence, Rule, step_valid, tj_threshold, verify_sequence
from .tar_engine import (LambdaResult, lambda_all, lambda_nd, lambda_single,
                         lambda_step, shrink_module)
from .tar_reach import ReachAnswer, empty_module, reach_nd, reach_tar, reach_tj, \
    reduce_empty_module
from .ts_reach import reach_ts, ts_aux_decide, ts_big_module, ts_shrink

__all__ = [
    "AlphaResult", "GenProfile", "Graph", "InputError", "InternalError",
    "LambdaResult", "MDNode", "Move", "OracleCapError", "ReachAnswer",
    "ReconfSequence", "Rule", "RuleViolation", "SequenceError", "TwinClass",
    "alpha", "brute_alpha", "brute_modular_width", "empty_module",
    "gen_instance", "is_module", "lambda_all", "lambda_nd", "lambda_single",
    "lambda_step", "md_tree", "modular_width", "nd_partition", "oracle_cap",
    "oracle_lambda", "oracle_reach", "reach_nd", "reach_tar", "reach_tj", "reach_ts",
    "reduce_empty_module", "shrink_module", "step_valid", "tj_threshold",
    "top_partition", "ts_aux_decide", "ts_big_module", "ts_shrink",
    "verify_sequence",
]
