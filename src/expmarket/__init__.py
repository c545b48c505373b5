"""expmarket: commutative version control and a data market for experience maps.

A fleet of robots versions its topometric maps with patch-based,
commutative merging, trades map content through a decentralized market, and
can be exercised end to end by a deterministic discrete-event simulator.
The top level exports what the demos use; everything else is reached
through its module (``expmarket.graph``, ``expmarket.sim`` and so on).
"""

from .config import bundled_scenario, parse_scenario_config
from .graph import Edge, Graph, Node
from .ids import NodeIdGenerator, derive_seed
from .integrity import generate_configurations, merge_coverage, monte_carlo_convergence, run_battery_trial
from .localiser import LocaliserConfig
from .market import (Belief, SamplingBudget, Strategy, TradingStrategy, adjudicate, price_nodes,
                     sample_for_query, select_partners, update_belief)
from .merging import Choice, ChoicePolicy, Commutation, CommutationPolicy, trade_merge
from .patches import Repository, apply_patch, build_patch, compose, diff, invert_patch
from .pose import Pose
from .sim import failure_distribution

__version__ = "0.1.0"
