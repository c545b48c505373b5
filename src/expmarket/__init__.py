"""expmarket: commutative version control and a data market for experience maps.

A fleet of robots versions its topometric maps with patch-based,
commutative merging, trades map content through a decentralized market, and
can be exercised end to end by a deterministic discrete-event simulator.
"""

from .catalogue import (
    Advisory,
    Catalogue,
    ProductLedger,
    Section,
    ShoppingKind,
    ShoppingStrategy,
    advise,
    bundled_catalogue,
    load_catalogue,
    parse_catalogue,
    product_of,
    shopping_list,
)
from .config import ConfigError, ScenarioConfig, bundled_scenario, load_scenario_config, parse_scenario_config
from .foray import record_foray_patch
from .graph import (
    EMPTY_GRAPH_DIGEST,
    Edge,
    Graph,
    Node,
    Observation,
    connected_components,
    export_text,
    neighbourhood,
)
from .ids import NodeId, NodeIdGenerator, RobotId, derive_seed
from .integrity import (
    ConvergenceReport,
    CoverageReport,
    GeneratorParams,
    builtin_tests,
    evaluate_battery,
    generate_configurations,
    merge_coverage,
    monte_carlo_convergence,
    run_battery_trial,
)
from .localiser import LocaliserConfig, MatchCounter, MatchPair, MatchSet, localise, match_patches
from .market import (
    Belief,
    NoEligibleSellers,
    SamplingBudget,
    Strategy,
    TradingStrategy,
    adjudicate,
    price_nodes,
    sample_for_query,
    select_partners,
    update_belief,
)
from .merging import (
    Choice,
    ChoicePolicy,
    Commutation,
    CommutationPolicy,
    ConvergentPatchPair,
    IntegrityViolation,
    NonScoringPolicy,
    NonSymmetricPolicy,
    TradeStats,
    choose,
    commute,
    gamma_score,
    trade_merge,
)
from .patches import (
    History,
    Patch,
    Repository,
    apply_patch,
    build_patch,
    compose,
    diff,
    invert_patch,
    patches_equal,
)
from .pose import Pose
from .serialize import graph_from_bytes, graph_to_bytes, patch_from_bytes, patch_to_bytes
from .sim import (
    FsmState,
    NetworkModel,
    Phase,
    TrialMetrics,
    barrier_sync,
    deliver,
    failure_distribution,
    run_foray,
    run_scenario,
    run_trial,
)
from .world import Route, RoutePlan, World, WorldConfig

__version__ = "0.1.0"
