"""Scenario configuration: a strict, sectioned JSON document.

Sections are world / team / strategies / network / sim. Unknown keys are
rejected and every diagnostic names the offending field, so a typo'd config
fails loudly instead of silently running defaults. Any document either
parses or raises ``ConfigError``: numbers must be finite (Python's ``json``
accepts ``NaN`` and ``Infinity``) and every range a constructor enforces is
checked here first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .catalogue import Catalogue, bundled_catalogue, load_catalogue
from .localiser import LocaliserConfig
from .market import Strategy, TradingStrategy, SamplingBudget
from .catalogue import ShoppingKind, ShoppingStrategy
from .merging import PURE_CHOICES, Choice, ChoicePolicy, Commutation, CommutationPolicy
from .world import RoutePlan, WorldConfig


class ConfigError(Exception):
    """Invalid scenario config; the message names the field."""


# A team larger than this is far outside what a trial can run (ALL trading
# makes R * (R - 1) trades an epoch), and the per-robot defaults are lists
# of ``robots`` entries, so a huge count would exhaust memory while parsing.
_MAX_ROBOTS = 1024
# A trial runs one epoch per foray, and every observation draws latent
# vectors of ``descriptor_dim`` floats, so either one set huge makes a run
# last or allocate as much as it asks. The bundled scenarios use 6 to 8
# forays and 16 dimensions.
_MAX_FORAYS = 10_000
# The simulated clock adds up to ``latency_high_ms`` in each of an epoch's
# two network phases, so a huge latency would overflow it to infinity, which
# ``summary.json`` cannot hold as standard JSON. A day keeps it finite.
_MAX_LATENCY_MS = 8.64e7
_MAX_DESCRIPTOR_DIM = 1024
# A foray observes one stop every ``node_spacing_m`` along a route inside the
# catalogue, and ``Route.positions`` lists a route's stops at once, so a tiny
# spacing would exhaust memory before the first observation. The bound is
# on the whole catalogue, which no route exceeds; the bundled worlds hold
# 128 (parks) to 531 (table1) stops.
_MAX_STOPS = 100_000


def _finite(name: str, val) -> float:
    """``val`` (an int or float) as a finite float, or a ConfigError."""
    try:
        val = float(val)
    except OverflowError:
        raise ConfigError(f"{name}: number out of range") from None
    if not math.isfinite(val):
        raise ConfigError(f"{name}: must be finite")
    return val


def _means(name: str, means: list, robots: int) -> list[float]:
    """One finite number per robot, or a ConfigError."""
    if len(means) != robots:
        raise ConfigError(f"{name}: need one value per robot ({robots})")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in means):
        raise ConfigError(f"{name}: values must be numbers")
    return [_finite(name, v) for v in means]


class _SectionReader:
    def __init__(self, name: str, doc: dict):
        if not isinstance(doc, dict):
            raise ConfigError(f"{name}: expected an object")
        self.name = name
        self.doc = dict(doc)

    def take(self, key, kind, default=None, required=False):
        if key not in self.doc:
            if required:
                raise ConfigError(f"{self.name}.{key}: required field missing")
            return default
        val = self.doc.pop(key)
        if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
            return _finite(f"{self.name}.{key}", val)
        if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
            raise ConfigError(f"{self.name}.{key}: expected {kind.__name__}, got {type(val).__name__}")
        return val

    def finish(self):
        if self.doc:
            extra = ", ".join(sorted(self.doc))
            raise ConfigError(f"{self.name}: unknown keys: {extra}")


def _enum(section: str, key: str, value: str, enum_cls):
    for candidate in (value, value.lower(), value.upper()):
        try:
            return enum_cls(candidate)
        except ValueError:
            continue
    options = ", ".join(e.value for e in enum_cls)
    raise ConfigError(f"{section}.{key}: '{value}' is not one of: {options}")


@dataclass
class ScenarioConfig:
    catalogue: Catalogue
    world: WorldConfig
    robots: int
    quality_inlier_means: list[float]
    quality_fabmap_means: list[float]
    routes: RoutePlan
    trading: TradingStrategy
    shopping: ShoppingStrategy
    commutation: CommutationPolicy
    budget: SamplingBudget
    latency_low_ms: float
    latency_high_ms: float
    forays: int
    raw: dict = field(default_factory=dict, repr=False)


def parse_scenario_config(doc: dict, base_dir: Path | None = None) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    unknown = set(doc) - {"world", "team", "strategies", "network", "sim"}
    if unknown:
        raise ConfigError(f"top level: unknown sections: {', '.join(sorted(unknown))}")
    for section in ("world", "team", "strategies", "network", "sim"):
        if section not in doc:
            raise ConfigError(f"top level: missing section '{section}'")

    w = _SectionReader("world", doc["world"])
    cat_name = w.take("catalogue", str, required=True)
    world_cfg = WorldConfig(
        descriptor_dim=w.take("descriptor_dim", int, 16),
        node_spacing_m=w.take("node_spacing_m", float, 5.0),
        latent_scale=w.take("latent_scale", float, 1.0),
        drift_sigma=w.take("drift_sigma", float, 0.05),
        noise_sigma=w.take("noise_sigma", float, 0.01),
    )
    w.finish()
    if not 1 <= world_cfg.descriptor_dim <= _MAX_DESCRIPTOR_DIM:
        raise ConfigError(f"world.descriptor_dim: need 1 to {_MAX_DESCRIPTOR_DIM}")
    if world_cfg.node_spacing_m <= 0:
        raise ConfigError("world.node_spacing_m: must be positive")
    for key in ("latent_scale", "drift_sigma", "noise_sigma"):
        if getattr(world_cfg, key) < 0:
            raise ConfigError(f"world.{key}: must be non-negative")
    try:
        if cat_name.endswith(".catalogue"):
            path = Path(cat_name)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            if not path.exists():
                raise ConfigError(f"world.catalogue: file not found: {path}")
            catalogue = load_catalogue(path)
        else:
            try:
                catalogue = bundled_catalogue(cat_name)
            except FileNotFoundError:
                raise ConfigError(
                    f"world.catalogue: no bundled catalogue named '{cat_name}'") from None
    except (OSError, ValueError) as exc:  # unreadable path or malformed catalogue
        raise ConfigError(f"world.catalogue: {exc}") from None
    if catalogue.total_metres / world_cfg.node_spacing_m > _MAX_STOPS:
        raise ConfigError(f"world.node_spacing_m: the catalogue's {catalogue.total_metres:g} m "
                          f"would hold over {_MAX_STOPS} stops")

    t = _SectionReader("team", doc["team"])
    robots = t.take("robots", int, required=True)
    if not 2 <= robots <= _MAX_ROBOTS:
        raise ConfigError(f"team.robots: need 2 to {_MAX_ROBOTS} robots")
    inlier_means = t.take("quality_inlier_means", list, [30.0] * robots)
    fabmap_means = t.take("quality_fabmap_means", list, [0.5] * robots)
    route_width = t.take("route_width", int, 2)
    route_stride = t.take("route_stride", int, 2)
    route_shift = t.take("route_shift", int, 1)
    t.finish()
    inlier_means = _means("team.quality_inlier_means", inlier_means, robots)
    fabmap_means = _means("team.quality_fabmap_means", fabmap_means, robots)
    if not 1 <= route_width <= len(catalogue):
        raise ConfigError("team.route_width: must fit inside the catalogue")
    routes = RoutePlan(catalogue, width=route_width, stride=route_stride, shift=route_shift)

    s = _SectionReader("strategies", doc["strategies"])
    trading_kind = _enum("strategies", "trading",
                         s.take("trading", str, "ALL"), Strategy)
    exploit_fraction = s.take("exploit_fraction", float, 0.7)
    central_id = s.take("central_id", int, 0)
    shopping_kind = _enum("strategies", "shopping",
                          s.take("shopping", str, "WINDOW"), ShoppingKind)
    window_radius = s.take("window_radius", int, 1)
    commutation_kind = _enum("strategies", "commutation",
                             s.take("commutation", str, "UNION"), Commutation)
    choice_kind = _enum("strategies", "choice",
                        s.take("choice", str, "inliers"), Choice)
    sample_max_nodes = s.take("sample_max_nodes", int, 10)
    s.finish()
    if not 0.0 <= exploit_fraction <= 1.0:
        raise ConfigError("strategies.exploit_fraction: must be in [0, 1]")
    if not 0 <= central_id < robots:
        raise ConfigError("strategies.central_id: must name a team member")
    if choice_kind not in PURE_CHOICES:
        raise ConfigError("strategies.choice: scenario runs need a pure policy "
                          "(inliers, fabmap, path_memory)")
    if sample_max_nodes < 1:
        raise ConfigError("strategies.sample_max_nodes: must be >= 1")
    if shopping_kind is not ShoppingKind.CURRENT and window_radius < 1:
        raise ConfigError("strategies.window_radius: must be >= 1")

    n = _SectionReader("network", doc["network"])
    latency_low = n.take("latency_low_ms", float, 50.0)
    latency_high = n.take("latency_high_ms", float, 500.0)
    bytes_per_node = n.take("bytes_per_node_packet", int, 256)
    n.finish()
    if latency_high > _MAX_LATENCY_MS:
        raise ConfigError(f"network.latency_high_ms: need at most {_MAX_LATENCY_MS:g}")
    if latency_low < 0 or latency_high < latency_low:
        raise ConfigError("network: need 0 <= latency_low_ms <= latency_high_ms")
    if bytes_per_node < 1:
        raise ConfigError("network.bytes_per_node_packet: must be >= 1")

    m = _SectionReader("sim", doc["sim"])
    forays = m.take("forays", int, required=True)
    tau_loc = m.take("tau_loc", float, 0.3)
    tau_m = m.take("tau_m", float, 0.12)
    seed_k = m.take("seed_k", int, 3)
    depth = m.take("depth", int, 2)
    m.finish()
    if not 1 <= forays <= _MAX_FORAYS:
        raise ConfigError(f"sim.forays: need 1 to {_MAX_FORAYS}")
    try:
        localiser = LocaliserConfig(tau_loc=tau_loc, tau_m=tau_m, seed_k=seed_k, depth=depth)
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from None

    return ScenarioConfig(
        catalogue=catalogue,
        world=world_cfg,
        robots=robots,
        quality_inlier_means=inlier_means,
        quality_fabmap_means=fabmap_means,
        routes=routes,
        trading=TradingStrategy(trading_kind, exploit_fraction=exploit_fraction,
                                central_id=central_id),
        shopping=ShoppingStrategy(shopping_kind, window_radius=window_radius),
        commutation=CommutationPolicy(commutation_kind, ChoicePolicy(choice_kind), localiser),
        budget=SamplingBudget(max_nodes=sample_max_nodes, bytes_per_node=bytes_per_node),
        latency_low_ms=latency_low,
        latency_high_ms=latency_high,
        forays=forays,
        raw=doc,
    )


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        doc = json.loads(path.read_text())
    except OSError as exc:  # a directory, an unreadable file or an unusable name
        raise ConfigError(f"{path}: cannot read: {exc}") from None
    except (ValueError, RecursionError) as exc:  # undecodable, malformed or too deep
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    return parse_scenario_config(doc, base_dir=path.parent)


def bundled_scenario(name: str) -> dict:
    """Raw JSON document of a scenario shipped with the package."""
    from importlib import resources

    data = resources.files("expmarket").joinpath(f"data/{name}.json")
    return json.loads(data.read_text())
