"""Synthetic world: latent appearance per place, drifting over epochs.

Every 5 m bucket of the route owns a latent descriptor; each catalogue
section carries a random-walk drift offset that advances once per epoch, so
map content decays in usefulness as the world's appearance moves on. Every
stream is derived from the world seed by stable labels, which makes
observations a pure function of (seed, robot, epoch, position): two
scenario runs that differ only in trading strategy see byte-identical
worlds. ``World.observe`` takes a route's stops at once: it bisects
boundaries computed once per world, hashes the noise seeds' common prefix
once (``ids.seed_stream``) and sums the descriptors as one array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalogue import Catalogue, OutOfWorld, section_at
from .graph import Observation
from .ids import RobotId, derive_seed, seed_stream


@dataclass
class WorldConfig:
    descriptor_dim: int = 16
    node_spacing_m: float = 5.0
    latent_scale: float = 1.0
    drift_sigma: float = 0.05  # per-component random-walk step per epoch
    noise_sigma: float = 0.01  # per-observation descriptor noise


def _normal(seed: int, n: int, scale: float) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal(0.0, scale, n)


class World:
    """Deterministic appearance field over a catalogue's route."""

    def __init__(self, catalogue: Catalogue, seed: int,
                 config: WorldConfig = WorldConfig()):
        self.catalogue = catalogue
        self.seed = seed
        self.config = config
        self._latent: dict[int, np.ndarray] = {}
        self._drift: dict[int, list[np.ndarray]] = {}
        self._bounds = catalogue.boundaries()

    def latent(self, bucket: int) -> np.ndarray:
        vec = self._latent.get(bucket)
        if vec is None:
            vec = _normal(derive_seed(self.seed, "latent", bucket),
                          self.config.descriptor_dim, self.config.latent_scale)
            self._latent[bucket] = vec
        return vec

    def drift(self, section: int, epoch: int) -> np.ndarray:
        """Cumulative appearance offset of a section at a given epoch."""
        walk = self._drift.setdefault(section, [np.zeros(self.config.descriptor_dim)])
        while len(walk) <= epoch:
            step = _normal(derive_seed(self.seed, "drift", section, len(walk)),
                           self.config.descriptor_dim, self.config.drift_sigma)
            walk.append(walk[-1] + step)
        return walk[epoch]

    def observe(self, robot: RobotId, epoch: int,
                positions: Sequence[float]) -> list[Observation]:
        """What a robot sees at each of a route's positions during an epoch:
        ``(latent(bucket) + drift(section, epoch)) + noise`` per stop, summed
        as one ``(n, dim)`` array, the same whatever batch a stop comes in. A
        position below 0, at or past the end, or NaN raises ``OutOfWorld``."""
        extent, bounds = self.catalogue.total_metres, self._bounds
        sections = []
        for p in positions:
            if p < 0 or p >= extent:
                raise OutOfWorld(f"position {p} outside [0, {extent})")
            sections.append(section_at(p, bounds))
        buckets = [int(p // self.config.node_spacing_m) for p in positions]
        drift = {s: self.drift(s, epoch) for s in set(sections)}
        noise_seed = seed_stream(self.seed, "noise", robot, epoch)
        dim, sigma = self.config.descriptor_dim, self.config.noise_sigma
        desc = (np.array([self.latent(b) for b in buckets])
                + np.array([drift[s] for s in sections])
                + np.array([_normal(noise_seed(b), dim, sigma) for b in buckets]))
        return [Observation(descriptor=tuple(row), true_position=p, product=s)
                for row, p, s in zip(desc.tolist(), positions, sections)]


@dataclass(frozen=True)
class Route:
    """A contiguous stretch of the world walked during one foray.

    On loop worlds ``wrap_at`` carries the loop length and the stretch may
    run through the origin; positions are reported modulo the loop.
    """

    start_m: float
    end_m: float
    wrap_at: float | None = None

    @property
    def length(self) -> float:
        return self.end_m - self.start_m

    def positions(self, spacing: float) -> list[float]:
        """Observation stops: start, start+spacing, ... strictly before end."""
        n = max(1, round(self.length / spacing))
        raw = (self.start_m + i * spacing for i in range(n))
        if self.wrap_at is None:
            return list(raw)
        return [p % self.wrap_at for p in raw]


@dataclass
class RoutePlan:
    """Rotating section-window assignment.

    Robot i's route at epoch k covers ``width`` consecutive sections starting
    at (i * stride + k * shift) modulo the feasible starts, so every robot
    sweeps the world and most sections get re-mapped by somebody each epoch.
    """

    catalogue: Catalogue
    width: int = 2
    stride: int = 2
    shift: int = 1

    def sections_for(self, robot: RobotId, epoch: int) -> list[int]:
        n = len(self.catalogue)
        if self.catalogue.cyclic:
            start = (robot * self.stride + (epoch - 1) * self.shift) % n
            return [(start + i) % n for i in range(self.width)]
        feasible = n - self.width + 1
        if feasible < 1:
            raise ValueError("route width exceeds catalogue size")
        start = (robot * self.stride + (epoch - 1) * self.shift) % feasible
        return list(range(start, start + self.width))

    def route_for(self, robot: RobotId, epoch: int) -> Route:
        sections = self.sections_for(robot, epoch)
        bounds = self.catalogue.boundaries()
        start = bounds[sections[0]]
        span = sum(self.catalogue.sections[s].metres for s in sections)
        if self.catalogue.cyclic:
            return Route(start, start + span, wrap_at=self.catalogue.total_metres)
        return Route(start, start + span)
