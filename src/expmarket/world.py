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

Each latent descriptor, drift step and observation noise is the draw
``Generator(PCG64(seed)).normal(0, scale, dim)`` of its own seed, bit for
bit, but a batch of them is drawn at once: ``_seed_states`` runs numpy's
``SeedSequence`` mixing for every seed of the batch as uint32 column
arithmetic, and one ``PCG64`` owned by the world is set to each seed's
state in turn, as ``PCG64(seed)`` would seed itself. So what a draw gives
does not depend on its batch or on what was drawn before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalogue import Catalogue, OutOfWorld, section_at
from .graph import Observation
from .ids import RobotId, derive_seed, seed_stream


@dataclass(frozen=True)
class WorldConfig:
    descriptor_dim: int = 16
    node_spacing_m: float = 5.0
    latent_scale: float = 1.0
    drift_sigma: float = 0.05  # per-component random-walk step per epoch
    noise_sigma: float = 0.01  # per-observation descriptor noise


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants of a SeedSequence hash's first calls:
    call i xors with h_i and multiplies by h_{i+1}, where h_{i+1} = h_i * mult
    mod 2**32, whatever the data."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array(h[:-1], np.uint32), np.array(h[1:], np.uint32)


# numpy's SeedSequence with its default pool of four uint32 words: mixing the
# entropy into the pool takes 4 + 12 hash calls, and 4 uint64 of output 8 more
_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_XOR, _OUT_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_OTHER_WORDS = [[d for d in range(4) if d != s] for s in range(4)]
_OUT_WORDS = [0, 1, 2, 3, 0, 1, 2, 3]

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
_MASK128 = (1 << 128) - 1


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mul
    return words ^ (words >> _SHIFT)


def _seed_states(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each seed, as the
    rows of one ``(n, 4)`` uint64 array. A seed outside [0, 2**128) raises
    ``OverflowError``; inside it, the zero words that pad a seed to four are
    exactly the zero hashes numpy fills a short entropy pool with."""
    packed = b"".join(s.to_bytes(16, "little") for s in seeds)
    words = np.frombuffer(packed, "<u4").reshape(-1, 4)
    pool = _hashmix(words, _POOL_XOR[:4], _POOL_MUL[:4])
    # each word in turn, hashed once per other word, mixes into the other three
    for src, dst in enumerate(_OTHER_WORDS):
        k = 4 + 3 * src
        hashed = _hashmix(pool[:, src:src + 1], _POOL_XOR[k:k + 3], _POOL_MUL[k:k + 3])
        mixed = _MIX_L * pool[:, dst] - _MIX_R * hashed
        pool[:, dst] = mixed ^ (mixed >> _SHIFT)
    state = _hashmix(pool[:, _OUT_WORDS], _OUT_XOR, _OUT_MUL)
    return state.astype("<u4", order="C").view("<u8")


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
        self._bits = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bits)

    def _draw(self, seeds: Sequence[int], scale) -> np.ndarray:
        """Row i is ``Generator(PCG64(seeds[i])).normal(0, scale, dim)``, bit
        for bit, with ``scale`` one for every row or one per row: the
        world's one ``PCG64`` takes each seed's full state, as
        ``pcg64_set_seed`` derives it from the seed's four SeedSequence
        words, and fills the row with standard normals. ``normal`` returns
        ``0 + scale * z``, which is scaled here once for the whole batch."""
        scales = np.asarray(scale, dtype=np.float64).reshape(-1, 1)
        if (scales < 0).any():
            raise ValueError(f"scale {scales[scales < 0][0]} is negative")
        out = np.empty((len(seeds), self.config.descriptor_dim))
        pcg = {"state": 0, "inc": 0}
        full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        bits, fill = self._bits, self._gen.standard_normal
        for row, (s0, s1, q0, q1) in zip(out, _seed_states(seeds).tolist()):
            inc = (q0 << 65 | q1 << 1 | 1) & _MASK128
            pcg["state"] = (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _MASK128
            pcg["inc"] = inc
            bits.state = full
            fill(out=row)
        out *= scales
        out += 0.0  # as in 0 + scale * z: a -0.0 product becomes 0.0
        return out

    def _fill(self, sections, epoch: int, buckets, seeds: Sequence[int] = (),
              scale: float = 0.0) -> np.ndarray:
        """Draw in one batch every drift step of ``sections`` up to ``epoch``
        and every latent of ``buckets`` not drawn yet, and keep them, along
        with ``seeds`` at ``scale``, whose rows are returned."""
        cfg = self.config
        steps = []
        for s in dict.fromkeys(sections):
            walk = self._drift.setdefault(s, [np.zeros(cfg.descriptor_dim)])
            steps += [(s, j) for j in range(len(walk), epoch + 1)]
        missing = [b for b in dict.fromkeys(buckets) if b not in self._latent]
        rows = self._draw(
            [derive_seed(self.seed, "drift", s, j) for s, j in steps]
            + [derive_seed(self.seed, "latent", b) for b in missing] + list(seeds),
            [cfg.drift_sigma] * len(steps) + [cfg.latent_scale] * len(missing)
            + [scale] * len(seeds))
        for (s, _), step in zip(steps, rows):
            walk = self._drift[s]
            walk.append(walk[-1] + step)
        self._latent.update(zip(missing, rows[len(steps):]))
        return rows[len(steps) + len(missing):]

    def latent(self, bucket: int) -> np.ndarray:
        self._fill((), 0, [bucket])
        return self._latent[bucket]

    def drift(self, section: int, epoch: int) -> np.ndarray:
        """Cumulative appearance offset of a section at a given epoch; the
        steps not yet taken are drawn in one batch. A negative epoch raises
        ``ValueError``."""
        if epoch < 0:
            raise ValueError(f"epoch {epoch} is negative")
        self._fill([section], epoch, ())
        return self._drift[section][epoch]

    def observe(self, robot: RobotId, epoch: int,
                positions: Sequence[float]) -> list[Observation]:
        """What a robot sees at each of a route's positions during an epoch:
        ``(latent(bucket) + drift(section, epoch)) + noise`` per stop, summed
        as one ``(n, dim)`` array, the same whatever batch a stop comes in.
        The foray's noise, and the latents and drift steps it is the first
        to need, are one draw. A position below 0, at or past the end, or
        NaN raises ``OutOfWorld``; a negative epoch ``ValueError``."""
        if epoch < 0:
            raise ValueError(f"epoch {epoch} is negative")
        extent, bounds = self.catalogue.total_metres, self._bounds
        sections = []
        for p in positions:
            if p < 0 or p >= extent:
                raise OutOfWorld(f"position {p} outside [0, {extent})")
            sections.append(section_at(p, bounds))
        if not sections:
            return []
        buckets = [int(p // self.config.node_spacing_m) for p in positions]
        noise_seed = seed_stream(self.seed, "noise", robot, epoch)
        noise = self._fill(sections, epoch, buckets, [noise_seed(b) for b in buckets],
                           self.config.noise_sigma)
        desc = (np.array([self._latent[b] for b in buckets])
                + np.array([self._drift[s][epoch] for s in sections]) + noise)
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
