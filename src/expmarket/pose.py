"""The 6DoF relative pose an edge carries: a translation in meters plus a
quaternion (w, x, y, z).

A pose is a plain record. A MATCH merge rewires a dropped node's edges onto
its keeper, which stands for the same place, so an edge keeps its pose
unchanged and no transforms are composed. The byte layout of a pose is
stated once, inside ``graph.EDGE_RECORD``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Pose:
    tx: float = 0.0
    ty: float = 0.0
    tz: float = 0.0
    qw: float = 1.0
    qx: float = 0.0
    qy: float = 0.0
    qz: float = 0.0

    @staticmethod
    def identity() -> "Pose":
        return Pose()

    @staticmethod
    def from_translation(tx: float) -> "Pose":
        """A pure translation of ``tx`` meters along x."""
        return Pose(float(tx), 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
