"""The 6DoF relative pose an edge carries: a translation in meters plus a
quaternion (w, x, y, z).

A pose is a plain record, a ``NamedTuple``, so it is hashed and compared
in C. Its hash is that of its fields' tuple, ``hash((tx, ty, tz, qw, qx, qy,
qz))``: ``Edge``'s cached hash, and so the order of every set of edges, rest
on it. A MATCH merge rewires a dropped node's edges onto its keeper, which
stands for the same place, so an edge keeps its pose unchanged and no
transforms are composed. The byte layout of a pose is stated once, inside
``graph.EDGE_RECORD``.
"""

from __future__ import annotations

from typing import NamedTuple


class Pose(NamedTuple):
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
