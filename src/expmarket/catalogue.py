"""The product catalogue: sections-of-interest, ledgers, and shopping lists.

The world is demarcated into named sections (streets, colleges, labs); a
section index is the product a node belongs to. What an agent holds of a
product is read from its map, where each node carries its product; agents
keep two ledgers per product: purchases (what they bought) and sales (what
they delivered, excluding anything they themselves purchased). Sales
popularity drives advertisements; per-product beliefs drive seller
advisories; both feed the RECOMMEND shopping strategy.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .ids import RobotId
from .market import Belief
from .patches import Patch

ProductIndex = int


class OutOfWorld(Exception):
    """Position outside the catalogue's total extent."""


@dataclass(frozen=True)
class Section:
    name: str
    category: str
    stock_items: int
    metres: float

    def __post_init__(self):
        if self.stock_items < 1:
            raise ValueError(f"section {self.name}: stock_items must be >= 1")
        if self.metres <= 0:
            raise ValueError(f"section {self.name}: metres must be positive")


@dataclass(frozen=True)
class Catalogue:
    sections: tuple[Section, ...]
    cyclic: bool = False

    def __len__(self) -> int:
        return len(self.sections)

    @property
    def total_metres(self) -> float:
        return sum(s.metres for s in self.sections)

    def boundaries(self) -> list[float]:
        """Cumulative start position of each section, plus the world end."""
        out = [0.0]
        for s in self.sections:
            out.append(out[-1] + s.metres)
        return out


def product_of(position: float, catalogue: Catalogue) -> ProductIndex:
    """Ground-truth lookup from route position to section index."""
    return section_at(position, catalogue.boundaries())


def section_at(position: float, bounds: list[float]) -> ProductIndex:
    """The first ``i`` with ``position < bounds[i + 1]`` in a catalogue's
    ``boundaries()``, by bisection. Raises ``OutOfWorld`` below 0, at or past
    the end, and for NaN, which would otherwise bisect to the end."""
    if position < 0:
        raise OutOfWorld(f"position {position} is negative")
    if position >= bounds[-1]:
        raise OutOfWorld(f"position {position} beyond world end {bounds[-1]}")
    if position != position:
        raise OutOfWorld(position)
    return bisect_right(bounds, position) - 1


class ShoppingKind(enum.Enum):
    CURRENT = "CURRENT"
    WINDOW = "WINDOW"
    RECOMMEND = "RECOMMEND"


@dataclass(frozen=True)
class ShoppingStrategy:
    kind: ShoppingKind
    window_radius: int = 1

    def __post_init__(self):
        if self.kind is not ShoppingKind.CURRENT and self.window_radius < 1:
            raise ValueError("window_radius must be >= 1")


@dataclass(frozen=True)
class Advisory:
    """What the team gossips after each MERGING: per product, who to buy
    from (the sender's favourite seller), and each vendor's best-selling product."""

    favourite_sellers: dict  # ProductIndex -> RobotId
    advertisement: ProductIndex | None


def _window(p: ProductIndex, radius: int, catalogue: Catalogue) -> set[ProductIndex]:
    n = len(catalogue)
    radius = min(radius, n)  # a wider window holds no further section
    if catalogue.cyclic:
        return {(p + d) % n for d in range(-radius, radius + 1)}
    return {q for q in range(p - radius, p + radius + 1) if 0 <= q < n}


def shopping_list(strategy: ShoppingStrategy, current: ProductIndex,
                  catalogue: Catalogue,
                  advisories: dict[RobotId, Advisory] | None = None,
                  buyer: RobotId | None = None) -> set[ProductIndex]:
    """Products to ask the market for, given where the robot thinks it is.

    RECOMMEND starts from the WINDOW set and adds the advertised best-selling
    product of the favourite seller for the current product. The buyer's own
    advisory (its per-product beliefs) names the favourite when it can;
    otherwise the team's advisories are polled, ties to the smallest seller.
    """
    if strategy.kind is ShoppingKind.CURRENT:
        return {current}
    window = _window(current, strategy.window_radius, catalogue)
    if strategy.kind is ShoppingKind.WINDOW:
        return window
    # RECOMMEND
    if advisories:
        favourite = None
        own = advisories.get(buyer) if buyer is not None else None
        if own is not None:
            favourite = own.favourite_sellers.get(current)
        if favourite is None:
            votes = sorted(v for adv in advisories.values()
                           for v in (adv.favourite_sellers.get(current),) if v is not None)
            favourite = votes[0] if votes else None
        if favourite is not None:
            adv = advisories.get(favourite)
            if adv is not None and adv.advertisement is not None:
                window.add(adv.advertisement)
    return window


@dataclass
class ProductLedger:
    """Per-product records of purchased and sold node ids."""

    purchases: dict = field(default_factory=dict)  # ProductIndex -> set[NodeId]
    sales: dict = field(default_factory=dict)

    def bought(self, patch: Patch) -> None:
        """Fold a received patch's inserted nodes into the purchases."""
        for node in patch.insert_nodes.values():
            self.purchases.setdefault(node.product, set()).add(node.id)

    def sold(self, patch: Patch) -> None:
        """Fold a delivered patch's inserted nodes into the sales.

        Sales exclude nodes the vendor itself purchased: popularity counts
        only content the vendor originated.
        """
        for node in patch.insert_nodes.values():
            if node.id not in self.purchases.get(node.product, ()):
                self.sales.setdefault(node.product, set()).add(node.id)

    def advertise(self) -> ProductIndex | None:
        """Best-selling product: largest sales set, ties to the smaller index."""
        best = None
        for product in sorted(self.sales):
            count = len(self.sales[product])
            if count == 0:
                continue
            if best is None or count > best[0]:
                best = (count, product)
        return None if best is None else best[1]


def advise(per_product_beliefs: dict[ProductIndex, dict[RobotId, Belief]],
           product: ProductIndex) -> RobotId | None:
    """Favourite seller for a product: highest belief mean, ties by id."""
    cell = per_product_beliefs.get(product, {})
    best = None
    for seller in sorted(cell):
        b = cell[seller]
        if not b.initialized:
            continue
        if best is None or b.mean > best[0]:
            best = (b.mean, seller)
    return None if best is None else best[1]


# -- catalogue files ------------------------------------------------------
# One section per line: name, category, stock_items, metres (comma-separated).
# Blank lines and '#' comments are ignored. A line "cyclic" flips the wrap flag.


def parse_catalogue(text: str) -> Catalogue:
    sections = []
    cyclic = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower() == "cyclic":
            cyclic = True
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ValueError(f"catalogue line {lineno}: expected 4 fields, got {len(parts)}")
        name, category, stock, metres = parts
        try:
            sections.append(Section(name, category, int(stock), float(metres)))
        except ValueError as exc:
            raise ValueError(f"catalogue line {lineno}: {exc}") from exc
    if not sections:
        raise ValueError("catalogue has no sections")
    return Catalogue(tuple(sections), cyclic=cyclic)


def load_catalogue(path: str | Path) -> Catalogue:
    return parse_catalogue(Path(path).read_text())


def bundled_catalogue(name: str) -> Catalogue:
    """Load one of the catalogues shipped with the package (e.g. "table1")."""
    data = resources.files("expmarket").joinpath(f"data/{name}.catalogue")
    return parse_catalogue(data.read_text())
