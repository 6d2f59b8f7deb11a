"""City generation profiles for Melbourne, Dhaka and Copenhagen.

The extended abstract evaluates the approaches on the road networks of
these three cities.  Without network access to Geofabrik, this package
generates *synthetic* metropolitan networks whose macro-structure
matches what makes each city's routing behaviour distinctive:

* **Melbourne** — a large, highly regular arterial grid, a spread-out
  metro with several freeway spines, and the Yarra limiting north-south
  crossings;
* **Dhaka** — a dense, organic, irregular street fabric, very few
  grade-separated roads, heavy one-way usage, and the Buriganga with
  only a handful of bridges;
* **Copenhagen** — a compact, moderately regular European street plan,
  a ring motorway, and the harbour splitting the city with few
  crossings.

Every knob lives in :class:`CityProfile`, so the generator itself stays
city-agnostic and tests can synthesise degenerate towns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class CityProfile:
    """Parameters controlling synthetic city generation.

    Attributes
    ----------
    name:
        Human-readable city name; also names the resulting network.
    center_lat, center_lon:
        Real-world anchor of the synthetic grid.
    rows, cols:
        Intersection-lattice dimensions.
    spacing_m:
        Mean block edge length in metres.
    irregularity:
        0 = perfect grid; 1 = heavily jittered organic fabric.  Scales
        the positional jitter applied to every intersection.
    hole_fraction:
        Probability that a lattice intersection simply does not exist
        (parks, superblocks, waterways), creating irregular blocks.
    arterial_every:
        Every n-th row/column is a primary arterial (faster, wider).
    secondary_every:
        Every n-th row/column (offset from arterials) is a secondary
        road.
    num_freeways:
        Number of freeway spines crossed through the city.
    ramp_every:
        A freeway interchange connects to the street grid every n
        freeway nodes.
    has_ring_road:
        Adds an orbital trunk road at ~70% of the city radius.
    river_rows:
        Number of horizontal river bands (0 or 1 in the shipped
        cities); the river removes street crossings except at bridges.
    num_bridges:
        Number of street bridges across each river.
    oneway_fraction:
        Fraction of residential streets made one-way.
    speed_scale:
        Global multiplier on speed limits (Dhaka's effective speeds are
        lower across the board).
    turn_restriction_fraction:
        Fraction of eligible two-way street junctions that receive a
        no-turn restriction relation — the §4.2 "no left turn
        available" mechanism.
    """

    name: str
    center_lat: float
    center_lon: float
    rows: int = 32
    cols: int = 32
    spacing_m: float = 350.0
    irregularity: float = 0.3
    hole_fraction: float = 0.04
    arterial_every: int = 5
    secondary_every: int = 3
    num_freeways: int = 2
    ramp_every: int = 3
    has_ring_road: bool = False
    river_rows: int = 1
    num_bridges: int = 4
    oneway_fraction: float = 0.12
    speed_scale: float = 1.0
    turn_restriction_fraction: float = 0.03

    def __post_init__(self) -> None:
        if self.rows < 4 or self.cols < 4:
            raise ConfigurationError("city lattice must be at least 4x4")
        if self.spacing_m <= 0:
            raise ConfigurationError("spacing_m must be positive")
        if not (0.0 <= self.irregularity <= 1.0):
            raise ConfigurationError("irregularity must be in [0, 1]")
        if not (0.0 <= self.hole_fraction <= 0.5):
            raise ConfigurationError("hole_fraction must be in [0, 0.5]")
        if self.arterial_every < 2 or self.secondary_every < 2:
            raise ConfigurationError("arterial/secondary spacing must be >= 2")
        if self.num_freeways < 0 or self.num_bridges < 0:
            raise ConfigurationError("counts must be non-negative")
        if not (0.0 <= self.oneway_fraction <= 1.0):
            raise ConfigurationError("oneway_fraction must be in [0, 1]")
        if self.speed_scale <= 0:
            raise ConfigurationError("speed_scale must be positive")
        if not (0.0 <= self.turn_restriction_fraction <= 1.0):
            raise ConfigurationError(
                "turn_restriction_fraction must be in [0, 1]"
            )

    def scaled(self, factor: float) -> "CityProfile":
        """Return a copy with the lattice scaled by ``factor``.

        Used by the ``size`` presets: the structure (arterials,
        freeways, river, bridges) is preserved while the node count
        shrinks or grows quadratically.
        """
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return replace(
            self,
            rows=max(4, round(self.rows * factor)),
            cols=max(4, round(self.cols * factor)),
        )


#: Size presets mapping to lattice scale factors.  "small" is for unit
#: tests, "medium" for the benchmark harness, "full" for the headline
#: study runs, and "metro" is the million-node stress preset that only
#: the streaming build path (``repro city build``) can afford:
#: at 24x the lattice, Melbourne reaches ~1056x1056 intersections
#: (~1.08M surviving nodes, ~4.3M directed edges), far beyond what the
#: document/object pipeline fits in memory.
SIZE_FACTORS = {"small": 0.45, "medium": 0.7, "full": 1.0, "metro": 24.0}


def melbourne_profile() -> CityProfile:
    """The Melbourne-like profile: regular sprawling grid, 3 freeways."""
    return CityProfile(
        name="melbourne",
        center_lat=-37.8136,
        center_lon=144.9631,
        rows=44,
        cols=44,
        spacing_m=400.0,
        irregularity=0.18,
        hole_fraction=0.03,
        arterial_every=5,
        secondary_every=3,
        num_freeways=3,
        ramp_every=3,
        has_ring_road=False,
        river_rows=1,
        num_bridges=6,
        oneway_fraction=0.10,
        speed_scale=1.0,
        turn_restriction_fraction=0.03,
    )


def dhaka_profile() -> CityProfile:
    """The Dhaka-like profile: dense organic fabric, scarce crossings."""
    return CityProfile(
        name="dhaka",
        center_lat=23.8103,
        center_lon=90.4125,
        rows=40,
        cols=40,
        spacing_m=250.0,
        irregularity=0.75,
        hole_fraction=0.10,
        arterial_every=7,
        secondary_every=4,
        num_freeways=1,
        ramp_every=4,
        has_ring_road=False,
        river_rows=1,
        num_bridges=3,
        oneway_fraction=0.25,
        speed_scale=0.8,
        turn_restriction_fraction=0.05,
    )


def copenhagen_profile() -> CityProfile:
    """The Copenhagen-like profile: compact plan with a ring motorway."""
    return CityProfile(
        name="copenhagen",
        center_lat=55.6761,
        center_lon=12.5683,
        rows=36,
        cols=36,
        spacing_m=300.0,
        irregularity=0.35,
        hole_fraction=0.05,
        arterial_every=4,
        secondary_every=3,
        num_freeways=2,
        ramp_every=3,
        has_ring_road=True,
        river_rows=1,
        num_bridges=4,
        oneway_fraction=0.15,
        speed_scale=0.9,
        turn_restriction_fraction=0.04,
    )
