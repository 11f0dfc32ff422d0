"""Domains whose diffusion coefficient degenerates on part of the boundary.

The diffusion matrix is diag(1, ..., 1, x_N**alpha) with alpha in (0, 1):
it vanishes on the boundary piece where the last coordinate is zero.  Two
geometries are supported, the unit interval (N = 1) and the unit square
(N = 2); both expose the degenerate edge, the observed boundary at
x_N = 1 and, for the square, lateral sides.  Truncated domains cut a
strip of width delta off the degenerate edge, where the equation becomes
uniformly parabolic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ParameterError


class BoundaryPart(Enum):
    """Disjoint classification of boundary nodes.

    DEGENERATE: x_N = 0, where the diffusion weight vanishes.
    OBSERVED:   the part where the weighted outward normal has a positive
                component along e_N (x_N = 1 for both geometries).
    LATERAL:    the remaining sides (square only).
    CUT:        the artificial boundary x_N = delta of a truncated domain.
    """

    DEGENERATE = "degenerate"
    OBSERVED = "observed"
    LATERAL = "lateral"
    CUT = "cut"


@dataclass(frozen=True)
class Box:
    """Axis-aligned box used to describe regions (open in each axis)."""

    lo: tuple
    hi: tuple

    def contains(self, points, tol=0.0):
        pts = np.atleast_2d(points)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts > lo - tol) & (pts < hi + tol), axis=1)


@dataclass(frozen=True)
class DomainSpec:
    """Continuous problem description.

    Attributes
    ----------
    dimension : int
        1 (interval) or 2 (unit square).
    alpha : float
        Degeneracy exponent of the diffusion weight, strictly in (0, 1).
    bound : float
        sup |x| over the domain plus one (2 for the interval,
        sqrt(2) + 1 for the square).
    delta0 : float
        Safety margin: truncations use delta in (0, delta0).
    """

    dimension: int
    alpha: float
    bound: float = field(init=False)
    delta0: float = 0.25

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {self.dimension}")
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(
                f"alpha must lie strictly inside (0, 1), got {self.alpha}"
            )
        if not (0.0 < self.delta0 < 0.5):
            raise ParameterError(f"delta0 out of range: {self.delta0}")
        sup_x = 1.0 if self.dimension == 1 else math.sqrt(2.0)
        object.__setattr__(self, "bound", sup_x + 1.0)

    @property
    def xn_lower(self) -> float:
        """Lower bound of the degenerate coordinate (0 for full domains)."""
        return 0.0

    def classify_boundary(self, points, tol=1e-12):
        """Assign each boundary point to exactly one BoundaryPart.

        The observed part is where (A nu) . e_N > 0: at x_N = 1 the weight
        is one and the outward normal is +e_N.  At x_N = 0 the weight
        vanishes, so the sign condition fails and the edge is degenerate.
        Corners of the square go to the degenerate / observed edges, in
        that priority order.
        """
        pts = np.atleast_2d(points)
        parts = np.empty(pts.shape[0], dtype=object)
        on_bottom = np.abs(pts[:, -1] - 0.0) <= tol
        on_top = np.abs(pts[:, -1] - 1.0) <= tol
        parts[:] = BoundaryPart.LATERAL
        parts[on_top] = BoundaryPart.OBSERVED
        parts[on_bottom] = BoundaryPart.DEGENERATE
        return parts


@dataclass(frozen=True)
class TruncatedDomain:
    """The slab obtained by cutting the strip x_N <= delta off the parent.

    The region is the exact polygonal slab {x in Omega : x_N > delta};
    it satisfies the nesting delta2 < delta1  =>  region(delta1) inside
    region(delta2) and contains {x_N > 2 delta} by construction.
    """

    parent: DomainSpec
    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < self.parent.delta0):
            raise ParameterError(
                f"delta must lie in (0, {self.parent.delta0}), got {self.delta}"
            )

    @property
    def dimension(self) -> int:
        return self.parent.dimension

    @property
    def alpha(self) -> float:
        return self.parent.alpha

    @property
    def region(self) -> Box:
        lo = (0.0,) * (self.dimension - 1) + (self.delta,)
        return Box(lo, (1.0,) * self.dimension)

    @property
    def xn_lower(self) -> float:
        return self.delta

    def classify_boundary(self, points, tol=1e-12):
        """Like the parent's classification, with the cut edge x_N = delta
        replacing the degenerate one."""
        pts = np.atleast_2d(points)
        parts = np.empty(pts.shape[0], dtype=object)
        parts[:] = BoundaryPart.LATERAL
        parts[np.abs(pts[:, -1] - 1.0) <= tol] = BoundaryPart.OBSERVED
        parts[np.abs(pts[:, -1] - self.delta) <= tol] = BoundaryPart.CUT
        return parts


def make_domain(kind: str, alpha: float, delta0: float = 0.25) -> DomainSpec:
    """Build the interval or unit-square domain description.

    Parameters
    ----------
    kind : {"interval", "square"}
    alpha : float
        Degeneracy exponent, strictly in (0, 1).
    """
    kinds = {"interval": 1, "square": 2}
    if kind not in kinds:
        raise ParameterError(f"unknown domain kind {kind!r}")
    return DomainSpec(dimension=kinds[kind], alpha=alpha, delta0=delta0)


def truncate(domain: DomainSpec, delta: float) -> TruncatedDomain:
    """Slab Omega intersected with {x_N > delta}, 0 < delta < delta0."""
    return TruncatedDomain(parent=domain, delta=delta)


def collar(domain: DomainSpec, delta: float) -> Box:
    """Neighbourhood {x in Omega : dist(x, observed boundary) < delta}.

    For the square this is the strip (0,1) x (1-delta, 1); every point of
    it keeps x_N > 1 - delta0 > delta0.
    """
    if not (0.0 < delta < domain.delta0):
        raise ParameterError(
            f"delta must lie in (0, {domain.delta0}), got {delta}"
        )
    lo = (0.0,) * (domain.dimension - 1) + (1.0 - delta,)
    return Box(lo, (1.0,) * domain.dimension)
