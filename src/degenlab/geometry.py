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

from dataclasses import dataclass
from enum import Enum

from .errors import ParameterError


class BoundaryPart(Enum):
    """Disjoint classification of boundary nodes.

    DEGENERATE: x_N = 0, where the diffusion weight vanishes.
    OBSERVED:   x_N = 1, where (A nu) . e_N > 0: the weight is one there
                and the outward normal is +e_N.  At x_N = 0 the weight
                vanishes, so the sign condition fails.
    LATERAL:    the remaining sides (square only).
    CUT:        the artificial boundary x_N = delta of a truncated domain.

    The lower edge (DEGENERATE or CUT) and the observed edge take the
    corners they share with the lateral sides.
    """

    DEGENERATE = "degenerate"
    OBSERVED = "observed"
    LATERAL = "lateral"
    CUT = "cut"


@dataclass(frozen=True)
class DomainSpec:
    """Continuous problem description.

    Attributes
    ----------
    dimension : int
        1 (interval) or 2 (unit square).
    alpha : float
        Degeneracy exponent of the diffusion weight, strictly in (0, 1).
    delta0 : float
        Safety margin: truncations use delta in (0, delta0).
    """

    dimension: int
    alpha: float
    delta0: float = 0.25

    # the boundary part on the lower edge x_N = xn_lower
    lower_part = BoundaryPart.DEGENERATE

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {self.dimension}")
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(
                f"alpha must lie strictly inside (0, 1), got {self.alpha}"
            )
        if not (0.0 < self.delta0 < 0.5):
            raise ParameterError(f"delta0 out of range: {self.delta0}")

    @property
    def xn_lower(self) -> float:
        """Lower bound of the degenerate coordinate (0 for full domains)."""
        return 0.0


@dataclass(frozen=True)
class TruncatedDomain:
    """The slab {x in Omega : x_N > delta} cut off the parent, whose lower
    edge x_N = delta is the cut boundary."""

    parent: DomainSpec
    delta: float

    lower_part = BoundaryPart.CUT

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
    def xn_lower(self) -> float:
        return self.delta


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
