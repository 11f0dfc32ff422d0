"""Domains whose diffusion coefficient degenerates on part of the boundary.

The diffusion matrix is diag(1, ..., 1, x_N**alpha) with alpha in (0, 1):
it vanishes on the boundary piece where the last coordinate is zero.  Two
geometries are supported, the unit interval (N = 1) and the unit square
(N = 2), with the degenerate coordinate x_N last.  The flux is observed
on the edge x_N = 1.  Truncated domains cut a strip of width delta, with
0 < delta < MAX_DELTA, off the degenerate edge, where the equation becomes
uniformly parabolic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError

MAX_DELTA = 0.25


@dataclass(frozen=True)
class DomainSpec:
    """Continuous problem description.

    Attributes
    ----------
    dimension : int
        1 (interval) or 2 (unit square).
    alpha : float
        Degeneracy exponent of the diffusion weight, strictly in (0, 1).
    """

    dimension: int
    alpha: float

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {self.dimension}")
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(
                f"alpha must lie strictly inside (0, 1), got {self.alpha}"
            )

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

    def __post_init__(self):
        if not (0.0 < self.delta < MAX_DELTA):
            raise ParameterError(f"delta must lie in (0, {MAX_DELTA}), got {self.delta}")

    @property
    def dimension(self) -> int:
        return self.parent.dimension

    @property
    def alpha(self) -> float:
        return self.parent.alpha

    @property
    def xn_lower(self) -> float:
        return self.delta


def make_domain(kind: str, alpha: float) -> DomainSpec:
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
    return DomainSpec(dimension=kinds[kind], alpha=alpha)


def truncate(domain: DomainSpec, delta: float) -> TruncatedDomain:
    """Slab Omega intersected with {x_N > delta}, 0 < delta < MAX_DELTA."""
    return TruncatedDomain(parent=domain, delta=delta)
