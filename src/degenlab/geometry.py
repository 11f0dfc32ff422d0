"""Domains whose diffusion coefficient degenerates on part of the boundary.

The diffusion matrix is diag(1, ..., 1, x_N**alpha) with alpha in (0, 1):
it vanishes on the boundary piece where the last coordinate is zero.  Two
geometries are supported, the unit interval (N = 1) and the unit square
(N = 2), with the degenerate coordinate x_N last.  The flux is observed
on the edge x_N = 1.  One record describes the whole family
Omega_delta = {x in Omega : x_N > delta}: delta = 0 is the degenerate
domain itself, so ``truncate(domain, 0)`` is Omega, and a slab with
0 < delta < MAX_DELTA, whose lower edge x_N = delta is the cut boundary,
is uniformly parabolic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ContractError, ParameterError

MAX_DELTA = 0.25


@dataclass(frozen=True)
class Domain:
    """Continuous problem description.

    Attributes
    ----------
    dimension : int
        1 (interval) or 2 (unit square).
    alpha : float
        Degeneracy exponent of the diffusion weight, strictly in (0, 1).
    delta : float
        Lower bound of x_N: 0 for the degenerate domain, in (0, MAX_DELTA)
        for a slab.
    """

    dimension: int
    alpha: float
    delta: float = 0.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {self.dimension}")
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(
                f"alpha must lie strictly inside (0, 1), got {self.alpha}"
            )
        if not (0.0 <= self.delta < MAX_DELTA):
            raise ParameterError(f"delta must be 0 or lie in (0, {MAX_DELTA}), got {self.delta}")


def make_domain(kind: str, alpha: float) -> Domain:
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
    return Domain(dimension=kinds[kind], alpha=alpha)


def truncate(domain: Domain, delta: float) -> Domain:
    """Omega intersected with {x_N > delta}: the degenerate domain itself at
    delta = 0, else its slab; a slab is not cut again."""
    if domain.delta > 0.0:
        raise ContractError(f"the domain is already the slab x_N > {domain.delta}")
    return replace(domain, delta=delta)
