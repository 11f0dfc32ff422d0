"""Boundary observability ratios and worst-case constant estimates.

For source-free evolutions the initial energy is controlled by the
squared normal derivative integrated over the observed boundary and the
time horizon.  The laboratory measures the ratio for individual data and
estimates the worst constant over finite eigenmode subspaces through the
flux Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .discretize import OperatorPair, edge_mass
from .errors import ConventionError, DegenerateObservationError, ParameterError
from .evolution import SpaceTimeField, TimeGrid, energy_history
from .geometry import BoundaryPart
from .spectral import Spectrum, expand

_MODE_DEPTH_LIMIT = 60.0  # largest admissible lambda_K * T


def _flux_gram(ops: OperatorPair, spectrum: Spectrum, grid: TimeGrid, k: int):
    """G_ij = (f_i, f_j)_edge * int_0^T exp(-(l_i + l_j) t) dt over the
    first k modes, with the time integral in closed form."""
    lam = spectrum.eigenvalues[:k]
    fm = spectrum.mode_flux(BoundaryPart.OBSERVED)[:, :k]
    emat = edge_mass(ops, BoundaryPart.OBSERVED)
    spatial = fm.T @ (emat @ fm)
    rate = np.add.outer(lam, lam)
    return spatial * (-np.expm1(-rate * grid.T) / rate)


def observability_ratio(y0, grid: TimeGrid, ops: OperatorPair,
                        spectrum: Spectrum) -> float:
    """||y0||^2 divided by the flux integral of the source-free evolution.

    The evolution is spectral over the computed modes, so the flux
    integral is the quadratic form of the flux Gram in the mode
    coefficients.  Scale-invariant in y0.
    """
    y0 = np.asarray(y0, dtype=float)
    nsq = float(y0 @ (ops.M_full @ y0))
    if nsq == 0.0:
        raise ParameterError("observability ratio undefined for y0 = 0")
    coeffs = expand(spectrum, y0)
    gram = _flux_gram(ops, spectrum, grid, spectrum.count)
    flux_int = float(coeffs @ (gram @ coeffs))
    if flux_int < 1e-300:
        raise DegenerateObservationError(
            "observed flux integral vanishes; datum is unobservable at this depth"
        )
    return nsq / flux_int


@dataclass(frozen=True)
class ObservabilityReport:
    """Constant estimate over an eigenmode subspace.

    subspace_dim is the effective K after enforcing lambda_K * T <= 60
    (deeper modes contribute numerically unobservable fluxes that would
    poison the Gram conditioning).
    """

    requested_modes: int
    subspace_dim: int
    ratios: tuple
    c_obs: float | None
    singular: bool


def estimate_constant(grid: TimeGrid, ops: OperatorPair, spectrum: Spectrum,
                      k_modes: int) -> ObservabilityReport:
    """Worst energy/flux ratio over the first k eigenmodes.

    The supremum over the subspace equals the largest generalized
    eigenvalue of the identity against the flux Gram matrix, i.e. the
    reciprocal of the Gram's smallest eigenvalue.
    """
    if k_modes < 1 or k_modes > spectrum.count:
        raise ParameterError(f"k_modes={k_modes} outside [1, {spectrum.count}]")
    lam = spectrum.eigenvalues
    if lam[0] * grid.T > _MODE_DEPTH_LIMIT:
        raise ParameterError(
            f"lambda_1 * T = {lam[0] * grid.T:.3g} exceeds the depth limit "
            f"{_MODE_DEPTH_LIMIT}; shorten the horizon"
        )
    k_eff = int(np.searchsorted(lam * grid.T, _MODE_DEPTH_LIMIT, side="right"))
    k_eff = min(k_eff, k_modes)
    gram = _flux_gram(ops, spectrum, grid, k_eff)
    ratios = tuple(1.0 / gram[m, m] for m in range(k_eff))
    # eigh, not eigvalsh: LAPACK takes another route without eigenvectors,
    # which may move the last bits of c_obs
    evals, _ = la.eigh(gram)
    # the Gram of an SPD observation problem stays positive until its true
    # smallest eigenvalue sinks below roundoff, so non-positivity is the
    # meaningful singularity test
    singular = bool(evals[0] <= 1e-300)
    return ObservabilityReport(
        requested_modes=k_modes, subspace_dim=k_eff,
        ratios=ratios, c_obs=None if singular else float(1.0 / evals[0]),
        singular=singular,
    )


def window_bound_check(field: SpaceTimeField, ops: OperatorPair):
    """Initial energy against the mean energy over the middle half window.

    The field must follow the backward convention, i.e. its L2 energy is
    non-decreasing in time; then
    ||y(0)||^2 <= (2/T) * integral over (T/4, 3T/4) of ||y(t)||^2 dt.
    """
    t = field.grid.nodes
    esq = energy_history(field, ops) ** 2
    scale = max(float(esq.max()), 1e-300)
    if np.any(np.diff(esq) < -1e-10 * scale):
        raise ConventionError(
            "energy decreases in time; window bound needs a backward-convention field"
        )
    T = field.grid.T
    lo, hi = T / 4.0, 3.0 * T / 4.0
    inside = (t > lo) & (t < hi)
    tq = np.concatenate([[lo], t[inside], [hi]])
    eq = np.concatenate([[np.interp(lo, t, esq)], esq[inside], [np.interp(hi, t, esq)]])
    rhs = (2.0 / T) * float(np.trapezoid(eq, tq))
    lhs = float(esq[0])
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-8)}
