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

from .discretize import tensor_form
from .errors import DegenerateObservationError, ParameterError
from .evolution import TimeGrid
from .spectral import Spectrum, expand

_MODE_DEPTH_LIMIT = 60.0  # largest admissible lambda_K * T


def _flux_gram(spectrum: Spectrum, grid: TimeGrid, k: int):
    """G_ij = (f_i, f_j)_edge * int_0^T exp(-(l_i + l_j) t) dt over the
    first k modes, with the time integral in closed form; the edge mass is
    the x_1 mass factor of the spectrum's operator pair."""
    lam = spectrum.eigenvalues[:k]
    fm = spectrum.mode_flux[:, :k]
    spatial = fm.T @ (spectrum.ops.x1[1] @ fm)
    rate = np.add.outer(lam, lam)
    return spatial * (-np.expm1(-rate * grid.T) / rate)


def observability_ratio(y0, grid: TimeGrid, spectrum: Spectrum) -> float:
    """||y0||^2 divided by the flux integral of the source-free evolution.

    The evolution is spectral over the computed modes, so the flux
    integral is the quadratic form of the flux Gram in the mode
    coefficients.  Scale-invariant in y0.
    """
    y0 = np.asarray(y0, dtype=float)
    nsq = tensor_form(y0, spectrum.ops.x1[1], spectrum.ops.xn[1])
    if nsq == 0.0:
        raise ParameterError("observability ratio undefined for y0 = 0")
    coeffs = expand(spectrum, y0)
    gram = _flux_gram(spectrum, grid, spectrum.count)
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

    subspace_dim: int
    ratios: tuple
    c_obs: float | None
    singular: bool


def _check_depth(lam, T, k_modes):
    """The number of the first k_modes eigenvalues lam with lambda T within
    the depth limit, which the flux Gram keeps.  Refuse a horizon T with
    lambda_1 T beyond the limit, which leaves no mode to observe, or with
    2 lambda T below machine epsilon for every kept mode but one: then
    every time factor of the Gram rounds to T, and the time kernels of
    the modes cannot be told apart.  The CLI runs it before writing any
    file."""
    if lam[0] * T > _MODE_DEPTH_LIMIT:
        raise ParameterError(
            f"lambda_1 * T = {lam[0] * T:.3g} exceeds the depth limit "
            f"{_MODE_DEPTH_LIMIT}; shorten the horizon"
        )
    k_eff = min(int(np.searchsorted(lam * T, _MODE_DEPTH_LIMIT, side="right")), k_modes)
    if k_eff >= 2 and 2.0 * lam[k_eff - 1] * T < np.finfo(float).eps:
        raise ParameterError(
            f"2 lambda_{k_eff} * T = {2.0 * lam[k_eff - 1] * T:.3g} is below machine "
            f"epsilon: the time kernels of the first {k_eff} modes agree to double "
            "precision; lengthen the horizon"
        )
    return k_eff


def estimate_constant(grid: TimeGrid, spectrum: Spectrum, k_modes: int) -> ObservabilityReport:
    """Worst energy/flux ratio over the first k eigenmodes.

    The supremum over the subspace equals the largest generalized
    eigenvalue of the identity against the flux Gram matrix, i.e. the
    reciprocal of the Gram's smallest eigenvalue.
    """
    if k_modes < 1 or k_modes > spectrum.count:
        raise ParameterError(f"k_modes={k_modes} outside [1, {spectrum.count}]")
    k_eff = _check_depth(spectrum.eigenvalues, grid.T, k_modes)
    gram = _flux_gram(spectrum, grid, k_eff)
    ratios = tuple(1.0 / gram[m, m] for m in range(k_eff))
    # eigh, not eigvalsh: LAPACK takes another route without eigenvectors,
    # which may move the last bits of c_obs
    evals, _ = np.linalg.eigh(gram)
    # the Gram of an SPD observation problem stays positive until its true
    # smallest eigenvalue sinks below roundoff, so non-positivity is the
    # meaningful singularity test
    singular = bool(evals[0] <= 1e-300)
    return ObservabilityReport(
        subspace_dim=k_eff, ratios=ratios,
        c_obs=None if singular else float(1.0 / evals[0]), singular=singular,
    )
