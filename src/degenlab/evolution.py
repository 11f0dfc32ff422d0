"""Forward-in-time evolution of the weighted parabolic equation.

Two solvers share one convention (forward from an initial datum): the
spectral Galerkin solver evolves each mode coefficient by the explicit
exponential formula, and a theta scheme, stepping in the eigenbasis of
the x_1 pair with one tridiagonal x_N solve per mode, provides an
independent cross-validation path.  Backward problems are handled by
reversing time with :func:`time_reverse` rather than by a second solver.

A spectral field stays in coefficient space: it holds the K mode
coefficients per time node, and its nodal values are built only when a
consumer reads them.  Its energy is the quadratic form of the mode Gram
``Phi' M Phi`` in the coefficients, and reversing it in time reverses
the coefficient rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import OperatorPair, boundary_flux, edge_mass
from .errors import ContractError, ParameterError
from .spectral import Spectrum, expand


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time nodes on [0, T]."""

    T: float
    steps: int

    def __post_init__(self):
        if self.T <= 0.0:
            raise ParameterError(f"final time must be positive, got {self.T}")
        if self.steps < 8:
            raise ParameterError(f"need at least 8 time steps, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def nodes(self):
        return np.linspace(0.0, self.T, self.steps + 1)


class SpaceTimeField:
    """Nodal values y(x, t_j) for every time node, zero on the boundary.

    A coefficient field (``values=None``, ``mode_data=(spectrum, coeffs)``
    with one coefficient row per time node) builds its nodal values on
    first read, as ``coeffs @ spectrum.modes.T`` in either time direction,
    and caches them.  Each nodal row depends only on its coefficient row,
    so a reversed field's values are the forward values reversed.
    """

    def __init__(self, mesh, grid, values, source=None, direction="forward",
                 mode_data=None):
        self.mesh = mesh
        self.grid = grid
        self._values = values
        self.source = source
        self.direction = direction
        self._mode_data = mode_data
        if values is not None:
            shape = values.shape
        else:
            spectrum, coeffs = mode_data
            shape = (coeffs.shape[0], spectrum.modes.shape[0])
        if shape != (grid.steps + 1, mesh.n_nodes):
            raise ContractError("field shape does not match grid and mesh")

    @property
    def values(self):
        if self._values is None:
            spectrum, coeffs = self._mode_data
            self._values = coeffs @ spectrum.modes.T
        return self._values

    def rows(self, index):
        """Nodal values at the time rows ``index``; a coefficient field
        builds only those rows, from its coefficient rows ``index``."""
        if self._values is not None:
            return self._values[index]
        spectrum, coeffs = self._mode_data
        return coeffs[index] @ spectrum.modes.T

    @property
    def y0(self):
        return self.values[0]

    def source_values(self):
        """Source as a (steps+1, n_nodes) array, or None when absent."""
        if self.source is None:
            return None
        m, n = self.grid.steps + 1, self.mesh.n_nodes
        f = np.asarray(self.source, dtype=float)
        if f.shape == (n,):
            return np.broadcast_to(f, (m, n))
        if f.shape == (m, n):
            return f
        raise ContractError("source must be nodal, constant or per time node")


def _phi1(mu):
    """(1 - exp(-mu)) / mu, stable for small mu."""
    mu = np.asarray(mu, dtype=float)
    return np.where(mu < 1e-12, 1.0 - mu / 2.0, -np.expm1(-mu) / np.where(mu == 0, 1, mu))


def _phi2(mu):
    """(1 - (1 + mu) exp(-mu)) / mu**2, stable for small mu."""
    mu = np.asarray(mu, dtype=float)
    small = mu < 1e-3
    safe = np.where(small, 1.0, mu)
    exact = (-np.expm1(-safe) - safe * np.exp(-safe)) / safe**2
    series = 0.5 - mu / 6.0 + mu**2 / 24.0 - mu**3 / 120.0
    return np.where(small, series, exact)


def solve_spectral(spectrum: Spectrum, y0, f, grid: TimeGrid) -> SpaceTimeField:
    """Evolve by the explicit per-mode formula.

    Each coefficient obeys c' + lambda c = f_n(t) and is advanced exactly
    for the piecewise-linear-in-time interpolant of the mode load, so
    there is no stiffness restriction on the step size.  The field is the
    evolution of the projection of (y0, f) onto the computed mode span;
    data outside the span is discarded (callers supply expandable data).
    """
    lam = spectrum.eigenvalues
    mu = lam * grid.dt
    decay = np.exp(-mu)
    w_new = grid.dt * (_phi1(mu) - _phi2(mu))
    w_old = grid.dt * _phi2(mu)
    m = grid.steps + 1
    coeffs = np.empty((m, spectrum.count))
    field = SpaceTimeField(spectrum.ops.mesh, grid, None, source=f,
                           mode_data=(spectrum, coeffs))
    fvals = field.source_values()
    loads = (np.zeros((m, spectrum.count)) if fvals is None
             else np.array([expand(spectrum, row) for row in fvals]))
    coeffs[0] = expand(spectrum, np.asarray(y0, dtype=float))
    for j in range(grid.steps):
        coeffs[j + 1] = coeffs[j] * decay + loads[j] * w_old + loads[j + 1] * w_new
    return field


def solve_implicit(ops: OperatorPair, y0, f, grid: TimeGrid,
                   theta: float = 1.0) -> SpaceTimeField:
    """Theta scheme (M + theta dt K) y+ = (M - (1-theta) dt K) y + dt M f.

    Unconditionally stable for theta in [0.5, 1]; theta = 1 is backward
    Euler, theta = 0.5 the second-order midpoint rule.  Steps run in the
    M-orthonormal eigenbasis of the x_1 pair (one mode, lam = 0, on the
    interval), where M + c K has one tridiagonal x_N block per x_1 mode.
    x_N stays nodal: its weighted eigenbasis loses accuracy on graded meshes.
    """
    if not (0.5 <= theta <= 1.0):
        raise ParameterError(f"theta must lie in [0.5, 1], got {theta}")
    mesh = ops.mesh
    dt = grid.dt
    # the interior is a tensor grid: x_1 rows (one on the interval) by x_N columns
    rows, cols = (np.unique(i) for i in np.divmod(ops.interior, mesh.shape[-1]))
    kx, mx = (a[rows][:, rows].toarray() for a in ops.x1)
    kn, mn = (a[cols][:, cols] for a in ops.xn)
    lam, vecs = la.eigh(kx, mx)
    to_modes = vecs.T @ mx
    # M and K in the x_1 eigenbasis: one tridiagonal x_N block per x_1 mode
    eye = sp.identity(rows.size)
    mass = sp.kron(eye, mn, format="csr")
    stiff = sp.kron(sp.diags(lam), mn, format="csr") + sp.kron(eye, kn, format="csr")
    lu = spla.splu((mass + theta * dt * stiff).tocsc())
    rhs_op = mass - (1.0 - theta) * dt * stiff
    values = np.zeros((grid.steps + 1, mesh.n_nodes))
    values[0] = y0
    field = SpaceTimeField(mesh, grid, values, source=f)
    fvals = field.source_values()
    shape = (rows.size, cols.size)

    def coords(v):
        return (to_modes @ v[ops.interior].reshape(shape)).ravel()

    z = coords(values[0])
    for j in range(grid.steps):
        rhs = rhs_op @ z
        if fvals is not None:
            rhs += dt * (mass @ coords((1.0 - theta) * fvals[j] + theta * fvals[j + 1]))
        z = lu.solve(rhs)
        values[j + 1, ops.interior] = (vecs @ z.reshape(shape)).ravel()
    return field


def _row_blocks(m):
    """Slices of m time rows in blocks of >= 16 rows (one block below 32)."""
    return [slice(b[0], b[-1] + 1) for b in np.array_split(np.arange(m), max(1, m // 16))]


def _form(A, v):
    return np.einsum("tn,tn->t", v, (A @ v.T).T)


def form_per_time(A, values):
    """v' A v for every row v of a (steps+1, n) block, by blocks of >= 16 rows: each row
    sums as in one einsum over the whole block, with no transposed copy of the block."""
    return np.concatenate([_form(A, values[b]) for b in _row_blocks(len(values))])


def form_of_difference(A, rows, ref):
    """form_per_time(A, V - ref) for the (steps+1, n) block V whose rows b are
    rows(b), with the difference formed one block of rows at a time."""
    return np.concatenate([_form(A, rows(b) - ref[b]) for b in _row_blocks(len(ref))])


def time_norm(per_time, t):
    """sqrt of the trapezoid time integral of a per-time form."""
    return float(np.sqrt(max(np.trapezoid(per_time, t), 0.0)))


def space_time_norm(A, values, t):
    """sqrt of the trapezoid time integral of v(t)' A v(t)."""
    return time_norm(form_per_time(A, values), t)


def energy_history(field: SpaceTimeField, ops: OperatorPair):
    """L2 norm of the field at every time node; non-increasing when the
    source vanishes (parabolic energy decay).  A coefficient field gives
    sqrt(c(t)' G c(t)) with the mode Gram G = Phi' M Phi of its spectrum."""
    if field._mode_data is not None:
        spectrum, coeffs = field._mode_data
        per_time = np.einsum("tk,tk->t", coeffs, coeffs @ spectrum.mass_gram)
    else:
        per_time = form_per_time(ops.M_full, field.values)
    return np.sqrt(np.maximum(per_time, 0.0))


def _time_derivative(values, dt):
    dv = np.empty_like(values)
    dv[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    dv[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    dv[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return dv


def flux_history(field: SpaceTimeField, ops: OperatorPair, part):
    """Normal derivative on a boundary part at every time node, plus the
    space-time integral of its square over part x (0, T).

    Forward fields of the spectral solver combine the per-mode fluxes of
    their spectrum; other fields fall back to variational recovery with a
    finite-differenced time derivative as the load proxy.
    """
    grid = field.grid
    # backward coefficient fields stay on the recovery below: the pinned Carleman
    # budgets come from it until the backward-flux fix (ROADMAP item 1)
    if field._mode_data is not None and field.direction == "forward":
        spectrum, coeffs = field._mode_data
        flux = coeffs @ spectrum.mode_flux(part).T
    else:
        proxy = -_time_derivative(field.values, grid.dt)
        if field.source is not None:
            proxy += field.source_values()
        flux = boundary_flux(ops, field.values.T, part, f_proxy=proxy.T).T
    per_time = form_per_time(edge_mass(ops, part), flux)
    integral = float(np.trapezoid(per_time, grid.nodes))
    return flux, integral


def time_reverse(field: SpaceTimeField) -> SpaceTimeField:
    """Backward-convention view: t -> T - t.

    If y solves the forward equation with source g, the reversed field
    solves the backward equation (d_t + div(A grad)) y = -g(T - t); its
    L2 energy is non-decreasing when g = 0.  A coefficient field stays one,
    with its coefficient rows reversed.
    """
    source = None if field.source is None else -field.source_values()[::-1]
    if field._mode_data is not None:
        spectrum, coeffs = field._mode_data
        return SpaceTimeField(field.mesh, field.grid, None, source=source,
                              direction="backward", mode_data=(spectrum, coeffs[::-1]))
    return SpaceTimeField(field.mesh, field.grid, field.values[::-1].copy(),
                          source=source, direction="backward")


def stability_ratio(field: SpaceTimeField, ops: OperatorPair) -> float:
    """Measured shape of the a-priori energy estimate:

        [ sup_t ||y(t)||_L2 + ||y||_{L2(0,T;H1w)} ] / [ ||f||_{L2(Q)} + ||y0||_L2 ].
    """
    t = field.grid.nodes
    l2 = energy_history(field, ops)
    h1_qt = space_time_norm(ops.K_full, field.values, t)
    f_qt = 0.0 if field.source is None else space_time_norm(ops.M_full, field.source_values(), t)
    denom = f_qt + l2[0]
    if denom == 0.0:
        raise ParameterError("stability ratio undefined for zero data")
    return (float(np.max(l2)) + h1_qt) / denom
