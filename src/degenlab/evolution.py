"""Forward-in-time evolution of the source-free weighted parabolic equation.

Two solvers share one convention (forward from an initial datum): the
spectral Galerkin solver sets each mode coefficient to its exact
exponential decay at every time node, and a theta scheme, stepping in the
eigenbasis of the x_1 pair with one tridiagonal x_N solve per mode,
provides an independent cross-validation path.  The theta scheme yields one nodal row
per time node (:func:`theta_rows`); the CLI's evolve folds each row as it
comes, so its memory is independent of the step count, and
:func:`solve_implicit` stacks the rows into a field.  Backward problems
reverse time with :func:`time_reverse`.

A spectral field stays in coefficient space: it holds the K mode
coefficients per time node, and its nodal values are built, and never
stored, each time a consumer reads them.  Its energy is the quadratic
form of the mode Gram ``Phi' M Phi`` in the coefficients, and reversing
it in time reverses the coefficient rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .discretize import OperatorPair, boundary_flux, tensor_form
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
    """Nodal values y(x, t_j) of a source-free solution for every time node
    on the mesh of the operator pair ``ops``, zero on the boundary; consumers
    read the pair as ``field.ops``.

    A coefficient field (``values=None``, ``mode_data=(spectrum, coeffs)``
    with one coefficient row per time node) stores no nodal values: every
    read of ``values``, ``rows`` or ``columns`` builds them from the
    coefficients, as ``coeffs @ spectrum.modes.T`` in either time direction,
    so the bits of a read never depend on what was read before; its
    spectrum must be one of ``ops``.  Each nodal row depends only on its
    coefficient row, so a reversed field's values are the forward values
    reversed.
    """

    def __init__(self, ops: OperatorPair, grid, values, direction="forward", mode_data=None):
        self.ops = ops
        self.mesh = mesh = ops.mesh
        self.grid = grid
        self._values = values
        self.direction = direction
        self._mode_data = mode_data
        if values is not None:
            shape = values.shape
        else:
            spectrum, coeffs = mode_data
            if spectrum.ops is not ops:
                raise ContractError("the field's spectrum is not one of its operator pair")
            shape = (coeffs.shape[0], spectrum.modes.shape[0])
        if shape != (grid.steps + 1, mesh.n_nodes):
            raise ContractError("field shape does not match grid and mesh")

    @property
    def values(self):
        if self._values is not None:
            return self._values
        spectrum, coeffs = self._mode_data
        return coeffs @ spectrum.modes.T

    def rows(self, index):
        """Nodal values at the time rows ``index``; a coefficient field
        builds only those rows, from its coefficient rows ``index``."""
        if self._values is not None:
            return self._values[index]
        spectrum, coeffs = self._mode_data
        return coeffs[index] @ spectrum.modes.T

    def columns(self, cols):
        """Nodal values at the nodes ``cols`` for every time row; a
        coefficient field builds only those columns, from the mode rows
        ``cols``."""
        if self._values is not None:
            return self._values[:, cols]
        spectrum, coeffs = self._mode_data
        return coeffs @ spectrum.modes[cols].T


def solve_spectral(spectrum: Spectrum, y0, grid: TimeGrid) -> SpaceTimeField:
    """Evolve by the explicit per-mode formula.

    Each coefficient obeys c' + lambda c = 0 and is set at every time node
    to its closed form c(t_j) = c(0) exp(-lambda t_j), so there is no
    stiffness restriction on the step size.  The field is the evolution of
    the projection of y0 onto the computed mode span; data outside the span
    is discarded (callers supply expandable data).
    """
    # lambda t leaves the double range at long horizons, and exp(-inf) = 0
    # is the exact decay of such a coefficient
    with np.errstate(over="ignore"):
        decay = np.exp(-np.outer(grid.nodes, spectrum.eigenvalues))
    coeffs = expand(spectrum, np.asarray(y0, dtype=float)) * decay
    return SpaceTimeField(spectrum.ops, grid, None, mode_data=(spectrum, coeffs))


# the smallest normal double
_TINY = np.finfo(float).tiny


def theta_rows(ops: OperatorPair, y0, grid: TimeGrid, theta: float = 1.0):
    """Theta scheme (M + theta dt K) y+ = (M - (1-theta) dt K) y,
    yielded as one new nodal row per time node, from y0 on; only the current
    row is held, so a consumer that folds each row keeps O(n_nodes) memory.

    Unconditionally stable for theta in [0.5, 1]; theta = 1 is backward
    Euler, theta = 0.5 the second-order midpoint rule.  Steps run in the
    M-orthonormal eigenbasis of the interior x_1 pair, ``ops.x1_eigh``
    (one mode, lam = 0, on the interval), where M + c K has one tridiagonal
    block mn + c (lam_i mn + kn) of the interior x_N pair per x_1 mode, held
    as its diagonals; the eigenbasis is computed once per operator pair, and
    no 2D operator and no sparse matrix is built.
    x_N stays nodal: its weighted eigenbasis loses accuracy on graded meshes.
    """
    if not (0.5 <= theta <= 1.0):
        raise ParameterError(f"theta must lie in [0.5, 1], got {theta}")
    (_, mx), (kn, mn) = ops.interior_1d
    lam, vecs = ops.x1_eigh
    to_modes = vecs.T @ mx.toarray()
    # diagonal and superdiagonal of M and K, one row of x_N entries per x_1 mode
    mass = [mn.diagonal(k) for k in (0, 1)]
    stiff = [lam[:, None] * m + kn.diagonal(k) for k, m in enumerate(mass)]
    (lhs_d, lhs_e), (rhs_d, rhs_e) = ([m + c * a for m, a in zip(mass, stiff)]
                                      for c in (theta * grid.dt, -(1.0 - theta) * grid.dt))
    # end to end, the blocks are one SPD tridiagonal matrix (0 where two meet): L D L'
    d, e, _ = dpttrf(lhs_d.ravel(), np.pad(lhs_e, ((0, 0), (0, 1))).ravel()[:-1])
    row = np.array(y0, dtype=float)
    yield row
    z = to_modes @ row[ops.interior].reshape(lhs_d.shape)  # x_1 modes by x_N nodes
    for _ in range(grid.steps):
        # summed below, on, then above the diagonal: the order of a CSR row
        # product, so the rows keep the bits of the sparse operator's step
        b = rhs_d * z
        b[:, 1:] = rhs_e * z[:, :-1] + b[:, 1:]
        b[:, :-1] += rhs_e * z[:, 1:]
        z = dpttrs(d, e, b.ravel(), overwrite_b=True)[0].reshape(b.shape)
        # decayed coefficients reach the subnormal range, where vecs @ z is slow
        z[np.abs(z) < _TINY] = 0.0
        row = np.zeros(ops.mesh.n_nodes)
        row[ops.interior] = (vecs @ z).ravel()
        yield row


def solve_implicit(ops: OperatorPair, y0, grid: TimeGrid, theta: float = 1.0) -> SpaceTimeField:
    """The rows of :func:`theta_rows` as one (steps+1, n_nodes) field."""
    values = np.empty((grid.steps + 1, ops.mesh.n_nodes))
    for j, row in enumerate(theta_rows(ops, y0, grid, theta)):
        values[j] = row
    return SpaceTimeField(ops, grid, values)


def time_norm(per_time, t):
    """sqrt of the trapezoid time integral of a per-time form."""
    return float(np.sqrt(max(np.trapezoid(per_time, t), 0.0)))


def energy_history(field: SpaceTimeField):
    """L2 norm of the field at every time node; non-increasing for a
    forward field (parabolic energy decay).  A coefficient field gives
    sqrt(c(t)' G c(t)) with the mode Gram G = Phi' M Phi of its spectrum."""
    if field._mode_data is not None:
        spectrum, coeffs = field._mode_data
        per_time = np.einsum("tk,tk->t", coeffs, coeffs @ spectrum.mass_gram)
    else:
        per_time = tensor_form(field.values, field.ops.x1[1], field.ops.xn[1])
    return np.sqrt(np.maximum(per_time, 0.0))


def flux_history(field: SpaceTimeField):
    """Normal derivative on the observed edge at every time node, plus the
    space-time integral of its square over the edge x (0, T).

    Forward fields of the spectral solver combine the per-mode fluxes of
    their spectrum; other fields fall back to variational recovery with
    -y_t, by the second-order stencils of ``np.gradient`` in time (those
    ``Mesh.grad_n`` takes in space), as the load proxy.
    """
    ops, grid = field.ops, field.grid
    # backward coefficient fields stay on the recovery below: the pinned Carleman
    # budgets come from it until the backward-flux fix (ROADMAP item 1)
    if field._mode_data is not None and field.direction == "forward":
        spectrum, coeffs = field._mode_data
        flux = coeffs @ spectrum.mode_flux.T
    else:
        values = field.columns(ops.flux_rows[0])
        proxy = -np.gradient(values, grid.dt, axis=0, edge_order=2)
        flux = boundary_flux(ops, values.T, f_proxy=proxy.T).T
    per_time = tensor_form(flux, ops.x1[1])
    integral = float(np.trapezoid(per_time, grid.nodes))
    return flux, integral


def time_reverse(field: SpaceTimeField) -> SpaceTimeField:
    """Backward-convention view: t -> T - t.

    If y solves the forward equation, the reversed field solves the
    backward equation (d_t + div(A grad)) y = 0, and its L2 energy is
    non-decreasing.  A coefficient field stays one, with its coefficient
    rows reversed.
    """
    if field._mode_data is not None:
        spectrum, coeffs = field._mode_data
        return SpaceTimeField(field.ops, field.grid, None, direction="backward",
                              mode_data=(spectrum, coeffs[::-1]))
    return SpaceTimeField(field.ops, field.grid, field.values[::-1].copy(),
                          direction="backward")
