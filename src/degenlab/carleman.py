"""Carleman weight system and empirical inequality budgets.

The weight family is

    eta(x)   = x_N**(2 - alpha),
    Theta(t) = 1 / [t (T - t)]**4,
    xi(t, x) = Theta(t) (gamma - eta(x)),   gamma = sup eta + 1,

and the transformed variable z = exp(-s xi) y vanishes (with its
gradient) at t = 0 and t = T.  The inequality budgets compare

    s  II Theta x_N**alpha (d_N z)**2  +  s**3 II Theta**3 z**2 x_N**(2-alpha)

against the weighted source norm plus a constant times the observed
boundary term.  Every budget integral is accumulated in log space
(log-sum-exp over quadrature samples): for moderate s the factor
exp(-2 s xi) already underflows double precision, while ratios of the
integrals stay perfectly representable.

The weights depend on (t, x_N) only, so each field is reduced over x_1
once, to the moments sum w y**2, sum w y d_N y and sum w (d_N y)**2 (and
sum w f**2, and the squared flux on the observed edge) at every (t, x_N)
row; a budget at one s is then a log-sum-exp over (t, x_N).  Each moment
is taken of the field divided by its largest |entry| in the row, with
the log of that scale squared kept beside it, so fields near 1e-200 do
not underflow when squared.  The eq410 bracket norm is the quadratic
A + 2 g B + g**2 C in its s-dependent coefficient g; where that sum has
cancelled below 1e-8 of A + g**2 C, the bracket is summed directly over
x_1 for those rows instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .discretize import OperatorPair, edge_mass
from .errors import ContractError, ParameterError
from .evolution import SpaceTimeField, flux_history
from .geometry import BoundaryPart, TruncatedDomain


@dataclass(frozen=True)
class CarlemanWeights:
    """Weight family for a fixed exponent, horizon and parameter s.

    gamma = sup_Omega x_N**(2-alpha) + 1 = 2 on the unit geometries, so
    gamma - eta >= 1 and xi > 0 on (0, T) x Omega.
    """

    alpha: float
    T: float
    s: float
    gamma: ClassVar[float] = 2.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.T <= 0.0:
            raise ParameterError(f"horizon must be positive, got {self.T}")
        if self.s <= 0.0:
            raise ParameterError(f"s must be positive, got {self.s}")

    def theta(self, t):
        t = np.asarray(t, dtype=float)
        u = t * (self.T - t)
        with np.errstate(divide="ignore"):
            return np.where(u > 0.0, 1.0 / u**4, np.inf)

    def theta_dt(self, t):
        t = np.asarray(t, dtype=float)
        u = t * (self.T - t)
        return -4.0 * (self.T - 2.0 * t) / u**5

    def theta_dtt(self, t):
        t = np.asarray(t, dtype=float)
        u = t * (self.T - t)
        return 8.0 / u**5 + 20.0 * (self.T - 2.0 * t) ** 2 / u**6

    def eta(self, points):
        pts = np.atleast_2d(points)
        return pts[:, -1] ** (2.0 - self.alpha)

    def xi(self, t, points):
        return np.multiply.outer(self.theta(t), self.gamma - self.eta(points))

    def xi_dt(self, t, points):
        return np.multiply.outer(self.theta_dt(t), self.gamma - self.eta(points))

    def grad_xi_n(self, t, points):
        """e_N component of grad xi (the other components vanish)."""
        pts = np.atleast_2d(points)
        return np.multiply.outer(self.theta(t),
                                 -(2.0 - self.alpha) * pts[:, -1] ** (1.0 - self.alpha))


def eval_weights(w: CarlemanWeights, t, points):
    """Pointwise weight values at one time; at t in {0, T} the limit
    convention Theta = +inf (so exp(-s xi) = 0) is returned."""
    t = float(t)
    if not (0.0 <= t <= w.T):
        raise ParameterError(f"t={t} outside [0, {w.T}]")
    theta = float(w.theta(t))
    if not math.isfinite(theta):
        pts = np.atleast_2d(points)
        inf = np.full(pts.shape[0], np.inf)
        grad = np.where(pts[:, -1] > 0.0, -np.inf, 0.0)
        return {"theta": np.inf, "xi": inf, "grad_xi": grad, "xi_t": inf}
    tarr = np.array([t])
    return {
        "theta": theta,
        "xi": w.xi(tarr, points)[0],
        "grad_xi": w.grad_xi_n(tarr, points)[0],
        "xi_t": w.xi_dt(tarr, points)[0],
    }


def _require_truncated(field: SpaceTimeField):
    if not isinstance(field.mesh.domain, TruncatedDomain):
        raise ContractError("Carleman budgets require a truncated (uniformly "
                            "parabolic) domain")


def transform(field: SpaceTimeField, w: CarlemanWeights) -> SpaceTimeField:
    """z = exp(-s xi) y, with z = 0 at t = 0 and t = T by the limit
    convention.  For large s the interior factor underflows to zero in
    linear arithmetic; budget computations therefore work in log space
    and never materialize z."""
    _require_truncated(field)
    if abs(field.grid.T - w.T) > 1e-12:
        raise ContractError("weight horizon does not match the field grid")
    t = field.grid.nodes
    z = np.zeros_like(field.values)
    xi = w.xi(t[1:-1], field.mesh.points)
    z[1:-1] = np.exp(-w.s * xi) * field.values[1:-1]
    return SpaceTimeField(field.mesh, field.grid, z, direction=field.direction)


def _grad_n(values, mesh):
    """Nodal derivative along the degenerate axis (3-point stencils)."""
    ax = mesh.axes[-1]
    v = values.reshape(values.shape[:-1] + mesh.shape)
    g = np.gradient(v, ax, axis=-1, edge_order=2)
    return g.reshape(values.shape)


@dataclass
class CarlemanBudget:
    """One evaluation of an inequality budget at a fixed parameter s.

    Linear-scale values may underflow to zero for large s; the log
    fields are always meaningful and all comparisons use them.
    """

    s: float
    which: str
    rhs_source: float
    rhs_boundary: float
    log_lhs: float
    log_rhs_source: float
    log_rhs_boundary: float
    needed_c: float
    log_needed_c: float
    c_boundary: float
    holds: bool


def _lse(a):
    """log(sum(exp(a))) over every entry, shifted by the largest one."""
    top = np.max(a)
    if not np.isfinite(top):  # all -inf gives -inf; +inf and nan pass through
        return float(top)
    return float(top + np.log(np.sum(np.exp(a - top))))


def _row_scale(*arrays):
    """Largest |entry| along axis 1 of the arrays together (1 where every
    entry is zero), with the log of its square."""
    scale = np.zeros(arrays[0].shape[:1] + arrays[0].shape[2:])
    for a in arrays:
        np.maximum(scale, a.max(axis=1), out=scale)
        np.maximum(scale, -a.min(axis=1), out=scale)
    scale[scale == 0.0] = 1.0
    return scale, 2.0 * np.log(scale)


def _sum_x1(u, w, v):
    """sum over x_1 of u w v at every (t, x_N) for (t, x_1, x_N) arrays."""
    return np.einsum("tin,in,tin->tn", u, w, v)


def _log_moment(u, w):
    """log of the sum over x_1 of w u**2 at every (t, x_N), u scaled per row."""
    scale, log_scale2 = _row_scale(u)
    u = u / scale[:, None, :]
    with np.errstate(divide="ignore"):
        return log_scale2 + np.log(_sum_x1(u, w, u))


# Rounding in the moments is about eps (A + g**2 C); where the bracket
# norm A + 2 g B + g**2 C falls below this fraction of A + g**2 C, that
# is more than about 1e-8 of the result, so the bracket is summed directly.
_CANCELLATION = 1e-8


class _FieldData:
    """Per-field moments over x_1, reused across parameter values s.

    Every weight depends on (t, x_N) only, so each budget integrand is
    summed over x_1 once here.  With the lumped spatial weight w and one
    scale m per (t, x_N) row (the largest |y| or |d_N y| over x_1):

        C = sum w (y/m)**2,  B = sum w (y/m)(d_N y/m),  A = sum w (d_N y/m)**2,

    F likewise for the source and, per t, the observed-edge flux moment;
    log(m**2) is kept beside each, so squares of fields near 1e-200 never
    underflow.  On the interval the x_1 axis has length 1.
    """

    def __init__(self, field: SpaceTimeField, ops: OperatorPair):
        _require_truncated(field)
        mesh = field.mesh
        grid = field.grid
        t = grid.nodes[1:-1]
        self.log_theta = -4.0 * (np.log(t) + np.log(grid.T - t))
        self.log_dt = np.log(grid.dt)
        self.xn = mesh.axes[-1]
        self.log_xn = np.log(self.xn)
        self.mesh = mesh
        self.values = field.values  # read again only by the cancellation fallback
        rows = (t.size, -1, self.xn.size)  # (t, x_1, x_N)
        self.w = ops.lumped_full.reshape(rows[1:])

        y = field.values[1:-1].reshape(rows)
        dy = _grad_n(field.values[1:-1], mesh).reshape(rows)
        self.scale, self.log_scale2 = _row_scale(y, dy)
        ys = y / self.scale[:, None, :]
        dy /= self.scale[:, None, :]
        self.c = _sum_x1(ys, self.w, ys)
        self.b = _sum_x1(ys, self.w, dy)
        self.a = _sum_x1(dy, self.w, dy)
        with np.errstate(divide="ignore"):
            self.log_y2 = self.log_scale2 + np.log(self.c)

        flux, _ = flux_history(field, ops, BoundaryPart.OBSERVED)
        w_edge = np.asarray(edge_mass(ops, BoundaryPart.OBSERVED).sum(axis=1))
        self.log_flux2 = _log_moment(flux[1:-1, :, None], w_edge)[:, 0]
        # no source, no moment: the source budget is exp(-inf) = 0
        self.log_f2 = (None if field.source is None
                       else _log_moment(field.source_values()[1:-1].reshape(rows), self.w))

    def _bracket_direct(self, ti, ni, g):
        """sum over x_1 of w ((d_N y + g y)/m)**2 at the (ti, ni) rows."""
        times, at = np.unique(ti, return_inverse=True)
        vals = self.values[1 + times]
        shape = (times.size, -1, self.xn.size)
        y = vals.reshape(shape)[at, :, ni]
        dy = _grad_n(vals, self.mesh).reshape(shape)[at, :, ni]
        bracket = (dy + g[:, None] * y) / self.scale[ti, ni][:, None]
        return np.sum(self.w[:, ni].T * bracket**2, axis=1)

    def budget(self, w: CarlemanWeights, which: str, c_boundary: float = 1.0):
        alpha = w.alpha
        s = w.s
        theta = np.exp(self.log_theta)
        gme = w.gamma - self.xn ** (2.0 - alpha)       # gamma - eta, per x_N
        two_s_xi = 2.0 * s * (theta[:, None] * gme[None, :])
        lt = self.log_theta[:, None]

        # boundary term: the observed edge is the last x_N row, xi is
        # constant along it
        xi_edge = theta * (w.gamma - self.xn[-1] ** (2.0 - alpha))
        log_ib = _lse(self.log_theta + self.log_flux2 - 2.0 * s * xi_edge + self.log_dt)
        log_rhs_b = np.log(s) + log_ib

        log_rhs_f = (-np.inf if self.log_f2 is None
                     else _lse(self.log_f2 - two_s_xi + self.log_dt))

        if which == "eq410":
            # sum w (d_N y + g y)**2 = m**2 (A + 2 g B + g**2 C)
            g = s * (2.0 - alpha) * theta[:, None] * (self.xn ** (1.0 - alpha))[None, :]
            b2 = self.a + 2.0 * g * self.b + g * g * self.c
            ti, ni = np.nonzero(np.abs(b2) < _CANCELLATION * (self.a + g * g * self.c))
            if ti.size:
                b2[ti, ni] = self._bracket_direct(ti, ni, g[ti, ni])
            with np.errstate(divide="ignore"):
                log_b2 = self.log_scale2 + np.log(b2)
            log_i1 = _lse(lt + alpha * self.log_xn[None, :]
                          + log_b2 - two_s_xi + self.log_dt)
            log_i2 = _lse(3.0 * lt + (2.0 - alpha) * self.log_xn[None, :]
                          + self.log_y2 - two_s_xi + self.log_dt)
            log_lhs = np.logaddexp(np.log(s) + log_i1, 3.0 * np.log(s) + log_i2)
        elif which == "eq51":
            log_lhs = np.log(s) + _lse(lt + self.log_y2 - two_s_xi + self.log_dt)
        else:
            raise ParameterError(f"unknown inequality selector {which!r}")

        # constant needed on the boundary term: (lhs - rhs_f)+ / rhs_b
        if log_lhs <= log_rhs_f:
            log_needed = -np.inf
        elif log_rhs_f == -np.inf:
            log_needed = log_lhs - log_rhs_b
        else:
            log_excess = log_lhs + np.log1p(-np.exp(log_rhs_f - log_lhs))
            log_needed = log_excess - log_rhs_b
        log_rhs = np.logaddexp(log_rhs_f, np.log(c_boundary) + log_rhs_b)
        with np.errstate(over="ignore"):
            return CarlemanBudget(
                s=s,
                which=which,
                rhs_source=float(np.exp(log_rhs_f)),
                rhs_boundary=float(np.exp(log_rhs_b)),
                log_lhs=float(log_lhs),
                log_rhs_source=float(log_rhs_f),
                log_rhs_boundary=float(log_rhs_b),
                needed_c=float(np.exp(log_needed)),
                log_needed_c=float(log_needed),
                c_boundary=c_boundary,
                holds=bool(log_lhs <= log_rhs + np.log1p(1e-9)),
            )


def check_inequality(field: SpaceTimeField, w: CarlemanWeights,
                     ops: OperatorPair, which: str = "eq410",
                     c_boundary: float = 1.0) -> CarlemanBudget:
    """Evaluate one inequality budget for a backward-convention solution.

    which = "eq410" uses the weighted gradient and zero-order terms of
    the transformed variable on the left; "eq51" uses the single
    zero-order term s II Theta y**2 exp(-2 s xi).  ``holds`` compares
    against rhs_source + c_boundary * rhs_boundary.
    """
    return _FieldData(field, ops).budget(w, which, c_boundary)


@dataclass(frozen=True)
class S0Fit:
    """Outcome of the empirical search for the parameter threshold."""

    found: bool
    s0: float | None
    c_boundary: float | None
    s_grid: tuple
    log_needed_c: tuple  # per field, per s


def find_s0(fields, w_template: CarlemanWeights, ops: OperatorPair, s_grid,
            which: str = "eq410") -> S0Fit:
    """Smallest grid parameter from which the inequality stabilizes.

    ``fields`` may be any iterable; a generator streams them, since only
    one field's data is held at a time.  For every field the needed
    boundary constant (lhs - rhs_source)+ / rhs_boundary is evaluated on
    the whole grid; s0 is the first grid point from which these are
    finite and non-increasing for every field (so the inequality with the
    fitted C = max needed constant over the region holds at every larger
    grid value).  A failure marker is returned when no grid point
    qualifies.
    """
    s_grid = [float(s) for s in s_grid]
    if not s_grid or any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise ParameterError("s grid must be non-empty and ascending")
    if s_grid[0] < 1.0:
        raise ParameterError("s grid must start at or above 1")
    weights = [replace(w_template, s=s) for s in s_grid]
    rows = []
    for field in fields:
        data = _FieldData(field, ops)
        rows.append([data.budget(w, which).log_needed_c for w in weights])
    if not rows:
        raise ParameterError("need at least one field to calibrate")
    log_needed = np.array(rows)

    def tail_ok(j):
        tail = log_needed[:, j:]
        if not np.all(tail <= 700.0):  # exp(700) is the edge of double range
            return False
        # non-increasing up to 1e-6 relative: log-sum-exp accumulation
        # noise sits orders of magnitude below any meaningful C variation
        return bool(np.all(tail[:, 1:] <= tail[:, :-1] + 1e-6))

    for j in range(len(s_grid)):
        if tail_ok(j):
            c = float(np.exp(np.max(log_needed[:, j:])))
            return S0Fit(found=True, s0=s_grid[j], c_boundary=max(c, 1e-300),
                         s_grid=tuple(s_grid),
                         log_needed_c=tuple(map(tuple, log_needed)))
    return S0Fit(found=False, s0=None, c_boundary=None, s_grid=tuple(s_grid),
                 log_needed_c=tuple(map(tuple, log_needed)))


def p_residual(z_field: SpaceTimeField, f, w: CarlemanWeights,
               ops: OperatorPair) -> float:
    """L2(Q) norm of  exp(-s xi) f - P1 z - P2 z  on interior nodes.

    P1 z = z_t + 2 s (A grad z . grad xi) + s z div(A grad xi) and
    P2 z = div(A grad z) + s z xi_t + s**2 z (A grad xi . grad xi); the
    derivatives of z are discrete (central in time, 3-point in space,
    mass-lumped recovery for the divergence), the xi factors closed
    forms.  The identity holds for z transformed from a solution of the
    backward equation with source f, given per time node as a
    (steps+1, n_nodes) array (None for no source); the returned norm
    decays to zero under simultaneous space-time refinement at first
    order or better.
    """
    _require_truncated(z_field)
    mesh = z_field.mesh
    grid = z_field.grid
    if abs(grid.T - w.T) > 1e-12:
        raise ContractError("weight horizon does not match the field grid")
    alpha, s = w.alpha, w.s
    t = grid.nodes[1:-1]
    z = z_field.values
    zt = (z[2:] - z[:-2]) / (2.0 * grid.dt)
    zmid = z[1:-1]
    dz_dn = _grad_n(zmid, mesh)
    div_adz = -(ops.K_full @ zmid.T).T / ops.lumped_full[None, :]
    xn = mesh.xn
    theta = w.theta(t)[:, None]
    theta_dt = w.theta_dt(t)[:, None]
    gme = (w.gamma - xn ** (2.0 - alpha))[None, :]

    p1 = zt - 2.0 * s * (2.0 - alpha) * theta * xn[None, :] * dz_dn \
        - s * (2.0 - alpha) * theta * zmid
    p2 = div_adz + s * zmid * theta_dt * gme \
        + s**2 * (2.0 - alpha) ** 2 * theta**2 * (xn ** (2.0 - alpha))[None, :] * zmid

    if f is None:
        fvals = np.zeros_like(zmid)
    else:
        fvals = np.asarray(f, dtype=float)
        if fvals.shape != (grid.steps + 1, mesh.n_nodes):
            raise ContractError("source shape does not match the field")
        fvals = fvals[1:-1]
    xi = theta * gme
    resid = np.exp(-s * xi) * fvals - p1 - p2

    ii = mesh.interior
    w_space = ops.lumped_full[ii]
    sq = np.sum(resid[:, ii] ** 2 * w_space[None, :], axis=1)
    return float(np.sqrt(np.sum(sq) * grid.dt))
