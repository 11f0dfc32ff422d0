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

The family is the field's own: alpha is the exponent of its domain and T
the horizon of its time grid (``CarlemanWeights.of``), so s is the only
Carleman parameter of every entry point.

The weights depend on (t, x_N) only, so each field is reduced over x_1
once, to the moments sum w y**2, sum w y d_N y and sum w (d_N y)**2 (and
sum w f**2, and the squared flux on the observed edge) at every (t, x_N)
row; a budget at one s is then a log-sum-exp over (t, x_N).  Each moment
is taken of the field divided by a scale, with the log of that scale
squared kept beside it, so fields near 1e-200 do not underflow when
squared.  A nodal field is scaled by its largest |entry| in the row.  A
coefficient field y = Phi c of K modes is scaled per time row by its
largest |c_k| and never builds its nodal values: on each x_N layer n the
triangular QR factor R_n of sqrt(w_n) [Phi_n, D_N Phi_n] (built once per
spectrum) gives the three moments as dot products of R_n[:, :K] c and
R_n[:, K:] c, which is one matrix product over all layers.  R_n has
min(n_x1, 2K) rows, so on the interval (one x_1 node) it is a single row
and the work matches the nodal sums.  The eq410 bracket norm is the quadratic
A + 2 g B + g**2 C in its s-dependent coefficient g; where that sum has
cancelled below 1e-8 of A + g**2 C, the bracket is summed directly over
x_1 for those rows instead, from the nodal values of those time rows only.

The budgets of one field are evaluated as one sweep over the s grid.
Every integrand is base(t, x_N) - 2 s xi(t, x_N) with an s-free base
(for I1 plus log b2, the bracket at that s), so xi and the bases are
formed once per sweep.  Each log-sum-exp skips the entries more than 708
below its largest one: exp(-708) is about 3e-308, so together they add
less than (count) * 3e-308 to a sum of at least 1, below one ulp of it,
and exp is several times slower on arguments that underflow.  Whole time
rows are skipped the same way.  Since xi = Theta(t) (gamma - eta) and
gamma - eta >= min(gamma - eta) > 0, every entry of row t is at most
max_x base(t) - 2 s Theta(t) min(gamma - eta) (with log max_x b2 added
for I1).  The actual maximum of the row with the largest such bound is a
lower bound on the top, and a row whose bound lies 708 below it holds no
entry the sum keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .discretize import _tensor_stiffness
from .errors import ContractError, ParameterError
from .evolution import SpaceTimeField, flux_history
from .geometry import TruncatedDomain


@dataclass(frozen=True)
class CarlemanWeights:
    """Weight family of a fixed exponent alpha and horizon T: its formulas
    as functions of t and of x_N.

    gamma = sup_Omega x_N**(2-alpha) + 1 = 2 on the unit geometries, so
    gamma - eta >= 1 and xi > 0 on (0, T) x Omega.
    """

    alpha: float
    T: float
    gamma: ClassVar[float] = 2.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.T <= 0.0:
            raise ParameterError(f"horizon must be positive, got {self.T}")

    @classmethod
    def of(cls, field: SpaceTimeField):
        """The family of the field's exponent and time horizon."""
        return cls(field.mesh.domain.alpha, field.grid.T)

    def log_theta(self, t):
        """log Theta(t) = -4 (log t + log(T - t)); +inf at t in {0, T}."""
        with np.errstate(divide="ignore"):
            return -4.0 * (np.log(t) + np.log(self.T - t))

    def theta(self, t):
        """Theta(t) = 1 / [t (T - t)]**4, with the limit +inf at t in {0, T}."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_theta(t))

    def theta_dt(self, t):
        u = t * (self.T - t)
        return -4.0 * (self.T - 2.0 * t) / u**5

    def theta_dtt(self, t):
        u = t * (self.T - t)
        return 8.0 / u**5 + 20.0 * (self.T - 2.0 * t) ** 2 / u**6

    def gamma_minus_eta(self, xn):
        """gamma - eta(x_N), so that xi = Theta(t) (gamma - eta)."""
        return self.gamma - xn ** (2.0 - self.alpha)

    def eta_slope(self, xn, factor=1.0):
        """d eta / d x_N = (2 - alpha) x_N**(1 - alpha), times ``factor``
        (multiplied in that order): -d_N xi is the slope times Theta."""
        return (2.0 - self.alpha) * factor * xn ** (1.0 - self.alpha)


def _check_s(s):
    if not s > 0.0:
        raise ParameterError(f"s must be positive, got {s}")


def eval_weights(w: CarlemanWeights, t, points):
    """Pointwise weight values at one time; at t in {0, T} the limit
    convention Theta = +inf (so exp(-s xi) = 0) is returned."""
    t = float(t)
    if not (0.0 <= t <= w.T):
        raise ParameterError(f"t={t} outside [0, {w.T}]")
    xn = np.atleast_2d(points)[:, -1]
    theta = float(w.theta(t))
    if not math.isfinite(theta):
        inf = np.full(xn.size, np.inf)
        grad = np.where(xn > 0.0, -np.inf, 0.0)
        return {"theta": np.inf, "xi": inf, "grad_xi": grad, "xi_t": inf}
    gme = w.gamma_minus_eta(xn)
    return {
        "theta": theta,
        "xi": theta * gme,
        "grad_xi": -w.eta_slope(xn, theta),
        "xi_t": float(w.theta_dt(t)) * gme,
    }


def _require_truncated(field: SpaceTimeField):
    if not isinstance(field.mesh.domain, TruncatedDomain):
        raise ContractError("Carleman budgets require a truncated (uniformly "
                            "parabolic) domain")


def transform(field: SpaceTimeField, s: float) -> SpaceTimeField:
    """z = exp(-s xi) y with the field's own weight, and z = 0 at t = 0 and
    t = T by the limit convention.  For large s the interior factor
    underflows to zero in linear arithmetic; budget computations therefore
    work in log space and never materialize z."""
    _require_truncated(field)
    _check_s(s)
    w = CarlemanWeights.of(field)
    xi = w.theta(field.grid.nodes[1:-1])[:, None] * w.gamma_minus_eta(field.mesh.xn)[None, :]
    z = np.zeros_like(field.values)
    z[1:-1] = np.exp(-s * xi) * field.values[1:-1]
    return SpaceTimeField(field.ops, field.grid, z, direction=field.direction)


@dataclass
class CarlemanBudget:
    """One evaluation of an inequality budget at a fixed parameter s, as the
    logs of its integrals: the integrals themselves underflow for moderate s."""

    s: float
    which: str
    log_lhs: float
    log_rhs_source: float
    log_rhs_boundary: float
    log_needed_c: float
    c_boundary: float
    holds: bool


# exp(-708) is about 3e-308, just above the smallest normal double; a
# shifted exponent below this adds nothing a double sum of >= 1 can hold
_FLOOR = -708.0


def _lse(a):
    """log(sum(exp(a))) over every entry, shifted by the largest one.

    Shifted entries below _FLOOR are skipped: together they add less than
    a.size * exp(-708) to a sum of at least 1, far below one ulp of it,
    and exp is several times slower on arguments that underflow.
    """
    top = np.max(a)
    if not np.isfinite(top):  # all -inf gives -inf; +inf and nan pass through
        return float(top)
    kept = a[a >= top + _FLOOR]
    return float(top + np.log(np.sum(np.exp(kept - top))))


def _lse_rows(bound, rows):
    """_lse over a (t, x_N) array formed a band of time rows at a time.

    rows(sl) gives the array on the rows sl and bound[t] is at least
    every entry of row t.  One actual row maximum is a lower bound on
    the top, so a row whose bound lies below it plus _FLOOR holds only
    entries _lse skips; only the band from the first to the last other
    row is formed.  A nan bound keeps its row.
    """
    k = int(np.argmax(bound))
    top = np.max(rows(slice(k, k + 1)))
    live = np.flatnonzero(~(bound < top + _FLOOR))
    return _lse(rows(slice(live[0], live[-1] + 1)))


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


def _nodal_moments(values, mesh, w):
    """Scale m per (t, x_N) row (the largest |y| or |d_N y| over x_1) and
    the moments C, 2 B, A of nodal values y, a (t, node) array."""
    rows = (values.shape[0], -1, mesh.shape[-1])  # (t, x_1, x_N)
    y = values.reshape(rows)
    dy = mesh.grad_n(values).reshape(rows)
    scale, _ = _row_scale(y, dy)
    ys = y / scale[:, None, :]
    dy /= scale[:, None, :]
    # 2 B: doubling is exact
    return scale, _sum_x1(ys, w, ys), 2.0 * _sum_x1(ys, w, dy), _sum_x1(dy, w, dy)


def _mode_moments(spectrum, coeffs):
    """Scale m per time row (the largest |c_k|) and the moments C, 2 B, A
    of coefficient rows c, from the spectrum's per-layer factors (see
    FieldData); each of u and v is one matrix product over all layers."""
    scale = np.abs(coeffs).max(axis=1)
    scale[scale == 0.0] = 1.0
    unit = coeffs / scale[:, None]
    u, v = (unit @ part for part in spectrum.moment_factor)
    shape = (coeffs.shape[0], spectrum.ops.mesh.shape[-1], -1)  # (t, x_N, r)
    u, v = u.reshape(shape), v.reshape(shape)
    c = np.einsum("tnr,tnr->tn", u, u)
    return (scale[:, None], c,
            2.0 * np.einsum("tnr,tnr->tn", u, v), np.einsum("tnr,tnr->tn", v, v))


class FieldData:
    """Per-field moments over x_1, reused across parameter values s.

    Every weight depends on (t, x_N) only, so each budget integrand is
    summed over x_1 once here.  With the lumped spatial weight w and a
    scale m of the field:

        C = sum w (y/m)**2,  B = sum w (y/m)(d_N y/m),  A = sum w (d_N y/m)**2,

    F likewise for the source and, per t, the observed-edge flux moment;
    log(m**2) is kept beside each, so squares of fields near 1e-200 never
    underflow.

    A coefficient field y = Phi c never builds its nodal values.  Its
    scale is one m per time row, the largest |c_k|, and its moments come
    from the triangular factor R_n of sqrt(w_n) [Phi_n, D_N Phi_n] on each
    x_N layer n (``Spectrum.moment_factor``): R_n' R_n is the layer's
    weighted Gram of the modes and their x_N derivatives, so with
    u = R_n[:, :K] c/m and v = R_n[:, K:] c/m, C = u.u, B = u.v, A = v.v.
    R_n has min(n_x1, 2K) rows: on the interval the x_1 axis has one node,
    R_n is the 1 x 2K row sqrt(w_n) [Phi_n, D_N Phi_n] itself and u, v are
    the scaled nodal values and derivatives, so the interval costs what
    the nodal path does.  A nodal field keeps one scale per (t, x_N) row,
    the largest |y| or |d_N y| over x_1, and sums over x_1 directly.
    """

    def __init__(self, field: SpaceTimeField):
        _require_truncated(field)
        ops, mesh, grid = field.ops, field.mesh, field.grid
        t = grid.nodes[1:-1]
        self.weights = CarlemanWeights.of(field)
        self.log_theta = self.weights.log_theta(t)
        self.log_dt = np.log(grid.dt)
        self.xn = mesh.axes[-1]
        self.log_xn = np.log(self.xn)
        self.field = field  # read again only by the cancellation fallback
        rows = (t.size, -1, self.xn.size)  # (t, x_1, x_N)
        self.w = ops.lumped_full.reshape(rows[1:])

        if field._mode_data is not None:
            spectrum, coeffs = field._mode_data
            moments = _mode_moments(spectrum, coeffs[1:-1])
        else:
            moments = _nodal_moments(field.values[1:-1], mesh, self.w)
        self.scale, self.c, self.two_b, self.a = moments
        self.log_scale2 = 2.0 * np.log(self.scale)
        with np.errstate(divide="ignore"):
            self.log_y2 = self.log_scale2 + np.log(self.c)

        flux, _ = flux_history(field)
        w_edge = np.asarray(ops.x1[1].sum(axis=1))
        self.log_flux2 = _log_moment(flux[1:-1, :, None], w_edge)[:, 0]
        # no source, no moment: the source budget is exp(-inf) = 0
        self.log_f2 = (None if field.source is None
                       else _log_moment(field.source_values()[1:-1].reshape(rows), self.w))

    def _bracket_direct(self, ti, ni, g):
        """sum over x_1 of w ((d_N y + g y)/m)**2 at the (ti, ni) rows."""
        times, at = np.unique(ti, return_inverse=True)
        vals = self.field.rows(1 + times)
        shape = (times.size, -1, self.xn.size)
        y = vals.reshape(shape)[at, :, ni]
        dy = self.field.mesh.grad_n(vals).reshape(shape)[at, :, ni]
        scale = np.broadcast_to(self.scale, self.c.shape)[ti, ni]  # (t, 1) for mode fields
        bracket = (dy + g[:, None] * y) / scale[:, None]
        return np.sum(self.w[:, ni].T * bracket**2, axis=1)

    def _bracket(self, g, work):
        """The eq410 bracket norm sum w ((d_N y + g y)/m)**2 = A + 2 g B + g**2 C
        at every (t, x_N) row, in work[0]; where it has cancelled, the
        direct sum over x_1 replaces it.  work is three (t, x_N) arrays."""
        b2, ggc, limit = work
        np.multiply(g, g, out=ggc)
        ggc *= self.c
        np.multiply(g, self.two_b, out=b2)
        b2 += self.a
        b2 += ggc
        np.add(self.a, ggc, out=limit)
        limit *= _CANCELLATION
        cancelled = np.abs(b2, out=ggc) < limit
        if cancelled.any():
            ti, ni = np.nonzero(cancelled)
            b2[ti, ni] = self._bracket_direct(ti, ni, g[ti, ni])
        return b2

    def sweep(self, s_values, which: str, c_boundary: float = 1.0):
        """Budgets at every parameter of ``s_values``, with the field's own
        weight family, for a backward-convention solution.  which = "eq410"
        puts the weighted gradient and zero-order terms of the transformed
        variable on the left; "eq51" the single zero-order term
        s II Theta y**2 exp(-2 s xi).  ``holds`` compares against
        rhs_source + c_boundary * rhs_boundary.

        Theta, xi = Theta (gamma - eta), the bracket coefficient g / s and
        the base log terms of every integral do not depend on s and are
        formed once; at each s only the bracket b2 (on every row) and the
        live time rows of each log-sum-exp are.  A budget integrand is
        base - 2 s xi, so row t is bounded by its base maximum less
        2 s Theta(t) min(gamma - eta), with log(max b2) added for I1.
        """
        if which not in ("eq410", "eq51"):
            raise ParameterError(f"unknown inequality selector {which!r}")
        w = self.weights
        alpha = w.alpha
        theta = np.exp(self.log_theta)
        gme = w.gamma_minus_eta(self.xn)
        xi = theta[:, None] * gme[None, :]
        xi_min = theta * gme.min()
        # boundary term: the observed edge is the last x_N row, xi is
        # constant along it
        xi_edge = theta * gme[-1]
        base_b = self.log_theta + self.log_flux2 + self.log_dt
        lt = self.log_theta[:, None]
        bases = {}  # the s-free log terms of the integrals over (t, x_N)
        if self.log_f2 is not None:
            bases["f"] = self.log_f2 + self.log_dt
        if which == "eq410":
            g_per_s = w.eta_slope(self.xn, theta[:, None])  # -d_N xi
            # g and the bracket's three work arrays, reused at every s
            work = np.empty((4,) + g_per_s.shape)
            bases["i1"] = lt + alpha * self.log_xn[None, :] + self.log_scale2 + self.log_dt
            bases["i2"] = (3.0 * lt + (2.0 - alpha) * self.log_xn[None, :]
                           + self.log_y2 + self.log_dt)
        else:
            bases["eq51"] = lt + self.log_y2 + self.log_dt
        rowmax = {name: base.max(axis=1) for name, base in bases.items()}

        budgets = []
        for s in s_values:
            _check_s(s)
            two_s = 2.0 * s

            def decayed(name, b2=None):
                """log of the integral with the s-free terms bases[name] (and b2)"""
                base = bases[name]
                bound = rowmax[name] - two_s * xi_min
                if b2 is None:
                    return _lse_rows(bound, lambda sl: base[sl] - two_s * xi[sl])
                with np.errstate(divide="ignore"):
                    return _lse_rows(bound + np.log(b2.max(axis=1)),
                                     lambda sl: base[sl] + np.log(b2[sl]) - two_s * xi[sl])

            log_rhs_b = np.log(s) + _lse(base_b - two_s * xi_edge)
            log_rhs_f = decayed("f") if "f" in bases else -np.inf
            if which == "eq410":
                b2 = self._bracket(np.multiply(s, g_per_s, out=work[0]), work[1:])
                log_lhs = np.logaddexp(np.log(s) + decayed("i1", b2),
                                       3.0 * np.log(s) + decayed("i2"))
            else:
                log_lhs = np.log(s) + decayed("eq51")
            budgets.append(_budget(s, which, log_lhs, log_rhs_f, log_rhs_b, c_boundary))
        return budgets

    def budget(self, s: float, which: str, c_boundary: float = 1.0):
        """The budget at one parameter s: a sweep of length one."""
        return self.sweep([s], which, c_boundary)[0]


def _budget(s, which, log_lhs, log_rhs_f, log_rhs_b, c_boundary):
    """The budget record from the logs of its three integrals."""
    # constant needed on the boundary term: (lhs - rhs_f)+ / rhs_b
    if log_lhs <= log_rhs_f:
        log_needed = -np.inf
    elif log_rhs_f == -np.inf:
        log_needed = log_lhs - log_rhs_b
    else:
        log_excess = log_lhs + np.log1p(-np.exp(log_rhs_f - log_lhs))
        log_needed = log_excess - log_rhs_b
    log_rhs = np.logaddexp(log_rhs_f, np.log(c_boundary) + log_rhs_b)
    return CarlemanBudget(
        s=s,
        which=which,
        log_lhs=float(log_lhs),
        log_rhs_source=float(log_rhs_f),
        log_rhs_boundary=float(log_rhs_b),
        log_needed_c=float(log_needed),
        c_boundary=c_boundary,
        holds=bool(log_lhs <= log_rhs + np.log1p(1e-9)),
    )


@dataclass(frozen=True)
class S0Fit:
    """Outcome of the empirical search for the parameter threshold."""

    found: bool
    s0: float | None
    c_boundary: float | None
    s_grid: tuple
    log_needed_c: tuple  # per field, per s


def find_s0(fields, s_grid, which: str = "eq410") -> S0Fit:
    """Smallest grid parameter from which the inequality stabilizes.

    ``fields`` is any iterable of FieldData; a generator streams them, since
    only one field's data is held at a time.  For every field the needed
    boundary constant (lhs - rhs_source)+ / rhs_boundary is evaluated on the
    whole grid; s0 is the first grid point from which these are finite and
    non-increasing for every field (so the inequality with the fitted C =
    max needed constant over the region holds at every larger grid value).
    A failure marker is returned when no grid point qualifies.
    """
    s_grid = [float(s) for s in s_grid]
    if not s_grid or any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise ParameterError("s grid must be non-empty and ascending")
    if s_grid[0] < 1.0:
        raise ParameterError("s grid must start at or above 1")
    rows = []
    for data in fields:
        rows.append([b.log_needed_c for b in data.sweep(s_grid, which)])
        del data  # freed before a generator builds the next one
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


def p_residual(z_field: SpaceTimeField, f, s: float) -> float:
    """L2(Q) norm of  exp(-s xi) f - P1 z - P2 z  on interior nodes, with
    the field's own weight family.

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
    _check_s(s)
    ops, mesh, grid = z_field.ops, z_field.mesh, z_field.grid
    w = CarlemanWeights.of(z_field)
    alpha = w.alpha
    t = grid.nodes[1:-1]
    z = z_field.values
    zt = (z[2:] - z[:-2]) / (2.0 * grid.dt)
    zmid = z[1:-1]
    dz_dn = mesh.grad_n(zmid)
    div_adz = -(_tensor_stiffness(ops.x1, ops.xn) @ zmid.T).T / ops.lumped_full[None, :]
    xn = mesh.xn
    theta = w.theta(t)[:, None]
    theta_dt = w.theta_dt(t)[:, None]
    gme = w.gamma_minus_eta(xn)[None, :]

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
