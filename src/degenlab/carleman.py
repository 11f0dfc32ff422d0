"""Carleman weight system and the boundary constants its inequalities need.

The weight family is

    eta(x)   = x_N**(2 - alpha),
    Theta(t) = 1 / [t (T - t)]**4,
    xi(t, x) = Theta(t) (gamma - eta(x)),   gamma = sup eta + 1,

and the transformed variable z = exp(-s xi) y vanishes (with its
gradient) at t = 0 and t = T.  For a source-free backward solution the
inequality budgets compare

    s  II Theta x_N**alpha (d_N z)**2  +  s**3 II Theta**3 z**2 x_N**(2-alpha)

against a constant times the observed boundary term; the sweep returns
the log of the constant needed, lhs / rhs_boundary.  Every budget
integral is accumulated in log space (log-sum-exp over quadrature
samples): for moderate s the factor exp(-2 s xi) already underflows
double precision, while ratios of the integrals stay perfectly
representable.

The family is the field's own: alpha is the exponent of its domain and T
the horizon of its time grid (``CarlemanWeights.of``), so s is the only
Carleman parameter of every entry point.

The weights depend on (t, x_N) only, so each field is reduced over x_1
once, to s-free moments at every (t, x_N) row (FieldData); a budget at
one s is then a log-sum-exp over (t, x_N).  The eq410 bracket norm is
C (g + beta)**2 + D in its coefficient g, a sum of two non-negative
terms, so it cannot cancel at any s.  An s grid whose largest g would
pass 1e150 is refused (_check_range), so (g + beta)**2 stays finite.

The budgets of one field are one sweep over the s grid.  Every integrand
is base(t, x_N) - 2 s xi(t, x_N) with an s-free base (for I1 plus log b2,
the bracket at that s).  The factor exp(-2 s xi*), xi* = Theta(t*)
(gamma - 1) at the time node t* nearest T/2, is common to every integral
and cancels in the needed constant, but 2 s xi* reaches 2 s (T/2)**-8
(1.6e17 at s = 200, T = 0.03), where a double keeps no digit after the
point.  So the integrands take xi - xi*, formed without cancellation
(CarlemanWeights.xi_excess): each log is 2 s xi* above its integral's,
and only their difference is returned.  Each log-sum-exp skips the
entries, and the whole time rows, that lie more than 60 below its top
(_lse, _lse_rows): every entry of row t is at most max_x base(t) -
2 s min_x (xi - xi*)(t), plus for I1 the log of the bracket at the row's
largest C, g, |beta| and D (_row_peaks), so b2 is formed on the live
rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ContractError, ParameterError
from .evolution import SpaceTimeField, flux_history


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

    def gamma_minus_eta(self, xn):
        """gamma - eta(x_N), so that xi = Theta(t) (gamma - eta)."""
        return self.gamma - xn ** (2.0 - self.alpha)

    def eta_slope(self, xn, factor=1.0):
        """d eta / d x_N = (2 - alpha) x_N**(1 - alpha), times ``factor``
        (multiplied in that order): -d_N xi is the slope times Theta."""
        return (2.0 - self.alpha) * factor * xn ** (1.0 - self.alpha)

    def xi_excess(self, t, xn):
        """xi - xi* on the (t, x_N) grid, with xi* = Theta(t*) (gamma - 1)
        at the node t* of t nearest T/2.  The difference is
        (Theta(t) - Theta(t*)) (gamma - eta) + Theta(t*) (1 - eta), with no
        factor formed by cancellation: with u = t (T - t), Theta(t) - Theta(t*)
        = (t* - t)(T - t - t*)(u* + u)(u*^2 + u^2) / (u u*)^4, and
        1 - eta = -expm1((2 - alpha) log1p(x_N - 1)).
        """
        ts = t[np.argmin(np.abs(t - 0.5 * self.T))]
        u, us = t * (self.T - t), ts * (self.T - ts)
        theta_s = 1.0 / us**4
        d_theta = (ts - t) * (self.T - t - ts) * (us + u) * (us**2 + u**2) / (u * us) ** 4
        xi = d_theta[:, None] * self.gamma_minus_eta(xn)[None, :]
        xi += theta_s * -np.expm1((2.0 - self.alpha) * np.log1p(xn - 1.0))
        return xi


def _check_s(s):
    if not s > 0.0:
        raise ParameterError(f"s must be positive, got {s}")


# the largest bracket coefficient g admitted: 1e150**2 is 8 orders of
# magnitude inside the double range
_G_LIMIT = 1e150


def _check_range(w: CarlemanWeights, t, s_max: float):
    """Refuse s up to s_max on the interior time nodes t where the bracket
    coefficient g = s (2 - alpha) Theta(t) x_N**(1 - alpha) passes _G_LIMIT
    (at x_N = 1), which includes every grid on which Theta overflows."""
    log_g = math.log(s_max * (2.0 - w.alpha)) + float(np.max(w.log_theta(t)))
    if not log_g <= math.log(_G_LIMIT):
        raise ParameterError(
            f"s up to {s_max:g} on {t.size + 1} time steps of T={w.T:g} puts the Carleman "
            f"coefficient s (2 - alpha) Theta(t) at about 10**{log_g / math.log(10.0):.1f}, "
            f"beyond the limit {_G_LIMIT:g}")


def _require_truncated(field: SpaceTimeField):
    if not field.mesh.domain.delta > 0.0:
        raise ContractError("Carleman budgets require a truncated (uniformly "
                            "parabolic) domain")


# exp(-60) is about 8.8e-27: 1e10 entries below it, more than any array
# the lab can hold, add less than 8.8e-17 to a sum of at least 1, under
# half an ulp of it (1.1e-16)
_FLOOR = -60.0


def _lse(a):
    """log(sum(exp(a))) over every entry, shifted by the largest one.

    Shifted entries below _FLOOR are skipped: together they add less than
    a.size * exp(-60) to a sum of at least 1, under half an ulp of it, so
    the sum rounds as if they were kept, and exp on them is work for
    nothing.
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
    the top, so a row whose bound lies below it plus _FLOOR has only
    entries _lse skips; only the band from the first to the last other
    row is formed.  A nan bound keeps its row.
    """
    k = int(np.argmax(bound))
    top = np.max(rows(slice(k, k + 1)))
    live = np.flatnonzero(~(bound < top + _FLOOR))
    return _lse(rows(slice(live[0], live[-1] + 1)))


def _bracket(s, c, g, beta, d):
    """The eq410 bracket C (s g + beta)**2 + D, in one fresh array."""
    b2 = s * g
    b2 += beta
    np.square(b2, out=b2)
    b2 *= c
    b2 += d
    return b2


def _row_peaks(c, g, beta, d):
    """Per time row, the largest C, g, |beta| and D: with C, g, D >= 0 and
    s > 0, _bracket of these is at least every entry of the row's bracket."""
    return c.max(axis=1), g.max(axis=1), np.abs(beta).max(axis=1), d.max(axis=1)


def _beta(b, c):
    """B / C, and 0 where C = 0 (y = 0 along the whole row, so B = 0)."""
    return np.divide(b, c, out=np.zeros_like(b), where=c != 0.0)


def _mode_moments(spectrum, coeffs):
    """Scale m per time row (the largest |c_k|) and the moments C, beta, D
    of coefficient rows c, from the spectrum's per-layer factors (see
    FieldData); each of u and v is one matrix product over all layers."""
    scale = np.abs(coeffs).max(axis=1)
    scale[scale == 0.0] = 1.0
    unit = coeffs / scale[:, None]
    u, v = (unit @ part for part in spectrum.moment_factor)
    shape = (coeffs.shape[0], spectrum.ops.mesh.shape[-1], -1)  # (t, x_N, r)
    u, v = u.reshape(shape), v.reshape(shape)
    c = np.einsum("tnr,tnr->tn", u, u)
    beta = _beta(np.einsum("tnr,tnr->tn", u, v), c)
    u *= beta[:, :, None]
    v -= u  # the factor of d_N y - beta y
    return scale[:, None], c, beta, np.einsum("tnr,tnr->tn", v, v)


class FieldData:
    """Per-field moments over x_1, reused across parameter values s.

    Every weight depends on (t, x_N) only, so each budget integrand is
    summed over x_1 once here.  With the lumped spatial weight w and a
    scale m of the field, C = sum w (y/m)**2, beta = B/C (0 where C = 0)
    with B = sum w (y/m)(d_N y/m), and D = sum w ((d_N y - beta y)/m)**2, so
    the eq410 bracket norm at coefficient g is

        sum w ((d_N y + g y)/m)**2 = C (g + beta)**2 + D.

    The observed-edge flux moment is formed likewise per t; log(m**2) is
    kept beside each moment, so squares of fields near 1e-200 never
    underflow.

    The field is a coefficient field y = Phi c (``solve_spectral``,
    ``time_reverse``), and its nodal values are never built; a nodal field
    is refused.  Its scale is one m per time row, the largest |c_k|, and
    its moments come from the triangular factor R_n of
    sqrt(w_n) [Phi_n, D_N Phi_n] on each x_N layer n
    (``Spectrum.moment_factor``), the layer's weighted Gram factor: with
    u = R_n[:, :K] c/m and v = R_n[:, K:] c/m, C = u.u, B = u.v and
    D = |v - beta u|**2.  R_n has min(n_x1, 2K) rows; on the interval it
    is the single row sqrt(w_n) [Phi_n, D_N Phi_n].
    """

    def __init__(self, field: SpaceTimeField):
        _require_truncated(field)
        if field._mode_data is None:
            raise ContractError("Carleman budgets take a coefficient field "
                                "(solve_spectral, time_reverse), not nodal values")
        spectrum, coeffs = field._mode_data
        grid = field.grid
        self.t = t = grid.nodes[1:-1]
        self.weights = CarlemanWeights.of(field)
        self.log_theta = self.weights.log_theta(t)
        self.log_dt = np.log(grid.dt)
        self.xn = field.mesh.axes[-1]
        self.log_xn = np.log(self.xn)

        scale, self.c, self.beta, self.d = _mode_moments(spectrum, coeffs[1:-1])
        self.log_scale2 = 2.0 * np.log(scale)
        # the edge flux moment sum over x_1 of w_edge (f/m)**2, m the largest |f| of each row
        flux = flux_history(field)[0][1:-1, :, None]  # (t, x_1, 1)
        flux_scale = np.abs(flux).max(axis=1)
        flux_scale[flux_scale == 0.0] = 1.0
        flux /= flux_scale[:, None, :]
        w_edge = np.asarray(field.ops.x1[1].sum(axis=1))  # (x_1, 1)
        with np.errstate(divide="ignore"):
            self.log_y2 = self.log_scale2 + np.log(self.c)
            self.log_flux2 = (2.0 * np.log(flux_scale)
                              + np.log(np.einsum("tin,in,tin->tn", flux, w_edge, flux)))[:, 0]

    def sweep(self, s_values, which: str):
        """log(lhs / rhs_boundary), the log of the constant the boundary
        term needs, at every parameter of ``s_values`` (-inf for a zero
        lhs), with the field's own weight family, for a backward-convention
        solution.  which = "eq410" puts the weighted gradient and zero-order
        terms of the transformed variable on the left; "eq51" the single
        zero-order term s II Theta y**2 exp(-2 s xi).

        xi - xi*, g / s, the base log terms of every integral and the row
        peaks of the bracket's factors are s-free and formed once; at each
        s only the live time rows of each log-sum-exp are, the bracket b2
        on those rows alone (see the module notes).
        """
        if which not in ("eq410", "eq51"):
            raise ParameterError(f"unknown inequality selector {which!r}")
        s_values = list(s_values)
        for s in s_values:
            _check_s(s)
        w = self.weights
        if s_values:
            _check_range(w, self.t, max(s_values))
        alpha = w.alpha
        xi = w.xi_excess(self.t, self.xn)
        xi_min = xi.min(axis=1)
        xi_edge = xi[:, -1]  # the observed edge is the last x_N row
        base_b = self.log_theta + self.log_flux2 + self.log_dt
        lt = self.log_theta[:, None]
        bases = {}  # the s-free log terms of the integrals over (t, x_N)
        if which == "eq410":
            g_per_s = w.eta_slope(self.xn, np.exp(lt))  # -d_N xi
            factors = (self.c, g_per_s, self.beta, self.d)  # of the bracket b2
            peaks = _row_peaks(*factors)
            bases["i1"] = lt + alpha * self.log_xn[None, :] + self.log_scale2 + self.log_dt
            bases["i2"] = (3.0 * lt + (2.0 - alpha) * self.log_xn[None, :]
                           + self.log_y2 + self.log_dt)
        else:
            bases["eq51"] = lt + self.log_y2 + self.log_dt
        rowmax = {name: base.max(axis=1) for name, base in bases.items()}

        needed = np.empty(len(s_values))
        for i, s in enumerate(s_values):
            two_s = 2.0 * s

            def decayed(name, bracket=False):
                """log of the integral with the s-free terms bases[name] (and b2)"""
                base = bases[name]
                bound = rowmax[name] - two_s * xi_min
                if not bracket:
                    return _lse_rows(bound, lambda sl: base[sl] - two_s * xi[sl])
                with np.errstate(divide="ignore"):
                    return _lse_rows(
                        bound + np.log(_bracket(s, *peaks)),
                        lambda sl: (base[sl] + np.log(_bracket(s, *(f[sl] for f in factors)))
                                    - two_s * xi[sl]))

            log_rhs_b = np.log(s) + _lse(base_b - two_s * xi_edge)
            if which == "eq410":
                log_lhs = np.logaddexp(np.log(s) + decayed("i1", bracket=True),
                                       3.0 * np.log(s) + decayed("i2"))
            else:
                log_lhs = np.log(s) + decayed("eq51")
            needed[i] = -np.inf if log_lhs == -np.inf else log_lhs - log_rhs_b
        return needed


@dataclass(frozen=True)
class S0Fit:
    """Outcome of the empirical search for the parameter threshold."""

    found: bool
    s0: float | None
    c_boundary: float | None
    s_grid: tuple
    log_needed_c: np.ndarray  # (fields, s), read-only


def find_s0(fields, s_grid) -> S0Fit:
    """Smallest grid parameter from which the eq410 inequality stabilizes.

    ``fields`` is any iterable of FieldData; a generator streams them, since
    only one field's data is held at a time.  For every field the needed
    boundary constant lhs / rhs_boundary is evaluated on the
    whole grid; s0 is the first grid point from which these are finite and
    non-increasing for every field (so the inequality with the fitted C =
    max needed constant over the region is met at every larger grid value).
    A failure marker is returned when no grid point qualifies.
    """
    s_grid = [float(s) for s in s_grid]
    if not s_grid or any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise ParameterError("s grid must be non-empty and ascending")
    if s_grid[0] < 1.0:
        raise ParameterError("s grid must start at or above 1")
    rows = []
    for data in fields:
        rows.append(data.sweep(s_grid, "eq410"))
        del data  # freed before a generator builds the next one
    if not rows:
        raise ParameterError("need at least one field to calibrate")
    log_needed = np.stack(rows)
    del rows
    log_needed.flags.writeable = False

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
                         s_grid=tuple(s_grid), log_needed_c=log_needed)
    return S0Fit(found=False, s0=None, c_boundary=None, s_grid=tuple(s_grid),
                 log_needed_c=log_needed)
