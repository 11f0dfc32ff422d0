"""Independent oracles used to freeze expected values.

Everything here is deliberately decoupled from the package internals:
Bessel functions come from their power series, zeros from bisection,
integrals from adaptive quadrature.  The exceptions are the per-node
Carleman budget, which takes the field's boundary flux from the package
and is the reference for the moment-based budgets, and the theta scheme
by one sparse LU of the assembled interior operator, the reference for
the x_1-diagonalised solver.  The one-sided finite-difference normal
derivative is the cross-check of the variational flux recovery.  The LCG
recurrence stepped one value at a time is the reference for the
jump-ahead draws.  The degenerate Sturm-Liouville
problem -(x**a u')' = lam u on (0, 1) with Dirichlet ends has
eigenfunctions

    u(x) = x**((1-a)/2) * J_nu(2 sqrt(lam)/(2-a) * x**((2-a)/2)),
    nu   = (1-a)/(2-a),

so lam_k = ((2-a)/2)**2 * j_{nu,k}**2 with j_{nu,k} the k-th positive
zero of J_nu.
"""

import math

import numpy as np
import scipy.sparse.linalg as spla
from scipy.integrate import quad
from scipy.special import logsumexp


def bessel_j(nu, x):
    """J_nu(x) by its power series (adequate for x up to ~30)."""
    x = float(x)
    if x == 0.0:
        return 0.0 if nu > 0 else 1.0
    half = 0.5 * x
    term = half**nu / math.gamma(nu + 1.0)
    total = term
    for m in range(1, 200):
        term *= -(half * half) / (m * (m + nu))
        total += term
        if abs(term) < 1e-18 * abs(total) + 1e-300:
            break
    return total


def bessel_zero(nu, k=1):
    """k-th positive zero of J_nu by scanning plus bisection."""
    found = 0
    x_prev, f_prev = 1e-9, bessel_j(nu, 1e-9)
    x = 0.05
    while x < 120.0:
        f = bessel_j(nu, x)
        if f_prev * f < 0.0:
            found += 1
            if found == k:
                lo, hi = x_prev, x
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    fm = bessel_j(nu, mid)
                    if f_prev * fm <= 0.0:
                        hi = mid
                    else:
                        lo, f_prev = mid, fm
                return 0.5 * (lo + hi)
        x_prev, f_prev = x, f
        x += 0.05
    raise RuntimeError(f"zero {k} of J_{nu} not found")


def degenerate_eigenvalue(alpha, k=1):
    nu = (1.0 - alpha) / (2.0 - alpha)
    j = bessel_zero(nu, k)
    return ((2.0 - alpha) / 2.0) ** 2 * j**2


def degenerate_eigenfunction(alpha, k=1):
    """Normalized eigenfunction of the degenerate problem and its
    derivative at x = 1 (boundary flux), via quadrature of the series."""
    lam = degenerate_eigenvalue(alpha, k)
    nu = (1.0 - alpha) / (2.0 - alpha)
    scale = 2.0 * math.sqrt(lam) / (2.0 - alpha)

    def raw(x):
        if x <= 0.0:
            return 0.0
        return x ** ((1.0 - alpha) / 2.0) * bessel_j(nu, scale * x ** ((2.0 - alpha) / 2.0))

    nrm2, _ = quad(lambda x: raw(x) ** 2, 0.0, 1.0, limit=200)
    c = 1.0 / math.sqrt(nrm2)

    def u(x):
        return c * raw(x)

    # one-sided 4-point derivative at the endpoint of the smooth closed form
    h = 1e-5
    du1 = (11.0 * u(1.0) - 18.0 * u(1.0 - h) + 9.0 * u(1.0 - 2 * h)
           - 2.0 * u(1.0 - 3 * h)) / (6.0 * h)
    return u, lam, du1


def hardy_ratio_quartic(alpha=0.5):
    """Exact Hardy ratio of u = x (1 - x): both integrals by quadrature."""
    num, _ = quad(lambda x: x ** (alpha - 2.0) * (x - x * x) ** 2, 0.0, 1.0)
    den, _ = quad(lambda x: x**alpha * (1.0 - 2.0 * x) ** 2, 0.0, 1.0)
    return num / den


def heat_flux_integral(mode=1, T=1.0):
    """Classical interval heat equation from sin(k pi x): the integral of
    the squared endpoint flux over (0, T)."""
    lam = (mode * math.pi) ** 2
    return (mode * math.pi) ** 2 * (1.0 - math.exp(-2.0 * lam * T)) / (2.0 * lam)


def heat_observability_ratio(mode=1, T=1.0):
    lam = (mode * math.pi) ** 2
    return 1.0 / (1.0 - math.exp(-2.0 * lam * T))


def fit_tail_exponent(theta, values):
    """Least-squares slope of log|values| against log(theta), restricted
    to the upper half of the log(theta) range (growth is a tail notion)."""
    theta = np.asarray(theta, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = np.abs(values) > 0.0
    lt, lv = np.log(theta[keep]), np.log(np.abs(values[keep]))
    cut = lt.min() + 0.5 * (lt.max() - lt.min())
    tail = lt >= cut
    a = np.vstack([lt[tail], np.ones(tail.sum())]).T
    slope, _ = np.linalg.lstsq(a, lv[tail], rcond=None)[0]
    return float(slope)


def carleman_budget_per_node(field, ops, w, which):
    """Log budgets of one Carleman inequality summed node by node.

    Every integrand is formed per (t, node) in log space and reduced by
    one log-sum-exp over all interior time levels and nodes.  Returns
    the logs of the left side, the source and boundary terms, and the
    needed boundary constant (lhs - rhs_source)+ / rhs_boundary.
    """
    from degenlab.discretize import edge_mass, part_node_ids
    from degenlab.evolution import flux_history
    from degenlab.geometry import BoundaryPart

    mesh, grid = field.mesh, field.grid
    alpha, s = w.alpha, w.s
    t = grid.nodes[1:-1]
    log_theta = -4.0 * (np.log(t) + np.log(grid.T - t))
    theta = np.exp(log_theta)[:, None]
    lt = log_theta[:, None]
    y = field.values[1:-1]
    v = field.values.reshape(field.values.shape[:-1] + mesh.shape)
    dy_dn = np.gradient(v, mesh.axes[-1], axis=-1, edge_order=2).reshape(
        field.values.shape)[1:-1]
    xn = mesh.xn
    log_xn = np.log(xn)
    flux, _ = flux_history(field, ops, BoundaryPart.OBSERVED)
    with np.errstate(divide="ignore"):
        log_y2 = 2.0 * np.log(np.abs(y))
        log_flux2 = 2.0 * np.log(np.abs(flux[1:-1]))
        log_f2 = (None if field.source is None
                  else 2.0 * np.log(np.abs(field.source_values()[1:-1])))
    lw = np.log(grid.dt) + np.log(ops.lumped_full)[None, :]
    xi = theta * (w.gamma - xn ** (2.0 - alpha))[None, :]
    two_s_xi = 2.0 * s * xi

    w_edge = np.asarray(edge_mass(ops, BoundaryPart.OBSERVED).sum(axis=1)).ravel()
    edge_xn = xn[part_node_ids(mesh, BoundaryPart.OBSERVED)]
    xi_edge = theta * (w.gamma - edge_xn ** (2.0 - alpha))[None, :]
    lw_edge = np.log(grid.dt) + np.log(w_edge)[None, :]
    log_rhs_b = np.log(s) + logsumexp(lt + log_flux2 - 2.0 * s * xi_edge + lw_edge)
    log_rhs_f = -np.inf if log_f2 is None else logsumexp(log_f2 - two_s_xi + lw)

    if which == "eq410":
        bracket = dy_dn + s * (2.0 - alpha) * theta * (xn ** (1.0 - alpha))[None, :] * y
        with np.errstate(divide="ignore"):
            log_b2 = 2.0 * np.log(np.abs(bracket))
        log_i1 = logsumexp(lt + alpha * log_xn[None, :] + log_b2 - two_s_xi + lw)
        log_i2 = logsumexp(3.0 * lt + (2.0 - alpha) * log_xn[None, :]
                           + log_y2 - two_s_xi + lw)
        log_lhs = np.logaddexp(np.log(s) + log_i1, 3.0 * np.log(s) + log_i2)
    else:
        log_lhs = np.log(s) + logsumexp(lt + log_y2 - two_s_xi + lw)

    if log_lhs <= log_rhs_f:
        log_needed = -np.inf
    elif log_rhs_f == -np.inf:
        log_needed = log_lhs - log_rhs_b
    else:
        log_needed = log_lhs + np.log1p(-np.exp(log_rhs_f - log_lhs)) - log_rhs_b
    return {"log_lhs": float(log_lhs), "log_rhs_source": float(log_rhs_f),
            "log_rhs_boundary": float(log_rhs_b), "log_needed_c": float(log_needed)}


def theta_scheme_lu(ops, y0, f, grid, theta):
    """Nodal values of the theta scheme
    (M + theta dt K) y+ = (M - (1-theta) dt K) y + dt M f, stepped with one
    sparse LU of the interior operator M + theta dt K."""
    from degenlab.evolution import SpaceTimeField

    dt = grid.dt
    lu = spla.splu((ops.M + theta * dt * ops.K).tocsc())
    rhs_op = (ops.M - (1.0 - theta) * dt * ops.K).tocsr()
    values = np.zeros((grid.steps + 1, ops.mesh.n_nodes))
    values[0] = y0
    fvals = SpaceTimeField(ops.mesh, grid, values, source=f).source_values()
    ii = ops.interior
    y = values[0, ii].copy()
    for j in range(grid.steps):
        rhs = rhs_op @ y
        if fvals is not None:
            rhs += dt * (ops.M @ ((1.0 - theta) * fvals[j, ii] + theta * fvals[j + 1, ii]))
        y = lu.solve(rhs)
        values[j + 1, ii] = y
    return values


def lcg_uniform(rng, n):
    """n uniforms of the documented LCG recurrence, one scalar step per value:
    state <- (A state + C) mod 2**64, value (state >> 11) * 2**-53.  Advances
    rng.state as the generator does."""
    a, c = 6364136223846793005, 1442695040888963407
    out = np.empty(n)
    for i in range(n):
        rng.state = (a * rng.state + c) % 2**64
        out[i] = (rng.state >> 11) * 2.0**-53
    return out


def fd_flux(mesh, u, part):
    """Outward normal derivative of a nodal vector on the observed or cut
    edge, by the one-sided second-order difference over the first three
    x_N nodes from that edge; one value per edge node."""
    from degenlab.geometry import BoundaryPart

    vals = np.asarray(u, dtype=float).reshape(mesh.shape)
    ax = mesh.axes[-1]
    if part is BoundaryPart.OBSERVED:
        x0, x1, x2 = ax[-1], ax[-2], ax[-3]
        f0, f1, f2 = vals[..., -1], vals[..., -2], vals[..., -3]
        sign = 1.0
    elif part is BoundaryPart.CUT:
        x0, x1, x2 = ax[0], ax[1], ax[2]
        f0, f1, f2 = vals[..., 0], vals[..., 1], vals[..., 2]
        sign = -1.0
    else:
        raise ValueError("finite-difference flux needs a horizontal part")
    h1, h2 = x1 - x0, x2 - x0
    d = (f0 * (-(h1 + h2) / (h1 * h2))
         + f1 * (h2 / (h1 * (h2 - h1)))
         + f2 * (-h1 / (h2 * (h2 - h1))))
    return sign * np.atleast_1d(d).ravel()
