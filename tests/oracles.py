"""Independent oracles used to freeze expected values.

Everything here is deliberately decoupled from the package internals:
Bessel functions come from scipy's J_nu, their zeros from a sign-change
scan refined by brentq, integrals from adaptive quadrature.  The
exceptions are the per-node Carleman budgets, in log space, in linear arithmetic and in mpmath at
40 digits, which take the field's boundary flux from the package and are
the reference for the moment-based budgets; the theta scheme by one sparse LU of the assembled
interior operator, the reference for the x_1-diagonalised solver, and its
step with the operators in the x_1 eigenbasis built as sparse Kronecker
products, the bit-for-bit reference for the step on their diagonals; and the
delta sweep over whole (steps+1, n_nodes) fields, the reference for the
streamed sweep; and the interior rows and columns sliced out of the
full-node operators, the reference for the interior operators built
from the 1D factors.  The full-node operators are Kronecker products of
the 1D factors, built whole; their quadratic forms are the reference for
the forms applied factor by factor, and the weighted L2 and energy norms
they give are the reference for the eigenpairs.  The transformed-variable
identity residual of the Carleman weight takes its divergence from the
full-node stiffness.  eigsh on the assembled K and M,
which factors K itself, is the bit-for-bit reference for the eigensolve
that hands it a factor.  The boundary parts classified by node
coordinates, and the slab's node ids found by a meshgrid of its axis
offsets, are the references for the parts and for the zero extension
read off the node index array.  The one-sided finite-difference normal derivative
is the cross-check of the variational flux recovery.  The LCG recurrence stepped
one value at a time is the reference for the jump-ahead draws.  The
log-sum-exp that exponentiates every entry is the reference for the one
that skips underflowed terms.  The degenerate Sturm-Liouville
problem -(x**a u')' = lam u on (0, 1) with Dirichlet ends has
eigenfunctions

    u(x) = x**((1-a)/2) * J_nu(2 sqrt(lam)/(2-a) * x**((2-a)/2)),
    nu   = (1-a)/(2-a),

so lam_k = ((2-a)/2)**2 * j_{nu,k}**2 with j_{nu,k} the k-th positive
zero of J_nu, and the flux of the L2-normalised u_k at the observed end
(a Rellich identity) is u_k'(1)**2 = (2-a) lam_k.  These give the exact
flux Gram of the first K modes, and the continuum observability constant
in mpmath.  On the slab (delta, 1) the solutions are
x**((1-a)/2) Z_nu(mu x**kappa) with Z = J_nu, Y_nu and kappa = (2-a)/2,
so the slab's eigenvalues are kappa**2 mu**2 at the roots mu of the
cross product J_nu(mu delta**kappa) Y_nu(mu) - J_nu(mu) Y_nu(mu delta**kappa),
and the L2-normalised eigenfunctions' end fluxes obey the Rellich identity
u_k'(1)**2 = (2-a) lam_k + delta**(a+1) u_k'(delta)**2.
"""

import math

import mpmath
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.optimize import brentq
from scipy.special import jv, jvp, yv, yvp


def bessel_zeros(nu, count):
    """The first ``count`` positive zeros of J_nu (nu > -1) from scipy's
    J_nu: a scan in steps of 0.05, far below the zero spacing of about pi,
    up to one pi past McMahon's estimate (count + nu/2 - 1/4) pi of the
    last zero brackets each sign change, and brentq refines it."""
    x = np.arange(1e-3, (count + nu / 2.0 + 0.75) * math.pi, 0.05)
    f = jv(nu, x)
    starts = np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[:count]
    if starts.size < count:
        raise RuntimeError(f"found {starts.size} of {count} zeros of J_{nu}")
    return np.array([brentq(lambda z: jv(nu, z), x[i], x[i + 1], xtol=1e-14, rtol=1e-15)
                     for i in starts])


def degenerate_eigenvalues(alpha, count):
    """lambda_1..lambda_count of -(x**a u')' = lam u on (0, 1), Dirichlet ends."""
    nu = (1.0 - alpha) / (2.0 - alpha)
    return ((2.0 - alpha) / 2.0) ** 2 * bessel_zeros(nu, count) ** 2


def slab_eigenvalues(alpha, delta, count):
    """lambda_1..lambda_count of -(x**a u')' = lam u on the slab (delta, 1),
    Dirichlet ends: kappa**2 mu**2 at the roots mu of the Bessel cross
    product, by a scan in steps of 0.05 (the roots are at least pi apart)
    up to (count + 2) pi / (1 - delta**kappa), and brentq."""
    nu, kappa = (1.0 - alpha) / (2.0 - alpha), (2.0 - alpha) / 2.0
    d = delta**kappa

    def cross(mu):
        return jv(nu, mu * d) * yv(nu, mu) - jv(nu, mu) * yv(nu, mu * d)

    x = np.arange(1e-3, (count + 2) * math.pi / (1.0 - d), 0.05)
    f = cross(x)
    starts = np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[:count]
    if starts.size < count:
        raise RuntimeError(f"found {starts.size} of {count} slab eigenvalues")
    roots = np.array([brentq(cross, x[i], x[i + 1], xtol=1e-14, rtol=1e-15) for i in starts])
    return kappa**2 * roots**2


def slab_mode_fluxes(alpha, delta, count):
    """u_k'(1) and u_k'(delta), k = 1..count, of the L2-normalised slab
    eigenfunctions u_k = x**((1-a)/2) [Y_nu(mu d) J_nu(mu x**kappa)
    - J_nu(mu d) Y_nu(mu x**kappa)], d = delta**kappa, at the roots mu of
    slab_eigenvalues; the norm is taken by quad.  u_k vanishes at both
    ends, so u_k'(1) = mu kappa [Y_nu(mu d) J_nu'(mu) - J_nu(mu d) Y_nu'(mu)]
    and u_k'(delta) = mu kappa delta**((1-2a)/2) [Y_nu(mu d) J_nu'(mu d)
    - J_nu(mu d) Y_nu'(mu d)], times the norm's reciprocal."""
    nu, kappa = (1.0 - alpha) / (2.0 - alpha), (2.0 - alpha) / 2.0
    d = delta**kappa
    top, bottom = [], []
    for mu in np.sqrt(slab_eigenvalues(alpha, delta, count)) / kappa:
        a, b = yv(nu, mu * d), jv(nu, mu * d)

        def u(x):
            z = mu * x**kappa
            return x ** ((1.0 - alpha) / 2.0) * (a * jv(nu, z) - b * yv(nu, z))

        c = 1.0 / math.sqrt(quad(lambda x: u(x) ** 2, delta, 1.0, epsabs=0.0, epsrel=1e-13,
                                 limit=200)[0])
        top.append(c * mu * kappa * (a * jvp(nu, mu) - b * yvp(nu, mu)))
        bottom.append(c * mu * kappa * delta ** ((1.0 - 2.0 * alpha) / 2.0)
                      * (a * jvp(nu, mu * d) - b * yvp(nu, mu * d)))
    return np.array(top), np.array(bottom)


def degenerate_eigenvalue(alpha, k=1):
    return float(degenerate_eigenvalues(alpha, k)[k - 1])


def degenerate_eigenfunction(alpha, k=1):
    """Normalized eigenfunction of the degenerate problem and its
    derivative at x = 1 (boundary flux), via quadrature of the closed form."""
    lam = degenerate_eigenvalue(alpha, k)
    nu = (1.0 - alpha) / (2.0 - alpha)
    scale = 2.0 * math.sqrt(lam) / (2.0 - alpha)

    def raw(x):
        if x <= 0.0:
            return 0.0
        return x ** ((1.0 - alpha) / 2.0) * float(jv(nu, scale * x ** ((2.0 - alpha) / 2.0)))

    nrm2, _ = quad(lambda x: raw(x) ** 2, 0.0, 1.0, limit=200)
    c = 1.0 / math.sqrt(nrm2)

    def u(x):
        return c * raw(x)

    # one-sided 4-point derivative at the endpoint of the smooth closed form
    h = 1e-5
    du1 = (11.0 * u(1.0) - 18.0 * u(1.0 - h) + 9.0 * u(1.0 - 2 * h)
           - 2.0 * u(1.0 - 3 * h)) / (6.0 * h)
    return u, lam, du1


def c_obs_interval(alpha, T, K, dps=50):
    """Continuum observability constant of the interval over its first K
    modes, in mpmath at ``dps`` digits: with lam_k = ((2-a)/2)**2 j_k**2 and the
    squared mode fluxes f_k**2 = (2-a) lam_k, the flux Gram is
    G_jk = f_j f_k (1 - exp(-(lam_j + lam_k) T)) / (lam_j + lam_k), and
    c_obs = 1 / lambda_min(G).  The zeros j_k come from bessel_zeros."""
    zeros = bessel_zeros((1.0 - alpha) / (2.0 - alpha), K)
    with mpmath.workdps(dps):
        a, T = mpmath.mpf(alpha), mpmath.mpf(T)
        lam = [((2 - a) / 2) ** 2 * mpmath.mpf(j) ** 2 for j in zeros]
        f = [mpmath.sqrt((2 - a) * x) for x in lam]
        gram = mpmath.matrix(K, K)
        for p in range(K):
            for q in range(K):
                rate = lam[p] + lam[q]
                gram[p, q] = f[p] * f[q] * -mpmath.expm1(-rate * T) / rate
        return float(1 / min(mpmath.eigsy(gram, eigvals_only=True)))


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


def lse_exp_all(a):
    """log(sum(exp(a))) with every entry exponentiated after the shift by
    the largest one; the reference for the floored log-sum-exp."""
    top = np.max(a)
    if not np.isfinite(top):  # all -inf gives -inf; +inf and nan pass through
        return float(top)
    return float(top + np.log(np.sum(np.exp(a - top))))


def _lse_long(a):
    """log(sum(exp(a))) shifted by the largest entry, in the dtype of ``a``."""
    top = np.max(a)
    if not np.isfinite(top):
        return top
    return top + np.log(np.sum(np.exp(a - top)))


def lse_longdouble(a):
    """log(sum(exp(a))) over every entry in extended precision (np.longdouble,
    a 64-bit significand on x86-64), rounded to a float."""
    return float(_lse_long(np.asarray(a, dtype=np.longdouble)))


def carleman_budget_per_node(field, s, which):
    """Log budgets of one Carleman inequality summed node by node, with the
    weight of the field's exponent alpha and horizon T.

    Every integrand is formed per (t, node) in log space and reduced by
    one log-sum-exp over all interior time levels and nodes.  Returns
    the logs of the left side and the boundary term, and the needed
    boundary constant lhs / rhs_boundary.
    """
    from degenlab.evolution import flux_history

    ops, mesh, grid = field.ops, field.mesh, field.grid
    alpha, gamma = mesh.domain.alpha, 2.0
    t = grid.nodes[1:-1]
    log_theta = -4.0 * (np.log(t) + np.log(grid.T - t))
    theta = np.exp(log_theta)[:, None]
    lt = log_theta[:, None]
    # 2 s xi reaches about 1e5 at s = 200 and T = 1, where one ulp of a double
    # is 1.5e-11: the weight is formed in long double from the same double
    # nodes, and every log-sum-exp and log sum that takes it stays there
    tl, xl = t.astype(np.longdouble), mesh.xn.astype(np.longdouble)
    theta_l = (1.0 / (tl * (grid.T - tl)) ** 4)[:, None]
    eta_l = xl ** (2.0 - np.longdouble(alpha))
    s_l = np.longdouble(s)
    y = field.values[1:-1]
    v = field.values.reshape(field.values.shape[:-1] + mesh.shape)
    dy_dn = np.gradient(v, mesh.axes[-1], axis=-1, edge_order=2).reshape(
        field.values.shape)[1:-1]
    xn = mesh.xn
    log_xn = np.log(xn)
    flux, _ = flux_history(field)
    with np.errstate(divide="ignore"):
        log_y2 = 2.0 * np.log(np.abs(y))
        log_flux2 = 2.0 * np.log(np.abs(flux[1:-1]))
    lw = np.log(grid.dt) + np.log(ops.lumped_full)[None, :]
    two_s_xi = 2.0 * s_l * theta_l * (gamma - eta_l)[None, :]

    w_edge = np.asarray(ops.x1[1].sum(axis=1)).ravel()
    edge = np.arange(mesh.n_nodes).reshape(mesh.shape)[..., -1].ravel()
    two_s_xi_edge = 2.0 * s_l * theta_l * (gamma - eta_l[edge])[None, :]
    lw_edge = np.log(grid.dt) + np.log(w_edge)[None, :]
    log_rhs_b = np.log(s_l) + _lse_long(lt + log_flux2 - two_s_xi_edge + lw_edge)

    if which == "eq410":
        bracket = dy_dn + s * (2.0 - alpha) * theta * (xn ** (1.0 - alpha))[None, :] * y
        with np.errstate(divide="ignore"):
            log_b2 = 2.0 * np.log(np.abs(bracket))
        log_i1 = _lse_long(lt + alpha * log_xn[None, :] + log_b2 - two_s_xi + lw)
        log_i2 = _lse_long(3.0 * lt + (2.0 - alpha) * log_xn[None, :]
                           + log_y2 - two_s_xi + lw)
        log_lhs = np.logaddexp(np.log(s_l) + log_i1, 3.0 * np.log(s_l) + log_i2)
    else:
        log_lhs = np.log(s_l) + _lse_long(lt + log_y2 - two_s_xi + lw)

    log_needed = -np.inf if log_lhs == -np.inf else log_lhs - log_rhs_b
    return {"log_lhs": float(log_lhs), "log_rhs_boundary": float(log_rhs_b),
            "log_needed_c": float(log_needed)}


def carleman_budget_linear(field, s, which):
    """The two Carleman budget integrals of one field summed node by node
    in linear arithmetic, with the weight of the field's exponent alpha and
    horizon T: the left side and the boundary term (s times its integral),
    over the interior time levels.  Only for s and T
    where exp(-2 s xi) stays within the double range."""
    from degenlab.evolution import flux_history

    ops, mesh, grid = field.ops, field.mesh, field.grid
    alpha, gamma = mesh.domain.alpha, 2.0
    t = grid.nodes[1:-1]
    theta = (1.0 / (t * (grid.T - t)) ** 4)[:, None]
    y = field.values[1:-1]
    dy = np.gradient(y.reshape((t.size,) + mesh.shape), mesh.axes[-1], axis=-1,
                     edge_order=2).reshape(y.shape)
    xn = mesh.xn[None, :]
    decay = np.exp(-2.0 * s * theta * (gamma - xn ** (2.0 - alpha)))
    lw = grid.dt * ops.lumped_full[None, :]
    if which == "eq410":
        g = s * (2.0 - alpha) * theta * xn ** (1.0 - alpha)
        lhs = (s * np.sum(lw * theta * xn**alpha * (dy + g * y) ** 2 * decay)
               + s**3 * np.sum(lw * theta**3 * xn ** (2.0 - alpha) * y**2 * decay))
    else:
        lhs = s * np.sum(lw * theta * y**2 * decay)
    flux, _ = flux_history(field)
    w_edge = np.asarray(ops.x1[1].sum(axis=1)).ravel()
    edge_decay = np.exp(-2.0 * s * theta[:, 0] * (gamma - 1.0))  # x_N = 1 on the edge
    boundary = s * grid.dt * np.sum(theta[:, 0] * (flux[1:-1] ** 2 @ w_edge) * edge_decay)
    return {"lhs": float(lhs), "rhs_boundary": float(boundary)}


def carleman_budget_mp(field, s, which, dps=40):
    """The log budgets of carleman_budget_per_node evaluated in mpmath at
    ``dps`` digits, from the same double inputs: the field's values, their
    3-point x_N derivative, its recovered flux and the lumped weights.

    Every weight, product and sum is formed in multiprecision, whose
    exponent range does not underflow, so the integrals are summed
    directly.  It is the reference for the rounding of the double budgets:
    2 s xi alone is 1.6e17 at s = 200 and T = 0.03, where a double keeps
    no digit after the point.
    """
    from degenlab.evolution import flux_history

    ops, mesh, grid = field.ops, field.mesh, field.grid
    y = field.values[1:-1]
    dy = np.gradient(y.reshape((-1,) + mesh.shape), mesh.axes[-1], axis=-1,
                     edge_order=2).reshape(y.shape)
    flux = flux_history(field)[0][1:-1]
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        s, T, alpha = mpf(s), mpf(grid.T), mpf(mesh.domain.alpha)
        xn = [mpf(x) for x in mesh.xn]
        w = [mpf(x) for x in ops.lumped_full]
        w_edge = [mpf(x) for x in np.asarray(ops.x1[1].sum(axis=1)).ravel()]
        eta = [x ** (2 - alpha) for x in xn]
        lhs, boundary = mpf(0), mpf(0)
        for i, t in enumerate(map(mpf, grid.nodes[1:-1])):
            theta = 1 / (t * (T - t)) ** 4
            edge = sum(we * mpf(q) ** 2 for we, q in zip(w_edge, flux[i]))
            boundary += theta * edge * mpmath.exp(-2 * s * theta)  # x_N = 1 on the edge
            for j, x in enumerate(xn):
                decay = w[j] * mpmath.exp(-2 * s * theta * (2 - eta[j]))
                yj = mpf(y[i, j])
                if which == "eq410":
                    bracket = mpf(dy[i, j]) + s * (2 - alpha) * theta * x ** (1 - alpha) * yj
                    lhs += decay * (s * theta * x**alpha * bracket**2
                                    + s**3 * theta**3 * eta[j] * yj**2)
                else:
                    lhs += decay * s * theta * yj**2
        dt = mpf(grid.dt)
        lhs, boundary = dt * lhs, s * dt * boundary
        needed = mpmath.log(lhs / boundary) if lhs > 0 else -mpmath.inf
        return {"log_lhs": float(mpmath.log(lhs)),
                "log_rhs_boundary": float(mpmath.log(boundary)),
                "log_needed_c": float(needed)}


def full_stiffness(ops):
    """The full-node stiffness kx (x) mn + mx (x) kn of the 1D pairs, CSR."""
    (kx, mx), (kn, mn) = ops.x1, ops.xn
    return sp.kron(kx, mn, format="csr") + sp.kron(mx, kn, format="csr")


def kron_form(values, a1, an=None):
    """v'Av for every leading row v of values, with A = a1 (x) an built
    whole by a sparse Kronecker product (A = a1 when an is None)."""
    A = sp.csr_matrix(a1) if an is None else sp.kron(a1, an, format="csr")
    v = np.atleast_2d(values)
    out = np.einsum("tn,tn->t", v, (A @ v.T).T)
    return out if np.ndim(values) > 1 else float(out[0])


def norms(ops, u):
    """l2 = sqrt(u'Mu) and h1w = sqrt(u'Ku) of a nodal vector u, with the
    full-node mass and stiffness built whole by kron_form."""
    (kx, mx), (kn, mn) = ops.x1, ops.xn
    return {"l2": np.sqrt(kron_form(u, mx, mn)),
            "h1w": np.sqrt(kron_form(u, kx, mn) + kron_form(u, mx, kn))}


def theta_dt(T, t):
    """d Theta / dt of the Carleman time weight Theta(t) = 1 / [t (T - t)]**4."""
    u = t * (T - t)
    return -4.0 * (T - 2.0 * t) / u**5


def p_residual(field, f, s):
    """L2(Q) norm of  exp(-s xi) f - P1 z - P2 z  on interior nodes, for
    the transformed variable z = exp(-s xi) y of the field y, with the
    field's own Carleman weight family; z = 0 at t = 0 and t = T by the
    limit convention.

    P1 z = z_t + 2 s (A grad z . grad xi) + s z div(A grad xi) and
    P2 z = div(A grad z) + s z xi_t + s**2 z (A grad xi . grad xi); the
    derivatives of z are discrete (central in time, 3-point in space,
    the full-node stiffness over the lumped mass for the divergence), the
    xi factors closed forms.  The identity holds for a solution y of the
    backward equation with source f, given per time node as a
    (steps+1, n_nodes) array; the returned norm decays to zero under
    simultaneous space-time refinement at first order or better.  The
    weight needs a truncated domain and s > 0.
    """
    from degenlab.carleman import CarlemanWeights
    from degenlab.errors import ContractError, ParameterError

    if not field.mesh.domain.delta > 0.0:
        raise ContractError("the identity residual needs a truncated domain")
    if not s > 0.0:
        raise ParameterError(f"s must be positive, got {s}")
    ops, mesh, grid = field.ops, field.mesh, field.grid
    w = CarlemanWeights.of(field)
    alpha = w.alpha
    t = grid.nodes[1:-1]
    xn = mesh.xn
    theta = np.exp(w.log_theta(t))[:, None]
    gme = w.gamma_minus_eta(xn)[None, :]
    decay = np.exp(-s * (theta * gme))  # exp(-s xi)
    y = field.values
    z = np.zeros_like(y)
    z[1:-1] = decay * y[1:-1]
    zt = (z[2:] - z[:-2]) / (2.0 * grid.dt)
    zmid = z[1:-1]
    dz_dn = mesh.grad_n(zmid)
    div_adz = -(full_stiffness(ops) @ zmid.T).T / ops.lumped_full[None, :]

    p1 = zt - 2.0 * s * (2.0 - alpha) * theta * xn[None, :] * dz_dn \
        - s * (2.0 - alpha) * theta * zmid
    p2 = div_adz + s * zmid * theta_dt(grid.T, t)[:, None] * gme \
        + s**2 * (2.0 - alpha) ** 2 * theta**2 * (xn ** (2.0 - alpha))[None, :] * zmid
    resid = decay * np.asarray(f, dtype=float)[1:-1] - p1 - p2

    ii = mesh.interior
    sq = np.sum(resid[:, ii] ** 2 * ops.lumped_full[ii][None, :], axis=1)
    return float(np.sqrt(np.sum(sq) * grid.dt))


def interior_blocks(ops):
    """(K, M): the interior rows and columns of the full-node stiffness and
    of ops.M_full, sliced out of the full-node operators, in CSC."""
    ii = ops.interior
    return tuple(A[ii][:, ii].tocsc() for A in (full_stiffness(ops), ops.M_full))


def eigsh_reference(ops, k):
    """(eigenvalues, interior modes) of the first k pairs of K phi = lambda M phi
    by eigsh on the assembled K and M, letting ARPACK factor K itself:
    sigma = 0, the start vector ones/sqrt(n), then the ascending sort, one
    Rayleigh-quotient pass and the largest-magnitude-entry-positive sign."""
    n = ops.interior.size
    vals, vecs = spla.eigsh(ops.K, k=k, M=ops.M, sigma=0.0, which="LM",
                            v0=np.ones(n) / np.sqrt(n))
    order = np.argsort(vals)
    vecs = vecs[:, order]
    vals = (np.einsum("ij,ij->j", vecs, ops.K @ vecs)
            / np.einsum("ij,ij->j", vecs, ops.M @ vecs))
    for c in range(k):
        i = int(np.argmax(np.abs(vecs[:, c])))
        if vecs[i, c] < 0.0:
            vecs[:, c] = -vecs[:, c]
    return vals, vecs


def classify_by_coordinates(mesh):
    """(boundary, interior) of a mesh from its node coordinates against a
    1e-12 tolerance.  A node is on the boundary when any coordinate sits at
    an end of its axis (x_N's lower end is the domain's delta)."""
    pts = mesh.points
    lower = (0.0,) * (pts.shape[1] - 1) + (mesh.domain.delta,)
    at_lower = np.abs(pts - np.array(lower)) <= 1e-12
    at_upper = np.abs(pts - 1.0) <= 1e-12
    on_face = np.any(at_lower | at_upper, axis=1)
    return np.flatnonzero(on_face), np.flatnonzero(~on_face)


def extension_map_meshgrid(tr_mesh, full_mesh):
    """Full-mesh node id of every slab node: the slab's first node on each
    full axis, found by searchsorted, then a meshgrid of the offset axis
    ranges raveled into the full mesh's C order."""
    offsets = [np.searchsorted(ax_f, ax_t[0] - 1e-12)
               for ax_t, ax_f in zip(tr_mesh.axes, full_mesh.axes)]
    grids = np.meshgrid(*[off + np.arange(ax.size)
                          for off, ax in zip(offsets, tr_mesh.axes)], indexing="ij")
    return np.ravel_multi_index([g.ravel() for g in grids], full_mesh.shape)


def extend_by_zero(u, tr_mesh, full_mesh):
    """The nodal vector u of the slab injected at its full-mesh node ids
    (extension_map_meshgrid), zero at every other node."""
    out = np.zeros(full_mesh.n_nodes)
    out[extension_map_meshgrid(tr_mesh, full_mesh)] = u
    return out


def theta_scheme_lu(ops, y0, grid, theta):
    """Nodal values of the theta scheme
    (M + theta dt K) y+ = (M - (1-theta) dt K) y, stepped with one sparse
    LU of the interior operator M + theta dt K."""
    dt = grid.dt
    lu = spla.splu((ops.M + theta * dt * ops.K).tocsc())
    rhs_op = (ops.M - (1.0 - theta) * dt * ops.K).tocsr()
    values = np.zeros((grid.steps + 1, ops.mesh.n_nodes))
    values[0] = y0
    ii = ops.interior
    y = values[0, ii].copy()
    for j in range(grid.steps):
        y = lu.solve(rhs_op @ y)
        values[j + 1, ii] = y
    return values


def theta_rows_kron(ops, y0, grid, theta):
    """The nodal rows of the theta scheme in the x_1 eigenbasis, with M and K
    there built as the sparse Kronecker products I (x) mn and
    diag(lam) (x) mn + I (x) kn, the left side factored by dpttrf from its
    two diagonals and the right side applied as a CSR product."""
    dt = grid.dt
    (_, mx), (kn, mn) = ops.interior_1d
    lam, vecs = ops.x1_eigh
    to_modes = vecs.T @ mx.toarray()
    eye = sp.identity(lam.size)
    mass = sp.kron(eye, mn, format="csr")
    stiff = sp.kron(sp.diags(lam), mn, format="csr") + sp.kron(eye, kn, format="csr")
    lhs = mass + theta * dt * stiff
    d, e, _ = dpttrf(lhs.diagonal(), lhs.diagonal(1))
    rhs_op = mass - (1.0 - theta) * dt * stiff
    shape = (lam.size, mn.shape[0])
    row = np.array(y0, dtype=float)
    yield row
    z = (to_modes @ row[ops.interior].reshape(shape)).ravel()
    for _ in range(grid.steps):
        z = dpttrs(d, e, rhs_op @ z, overwrite_b=True)[0]
        z[np.abs(z) < np.finfo(float).tiny] = 0.0
        row = np.zeros(ops.mesh.n_nodes)
        row[ops.interior] = (vecs @ z.reshape(shape)).ravel()
        yield row


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


def fd_flux(mesh, u):
    """Outward normal derivative of a nodal vector on the observed edge
    x_N = 1, by the one-sided second-order difference over the last three
    x_N nodes; one value per edge node."""
    vals = np.asarray(u, dtype=float).reshape(mesh.shape)
    ax = mesh.axes[-1]
    x0, x1, x2 = ax[-1], ax[-2], ax[-3]
    f0, f1, f2 = vals[..., -1], vals[..., -2], vals[..., -3]
    h1, h2 = x1 - x0, x2 - x0
    d = (f0 * (-(h1 + h2) / (h1 * h2))
         + f1 * (h2 / (h1 * (h2 - h1)))
         + f2 * (-h1 / (h2 * (h2 - h1))))
    return np.atleast_1d(d).ravel()


def delta_sweep_blockwise(domain, y0, grid, deltas, n_ref):
    """Errors of the delta sweep from whole fields: the reference solve at
    n_ref, the full-domain and slab solves at n_ref/2, each held as a
    (steps+1, n_nodes) field, interpolated as a block onto the reference's
    nodes by scipy's RegularGridInterpolator over the coarse axes (a slab's
    rows first injected at its node ids, which extension_map_meshgrid finds
    by coordinates) and compared at once; slab fluxes move to the
    reference's x_1 nodes by np.interp.  Returns the solution, final-time
    and flux errors per delta and the reference's self-convergence error."""
    from degenlab.discretize import assemble, build_mesh
    from degenlab.evolution import flux_history, solve_implicit, time_norm
    from degenlab.shape_design import solve_truncated

    n_sweep = n_ref // 2

    def full_solve(n):
        mesh = build_mesh(domain, n, grading=1.0)
        ops = assemble(mesh)
        y0_full = y0(mesh.points)
        y0_full[mesh.boundary] = 0.0
        return solve_implicit(ops, y0_full, grid, theta=0.5)

    ref_field = full_solve(n_ref)
    ref_ops = ref_field.ops
    ref_mesh, t = ref_ops.mesh, grid.nodes
    ref_flux, _ = flux_history(ref_field)
    edge = ref_ops.x1[1]
    coarse_field = full_solve(n_sweep)
    coarse_mesh = coarse_field.mesh

    def error_per_time(field):
        values = np.zeros((grid.steps + 1, coarse_mesh.n_nodes))
        values[:, extension_map_meshgrid(field.mesh, coarse_mesh)] = field.values
        on_coarse = values.T.reshape(*coarse_mesh.shape, -1)
        fine = RegularGridInterpolator(coarse_mesh.axes, on_coarse)(ref_mesh.points).T
        return kron_form(fine - ref_field.values, ref_ops.x1[1], ref_ops.xn[1])

    out = {"self_error": time_norm(error_per_time(coarse_field), t),
           "solution_errors": [], "final_time_errors": [], "flux_errors": []}
    for d in deltas:
        field = solve_truncated(coarse_mesh, d, y0, grid)
        per_time = error_per_time(field)
        out["solution_errors"].append(time_norm(per_time, t))
        out["final_time_errors"].append(float(np.sqrt(per_time[-1])))
        tr_flux, _ = flux_history(field)
        if domain.dimension == 2:
            tr_flux = np.stack([np.interp(ref_mesh.axes[0], coarse_mesh.axes[0], row)
                                for row in tr_flux])
        out["flux_errors"].append(time_norm(kron_form(tr_flux - ref_flux, edge), t))
    return out
