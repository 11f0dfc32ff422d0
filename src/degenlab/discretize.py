"""Meshes and weighted finite-element operators.

Linear elements on the interval, bilinear elements on tensor meshes of
the square.  Every integral involving the degenerate weight x_N**p is
computed per cell from the monomial antiderivative x**(p+1)/(p+1), so the
assembled operators carry no quadrature error in the weight; this matters
because the Hardy integrand x_N**(alpha-2) u**2 is singular at the
degenerate edge and numerical quadrature there would dominate the error
budget.

Node numbering is C-order over the tensor grid: for N = 2 the node
(i, j) on axes (x, x_N) has id  i * len(axis_N) + j.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, ParameterError, UnsupportedRegionError
from .geometry import BoundaryPart, DomainSpec, TruncatedDomain


def _power_integral(a, b, q):
    """Exact integral of x**q over [a, b] (elementwise in a, b)."""
    if q == -1.0:
        return np.log(b) - np.log(a)
    return (b ** (q + 1.0) - a ** (q + 1.0)) / (q + 1.0)


def stiffness_1d(nodes, p):
    """1D weighted stiffness  int x**p u' v' dx  for hat functions.

    The element gradient is constant, so each cell contributes
    I_p / h**2 times the pattern [[1, -1], [-1, 1]] with
    I_p = int_a^b x**p dx evaluated in closed form.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes[0] == 0.0 and p <= -1.0:
        raise ParameterError("stiffness weight exponent must exceed -1 at the origin")
    a, b = nodes[:-1], nodes[1:]
    h = b - a
    w = _power_integral(a, b, p) / h**2
    n = nodes.size
    rows = np.concatenate([np.arange(n - 1), np.arange(1, n), np.arange(n - 1), np.arange(1, n)])
    cols = np.concatenate([np.arange(n - 1), np.arange(1, n), np.arange(1, n), np.arange(n - 1)])
    vals = np.concatenate([w, w, -w, -w])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def mass_1d(nodes, p=0.0):
    """1D weighted mass  int x**p u v dx  for hat functions, exact per cell.

    For p <= -1 the entries coupling the node at x = 0 are infinite; they
    are set to zero instead, which is exact against any vector vanishing
    there (the only vectors for which the weighted integral is finite).
    Requires p > -2 so the remaining first-cell entry converges.
    """
    nodes = np.asarray(nodes, dtype=float)
    if p <= -2.0:
        raise ParameterError("mass weight exponent must exceed -2")
    a, b = nodes[:-1], nodes[1:]
    h = b - a
    singular_first = nodes[0] == 0.0 and p <= -1.0
    lo = 1 if singular_first else 0
    i_p = np.empty_like(h)
    i_p1 = np.empty_like(h)
    if singular_first:
        i_p[0] = 0.0  # pairs only with the zero coefficient at x = 0
        i_p1[0] = _power_integral(a[0], b[0], p + 1.0) if p + 1.0 > -1.0 else 0.0
    i_p[lo:] = _power_integral(a[lo:], b[lo:], p)
    if not singular_first:
        i_p1[:] = _power_integral(a, b, p + 1.0)
    else:
        i_p1[1:] = _power_integral(a[1:], b[1:], p + 1.0)
    i_p2 = _power_integral(a, b, p + 2.0)

    m00 = (b * b * i_p - 2.0 * b * i_p1 + i_p2) / h**2
    m01 = (-a * b * i_p + (a + b) * i_p1 - i_p2) / h**2
    m11 = (a * a * i_p - 2.0 * a * i_p1 + i_p2) / h**2
    if singular_first:
        m00[0] = 0.0
        m01[0] = 0.0

    n = nodes.size
    rows = np.concatenate([np.arange(n - 1), np.arange(1, n), np.arange(n - 1), np.arange(1, n)])
    cols = np.concatenate([np.arange(n - 1), np.arange(1, n), np.arange(1, n), np.arange(n - 1)])
    vals = np.concatenate([m00, m11, m01, m01])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class Mesh:
    """Tensor-product mesh with the degenerate coordinate on the last axis."""

    def __init__(self, domain, axes):
        self.domain = domain
        self.axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
        if len(self.axes) != domain.dimension:
            raise ContractError("axis count does not match domain dimension")
        for ax in self.axes:
            if ax.size < 2 or np.any(np.diff(ax) <= 0.0):
                raise ContractError("axis nodes must be strictly increasing")
        if self.axes[-1][0] != domain.xn_lower:
            raise ContractError(
                f"first x_N node must equal the domain lower bound {domain.xn_lower}"
            )
        self.shape = tuple(ax.size for ax in self.axes)
        self.n_nodes = int(np.prod(self.shape))
        grids = np.meshgrid(*self.axes, indexing="ij")
        self.points = np.stack([g.ravel() for g in grids], axis=1)
        self.xn = self.points[:, -1]
        self._classify()

    def _classify(self):
        idx = np.unravel_index(np.arange(self.n_nodes), self.shape)
        on_face = np.zeros(self.n_nodes, dtype=bool)
        for d, ind in enumerate(idx):
            on_face |= (ind == 0) | (ind == self.shape[d] - 1)
        self.boundary = np.flatnonzero(on_face)
        self.interior = np.flatnonzero(~on_face)
        labels = self.domain.classify_boundary(self.points[self.boundary])
        self.part_nodes = {}
        for part in BoundaryPart:
            sel = self.boundary[labels == part]
            if sel.size:
                self.part_nodes[part] = sel

    def zero_field(self):
        return np.zeros(self.n_nodes)


def build_mesh(domain, n, grading=None):
    """Tensor mesh with n cells per axis.

    Nodes on the degenerate axis follow (j/n)**g, clustering them near
    x_N = 0; the default is g = 2 on full domains and g = 1 (uniform) on
    truncated ones, which are uniformly parabolic.
    """
    if n < 4:
        raise ParameterError(f"need at least 4 cells per axis, got {n}")
    truncated = isinstance(domain, TruncatedDomain)
    if grading is None:
        grading = 1.0 if truncated else 2.0
    if grading < 1.0:
        raise ParameterError(f"grading must be >= 1, got {grading}")
    if truncated and grading != 1.0:
        raise ParameterError("truncated domains use uniform meshes (grading 1)")
    j = np.arange(n + 1) / n
    lo = domain.xn_lower
    xn_axis = lo + (j**grading) * (1.0 - lo)
    xn_axis[0], xn_axis[-1] = lo, 1.0
    axes = [np.linspace(0.0, 1.0, n + 1) for _ in range(domain.dimension - 1)]
    axes.append(xn_axis)
    return Mesh(domain, axes)


def restrict_mesh(full_mesh: Mesh, delta: float) -> Mesh:
    """Truncated mesh whose nodes are exactly the full-mesh nodes with
    x_N >= delta; delta must coincide with a full-mesh node."""
    if not isinstance(full_mesh.domain, DomainSpec):
        raise ContractError("restrict_mesh expects a full-domain mesh")
    ax = full_mesh.axes[-1]
    hits = np.flatnonzero(np.abs(ax - delta) <= 1e-12)
    if hits.size == 0:
        raise ContractError(f"delta={delta} is not a node of the full mesh")
    j0 = int(hits[0])
    axes = list(full_mesh.axes[:-1]) + [ax[j0:].copy()]
    axes[-1][0] = delta
    dom = TruncatedDomain(full_mesh.domain, delta)
    return Mesh(dom, axes)


class OperatorPair:
    """Weighted stiffness and mass matrices on a mesh.

    Both are tensor products of the 1D (stiffness, mass) pairs kept on the
    instance: ``xn`` on the degenerate axis and ``x1`` on the x_1 axis,
    K_full = kx (x) mn + mx (x) kn and M_full = mx (x) mn.  The interval
    is the case of a single x_1 node of unit mass and no stiffness.
    K_full / M_full act on all nodes (no boundary conditions) and are used
    for flux recovery; K / M are the interior blocks after eliminating the
    homogeneous Dirichlet rows and columns on the whole boundary.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.alpha = mesh.domain.alpha
        *x1_axis, xn_axis = mesh.axes
        self.x1 = ((stiffness_1d(x1_axis[0], 0.0), mass_1d(x1_axis[0], 0.0)) if x1_axis
                   else (sp.csr_matrix((1, 1)), sp.identity(1, format="csr")))
        self.xn = (stiffness_1d(xn_axis, self.alpha), mass_1d(xn_axis, 0.0))
        (kx, mx), (kn, mn) = self.x1, self.xn
        self.K_full = sp.kron(kx, mn, format="csr") + sp.kron(mx, kn, format="csr")
        self.M_full = sp.kron(mx, mn, format="csr")
        self.lumped_full = np.asarray(self.M_full.sum(axis=1)).ravel()
        self.interior = mesh.interior
        self.K = self.K_full[self.interior][:, self.interior].tocsc()
        self.M = self.M_full[self.interior][:, self.interior].tocsc()

    @cached_property
    def hardy_mass(self):
        """Full-node matrix of  int x_N**(alpha-2) u v."""
        return sp.kron(self.x1[1], mass_1d(self.mesh.axes[-1], self.alpha - 2.0), format="csr")

    @cached_property
    def xn_energy(self):
        """Full-node matrix of  int x_N**alpha (d_N u)(d_N v), the x_N part of K_full."""
        return sp.kron(self.x1[1], self.xn[0], format="csr")


def assemble(mesh: Mesh) -> OperatorPair:
    """Assemble the weighted operator pair for the mesh; the exponent
    alpha is taken from the mesh domain."""
    return OperatorPair(mesh)


def _check_admissible(mesh, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_nodes,):
        raise ContractError(f"expected nodal vector of length {mesh.n_nodes}")
    bvals = u[mesh.boundary]
    scale = max(1.0, float(np.max(np.abs(u))))
    if bvals.size and np.max(np.abs(bvals)) > 1e-12 * scale:
        raise ContractError("nodal vector must vanish on the Dirichlet boundary")
    return u


def norms(ops: OperatorPair, u):
    """Weighted norms of an admissible nodal vector.

    Returns
    -------
    dict with keys
        l2        : sqrt(u' M u), the plain L2 norm,
        h1w       : sqrt(u' K u), the weighted energy norm,
        hardy_lhs : int x_N**(alpha-2) u**2 dx, exact for the interpolant.
    """
    u = _check_admissible(ops.mesh, u)
    l2sq = float(u @ (ops.M_full @ u))
    h1sq = float(u @ (ops.K_full @ u))
    hardy = float(u @ (ops.hardy_mass @ u))
    return {
        "l2": np.sqrt(max(l2sq, 0.0)),
        "h1w": np.sqrt(max(h1sq, 0.0)),
        "hardy_lhs": hardy,
    }


# relative slack of the discrete Hardy check against its continuous bound
_HARDY_TOL = 0.02


def hardy_check(ops: OperatorPair, u):
    """Ratio of the singular-weight integral to the x_N part of the energy.

    The bound 4/(1-alpha)**2 comes from the one-dimensional weighted
    Hardy inequality; the denominator uses only the x_N-derivative part
    of the energy, which is the full energy when N = 1.  ``holds`` allows
    a relative slack of 2% over the bound.
    """
    u = _check_admissible(ops.mesh, u)
    denom = float(u @ (ops.xn_energy @ u))
    if denom == 0.0:
        raise ParameterError("Hardy ratio undefined for u = 0")
    lhs = float(u @ (ops.hardy_mass @ u))
    bound = 4.0 / (1.0 - ops.alpha) ** 2
    ratio = lhs / denom
    return {"ratio": ratio, "bound": bound, "holds": ratio <= bound * (1.0 + _HARDY_TOL)}


def poincare_check(ops: OperatorPair, u):
    """l2**2 / h1w**2; its supremum over admissible u is 1/lambda_1."""
    u = _check_admissible(ops.mesh, u)
    h1sq = float(u @ (ops.K_full @ u))
    if h1sq == 0.0:
        raise ParameterError("Poincare ratio undefined for u = 0")
    l2sq = float(u @ (ops.M_full @ u))
    return {"ratio": l2sq / h1sq}


def part_node_ids(mesh: Mesh, part: BoundaryPart):
    ids = mesh.part_nodes.get(part)
    if ids is None:
        raise ParameterError(f"mesh has no boundary part {part.value!r}")
    return ids


def edge_mass(ops: OperatorPair, part: BoundaryPart):
    """Mass matrix of a horizontal boundary part, ordered like its node ids.

    Both horizontal parts (observed and cut) are copies of the x_1 axis,
    so this is the x_1 mass factor ``ops.x1[1]``; on the interval the part
    is a single point with the counting measure and the factor is [[1]].
    """
    if part is BoundaryPart.DEGENERATE:
        raise UnsupportedRegionError("flux on the degenerate boundary is undefined")
    if part is BoundaryPart.LATERAL:
        # lateral sides touch the degenerate corner on full domains and
        # split into two disconnected pieces; not an observation region
        raise UnsupportedRegionError("flux is only recovered on horizontal parts")
    part_node_ids(ops.mesh, part)  # raises when the mesh lacks the part
    return ops.x1[1]


def boundary_flux(ops: OperatorPair, u, part: BoundaryPart, f_proxy=None):
    """Outward normal derivative of u on a horizontal boundary part, by
    variational recovery.

    The residual functional r(b) = (K_full u - M_full f_proxy)(b), for
    ``u`` solving the weighted equation with load ``f_proxy``, equals the
    boundary integral of the conormal derivative against the hat function
    of node b; nodal values follow after dividing by the lumped edge mass.
    On horizontal parts away from the degeneracy the conormal and normal
    derivatives coincide.  ``u`` and ``f_proxy`` may also be
    (n_nodes, m) blocks, one field per column; the result is then
    (n_part, m).
    """
    lump = np.asarray(edge_mass(ops, part).sum(axis=1)).ravel()  # rejects other parts
    u = np.asarray(u, dtype=float)
    ids = part_node_ids(ops.mesh, part)
    # only the rows of the part enter the residual
    r = ops.K_full[ids] @ u
    if f_proxy is not None:
        r = r - ops.M_full[ids] @ np.asarray(f_proxy, dtype=float)
    return r / lump.reshape((-1,) + (1,) * (u.ndim - 1))
