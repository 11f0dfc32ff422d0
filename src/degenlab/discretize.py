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

import math
import os
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import ContractError, ParameterError
from .geometry import truncate


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
    with np.errstate(divide="ignore"):  # the first cell's i_p when it is singular
        i_p, i_p1, i_p2 = (_power_integral(a, b, p + j) for j in (0.0, 1.0, 2.0))
    singular_first = nodes[0] == 0.0 and p <= -1.0
    if singular_first:
        i_p[0] = 0.0  # pairs only with the zero coefficient at x = 0

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


def physical_memory_mib():
    """The machine's physical memory, in MiB."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20


def _require_memory(need_bytes, what):
    """Refuse, before anything is allocated, a task whose arrays are
    estimated at ``need_bytes`` when that exceeds the machine's physical
    memory; ``what`` names the task in the message.  The one refusal of
    the mesh, the eigensolve, the time-node arrays and the delta sweep."""
    need_mib, memory_mib = need_bytes / 2**20, physical_memory_mib()
    if need_mib > memory_mib:
        raise ParameterError(f"{what} needs about {need_mib:.0f} MiB, more than the "
                             f"{memory_mib:.0f} MiB of physical memory")


def _check_size(shape):
    """The node count of a tensor mesh of this shape, refusing the mesh
    before any per-node array exists when its estimated memory exceeds the
    machine's physical memory.  Per node, the mesh holds N float64
    coordinates and two int64 node ids, (N + 2) * 8 bytes, and the interior
    K and M each hold 3**N nonzeros per row at 12 bytes (a float64 value and
    an int32 index): 248 bytes per node on the square, 96 on the interval."""
    n_nodes, dim = math.prod(shape), len(shape)
    _require_memory(n_nodes * ((dim + 2) * 8 + 2 * 3**dim * 12), f"a mesh of {n_nodes} nodes")
    return n_nodes


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
        if self.axes[-1][0] != domain.delta:
            raise ContractError(
                f"first x_N node must equal the domain lower bound {domain.delta}"
            )
        self.shape = tuple(ax.size for ax in self.axes)
        self.n_nodes = _check_size(self.shape)
        grids = np.meshgrid(*self.axes, indexing="ij")
        self.points = np.stack([g.ravel() for g in grids], axis=1)
        self.xn = self.points[:, -1]
        self._classify()

    def _classify(self):
        """Boundary and interior, read off the C-order node ids: a node is
        on the boundary when its index is at either end of some axis."""
        ids = np.arange(self.n_nodes).reshape(self.shape)
        inner = tuple(slice(1, -1) for _ in self.shape)
        self.interior = ids[inner].ravel()
        on_face = np.ones(self.shape, dtype=bool)
        on_face[inner] = False
        self.boundary = ids[on_face]

    def grad_n(self, values):
        """Nodal derivative along the degenerate axis (3-point stencils) of
        an array whose last axis runs over the nodes."""
        v = values.reshape(values.shape[:-1] + self.shape)
        g = np.gradient(v, self.axes[-1], axis=-1, edge_order=2)
        return g.reshape(values.shape)


def build_mesh(domain, n, grading=None):
    """Tensor mesh with n cells per axis.

    Nodes on the degenerate axis follow (j/n)**g, clustering them near
    x_N = 0; the default is g = 2 on full domains and g = 1 (uniform) on
    truncated ones, which are uniformly parabolic.
    """
    if n < 4:
        raise ParameterError(f"need at least 4 cells per axis, got {n}")
    truncated = domain.delta > 0.0
    if grading is None:
        grading = 1.0 if truncated else 2.0
    if grading < 1.0:
        raise ParameterError(f"grading must be >= 1, got {grading}")
    if truncated and grading != 1.0:
        raise ParameterError("truncated domains use uniform meshes (grading 1)")
    _check_size((n + 1,) * domain.dimension)  # before the axes are built
    j = np.arange(n + 1) / n
    lo = domain.delta
    xn_axis = lo + (j**grading) * (1.0 - lo)
    xn_axis[0], xn_axis[-1] = lo, 1.0
    axes = [np.linspace(0.0, 1.0, n + 1) for _ in range(domain.dimension - 1)]
    axes.append(xn_axis)
    return Mesh(domain, axes)


def restrict_mesh(full_mesh: Mesh, delta: float) -> Mesh:
    """Truncated mesh whose nodes are exactly the full-mesh nodes with
    x_N >= delta; delta must coincide with a full-mesh node."""
    dom = truncate(full_mesh.domain, delta)
    ax = full_mesh.axes[-1]
    hits = np.flatnonzero(np.abs(ax - delta) <= 1e-12)
    if hits.size == 0:
        raise ContractError(f"delta={delta} is not a node of the full mesh")
    j0 = int(hits[0])
    axes = list(full_mesh.axes[:-1]) + [ax[j0:].copy()]
    axes[-1][0] = delta
    return Mesh(dom, axes)


def _tensor_stiffness(x1, xn):
    """kx (x) mn + mx (x) kn of the 1D pairs x1 = (kx, mx) and xn = (kn, mn), CSR."""
    (kx, mx), (kn, mn) = x1, xn
    return sp.kron(kx, mn, format="csr") + sp.kron(mx, kn, format="csr")


class OperatorPair:
    """Weighted stiffness and mass matrices on a mesh.

    Both are tensor products of the 1D (stiffness, mass) pairs kept on the
    instance: ``xn`` on the degenerate axis and ``x1`` on the x_1 axis, the
    full-node stiffness kx (x) mn + mx (x) kn and M_full = mx (x) mn, and
    :func:`tensor_form` takes their quadratic forms from the factors.  The
    interval is the case of a single x_1 node of unit mass and no stiffness.
    K / M are the interior blocks after eliminating the homogeneous
    Dirichlet rows and columns on the whole boundary, built as the same
    products of the interior blocks of the 1D pairs.  Only the 1D pairs are
    built here: every other operator is built on first read.  An eigensolve
    builds no full-node operator and keeps no K: it holds the factor of K
    and M, and K only while it factors it or takes Rayleigh quotients.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.alpha = mesh.domain.alpha
        *x1_axis, xn_axis = mesh.axes
        self.x1 = ((stiffness_1d(x1_axis[0], 0.0), mass_1d(x1_axis[0], 0.0)) if x1_axis
                   else (sp.csr_matrix((1, 1)), sp.identity(1, format="csr")))
        self.xn = (stiffness_1d(xn_axis, self.alpha), mass_1d(xn_axis, 0.0))
        self.interior = mesh.interior

    M_full = cached_property(lambda self: sp.kron(self.x1[1], self.xn[1], format="csr"))
    # the row sums of M_full, as the outer product of the 1D row sums
    lumped_full = cached_property(lambda self: np.outer(
        *(np.asarray(m.sum(axis=1)).ravel() for m in (self.x1[1], self.xn[1]))).ravel())
    K = cached_property(lambda self: self.interior_stiffness())
    M = cached_property(lambda self: sp.kron(self.interior_1d[0][1], self.interior_1d[1][1],
                                             format="csr").tocsc())
    # the x_N factor of the Hardy form  int x_N**(alpha-2) u v
    hardy_xn = cached_property(lambda self: mass_1d(self.mesh.axes[-1], self.alpha - 2.0))

    def interior_stiffness(self):
        """The interior stiffness K, CSC, built anew on every call and held by
        the caller alone; ``K`` keeps one."""
        return _tensor_stiffness(*self.interior_1d).tocsc()

    @cached_property
    def interior_1d(self):
        """(x1, xn): the 1D pairs on their interior nodes, all but the two ends
        of each axis; the interval's single x_1 node is interior.  The interior
        node ids are the tensor grid of the two axes' interior nodes."""
        x1 = self.x1 if len(self.mesh.axes) == 1 else tuple(a[1:-1, 1:-1] for a in self.x1)
        return x1, tuple(a[1:-1, 1:-1] for a in self.xn)

    @cached_property
    def x1_eigh(self):
        """(lam, vecs): the M-orthonormal eigenpairs of the interior x_1 pair,
        by a dense solve; one mode, lam = 0, on the interval.  Read-only."""
        lam, vecs = la.eigh(*(a.toarray() for a in self.interior_1d[0]))
        lam.flags.writeable = vecs.flags.writeable = False
        return lam, vecs

    @cached_property
    def flux_rows(self):
        """(stencil node ids, the observed edge's rows of the full-node
        stiffness and of M_full on those columns).  The stencil is every
        node those rows touch, sorted ascending and read-only.  The edge is
        the last x_N layer, and the rows of a product A (x) B on the layer
        are A (x) B[layer], so they come from the 1D factors alone."""
        kn, mn = self.xn
        k = _tensor_stiffness(self.x1, (kn[-1], mn[-1]))
        m = sp.kron(self.x1[1], mn[-1], format="csr")
        cols = np.union1d(k.indices, m.indices)
        cols.flags.writeable = False
        return cols, k[:, cols], m[:, cols]


# values per block of rows in tensor_form and in the delta sweep's errors
_BLOCK = 2**16


def tensor_form(values, a1, an=None):
    """v'(a1 (x) an)v for every leading row v of ``values``, from the
    symmetric 1D factors a1 on the x_1 axis and an on the x_N axis of the
    C-order tensor grid.  With ``an`` None the form is v' a1 v, for fields
    on the x_1 axis alone such as fluxes on a horizontal edge.

    Each row, as an (n_1, n_N) array V, gives the sum of the entries of
    (a1 V) * (V an): only the 1D factors are applied, and rows go through
    in blocks of about _BLOCK values, so no temporary is larger than one
    block.  A single vector gives a float.
    """
    values = np.asarray(values, dtype=float)
    n1 = a1.shape[0]
    nn = values.shape[-1] // n1
    rows = values.reshape(-1, n1, nn)
    step = max(1, _BLOCK // values.shape[-1])
    out = np.empty(len(rows))
    for lo in range(0, len(rows), step):
        v = rows[lo:lo + step]
        b = len(v)
        left = (a1 @ v.transpose(1, 0, 2).reshape(n1, -1)).reshape(n1, b, nn)
        by_xn = v.reshape(-1, nn).T
        right = (by_xn if an is None else an @ by_xn).reshape(nn, b, n1)  # (V an)'
        out[lo:lo + b] = np.einsum("ibj,jbi->b", left, right)
    return out if values.ndim > 1 else float(out[0])


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
    mx = ops.x1[1]
    denom = tensor_form(u, mx, ops.xn[0])
    if denom == 0.0:
        raise ParameterError("Hardy ratio undefined for u = 0")
    lhs = tensor_form(u, mx, ops.hardy_xn)
    bound = 4.0 / (1.0 - ops.alpha) ** 2
    ratio = lhs / denom
    return {"ratio": ratio, "bound": bound, "holds": ratio <= bound * (1.0 + _HARDY_TOL)}


def boundary_flux(ops: OperatorPair, u, f_proxy):
    """Outward normal derivative of u on the observed edge x_N = 1, by
    variational recovery.

    The residual functional r(b) = (K u - M f_proxy)(b) of the full-node
    stiffness K and mass M, for ``u`` solving the weighted equation with
    load ``f_proxy``, equals the boundary integral of the conormal
    derivative against the hat function of node b; nodal values follow
    after dividing by the lumped edge mass, the row sums of the x_1 mass
    factor ``ops.x1[1]`` (the counting measure [[1]] on the interval, whose
    edge is a single point).  Away from the degeneracy the conormal and
    normal derivatives coincide.  Only the rows of the edge enter the
    residual, and they touch only the nodes ``ops.flux_rows[0]``, the edge
    and its neighbouring x_N layer: ``u`` and ``f_proxy`` hold the values at
    those nodes, in that order.  They may also be (n_stencil, m) blocks, one
    field per column; the result is then (n_edge, m).
    """
    cols, k_rows, m_rows = ops.flux_rows
    lump = np.asarray(ops.x1[1].sum(axis=1)).ravel()
    u = np.asarray(u, dtype=float)
    if u.shape[:1] != cols.shape:
        raise ContractError(f"expected values at the {cols.size} flux stencil nodes, "
                            f"got shape {u.shape}")
    r = k_rows @ u - m_rows @ np.asarray(f_proxy, dtype=float)
    return r / lump.reshape((-1,) + (1,) * (u.ndim - 1))
