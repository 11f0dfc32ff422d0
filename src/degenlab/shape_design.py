"""Truncated problems, extension by zero, and delta-convergence experiments.

The degenerate problem on the full domain is approximated by uniformly
parabolic problems on the slabs {x_N > delta}.  Truncated meshes are
node-subsets of a full mesh, so extending a solution by zero is exact
injection: the interface nodes carry homogeneous Dirichlet values, hence
the extended finite-element function *is* the zero extension and its L2
norm is preserved to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretize import Mesh, OperatorPair, assemble, build_mesh, edge_mass, restrict_mesh
from .errors import ContractError, ParameterError, PreconditionError
from .evolution import (SpaceTimeField, TimeGrid, flux_history, form_of_difference,
                        solve_implicit, space_time_norm, stability_ratio, time_norm)
from .geometry import BoundaryPart, DomainSpec, TruncatedDomain


def extension_map(tr_mesh: Mesh, full_mesh: Mesh):
    """Full-mesh node id of every truncated-mesh node.

    Requires the truncated axes to be exact subsets of the full axes
    (the truncation-compatibility built by restrict_mesh).
    """
    if not isinstance(tr_mesh.domain, TruncatedDomain):
        raise ContractError("first mesh must live on a truncated domain")
    offsets = []
    for ax_t, ax_f in zip(tr_mesh.axes, full_mesh.axes):
        pos = np.searchsorted(ax_f, ax_t[0])
        hi = pos + ax_t.size
        if hi > ax_f.size or not np.allclose(ax_f[pos:hi], ax_t, rtol=0.0, atol=1e-12):
            raise ContractError("truncated mesh nodes are not a subset of the full mesh")
        offsets.append(pos)
    grids = np.meshgrid(*[off + np.arange(ax.size)
                          for off, ax in zip(offsets, tr_mesh.axes)], indexing="ij")
    return np.ravel_multi_index([g.ravel() for g in grids], full_mesh.shape)


def extend_vector(u, tr_mesh: Mesh, full_mesh: Mesh):
    """Zero extension of a nodal vector from the slab to the full domain."""
    out = np.zeros(full_mesh.n_nodes)
    out[extension_map(tr_mesh, full_mesh)] = np.asarray(u, dtype=float)
    return out


def extend_by_zero(field: SpaceTimeField, full_mesh: Mesh) -> SpaceTimeField:
    """Zero extension of a space-time field on a truncated mesh."""
    emap = extension_map(field.mesh, full_mesh)
    values = np.zeros((field.grid.steps + 1, full_mesh.n_nodes))
    values[:, emap] = field.values
    source = None
    if field.source is not None:
        source = np.zeros_like(values)
        source[:, emap] = field.source_values()
    return SpaceTimeField(full_mesh, field.grid, values, source=source,
                          direction=field.direction)


def isometry_report(u_tr, tr_ops: OperatorPair, full_ops: OperatorPair):
    """L2 norms of a truncated vector and of its zero extension.

    Both the consistent-mass norm and the lumped (nodal) norm are
    returned; with node-subset meshes the two domains give identical
    values up to rounding.
    """
    u_tr = np.asarray(u_tr, dtype=float)
    u_ext = extend_vector(u_tr, tr_ops.mesh, full_ops.mesh)
    return {
        "l2_truncated": float(np.sqrt(u_tr @ (tr_ops.M_full @ u_tr))),
        "l2_extended": float(np.sqrt(u_ext @ (full_ops.M_full @ u_ext))),
        "lumped_truncated": float(np.sqrt(np.sum(tr_ops.lumped_full * u_tr**2))),
        "lumped_extended": float(np.sqrt(np.sum(full_ops.lumped_full * u_ext**2))),
    }


# every truncated and reference solve uses the second-order midpoint rule
_THETA = 0.5


def _nodal_data(mesh: Mesh, data, name):
    if data is None:
        return None
    if callable(data):
        return np.asarray(data(mesh.points), dtype=float)
    arr = np.asarray(data, dtype=float)
    if arr.shape != (mesh.n_nodes,):
        raise ContractError(f"{name} must be callable or a nodal vector")
    return arr


def _check_support(y0_full, full_mesh: Mesh, delta: float):
    vals = np.abs(y0_full)
    scale = max(1.0, float(vals.max()))
    low = full_mesh.xn <= delta + 1e-12
    bad = low & (vals > 1e-13 * scale)
    if np.any(bad):
        support = vals > 1e-13 * scale
        dist = float(full_mesh.xn[support].min())
        raise PreconditionError(
            f"initial datum must vanish on the cut strip x_N <= {delta}; "
            f"its support reaches down to x_N = {dist}",
            support_distance=dist,
        )


def solve_truncated(domain: DomainSpec, delta: float, y0, f, grid: TimeGrid, n: int):
    """Uniformly parabolic solve on the slab {x_N > delta}.

    y0 is a callable or a nodal vector on the uniform full-domain mesh
    with n cells per axis; it must vanish on the strip x_N <= delta (its
    restriction is the initial datum).  Returns the field on the
    truncated mesh together with the assembled operators.
    """
    full_mesh = build_mesh(domain, n, grading=1.0)
    y0_full = _nodal_data(full_mesh, y0, "y0")
    if y0_full is None:
        raise ParameterError("initial datum is required")
    _check_support(y0_full, full_mesh, delta)
    tr_mesh = restrict_mesh(full_mesh, delta)
    tr_ops = assemble(tr_mesh)
    emap = extension_map(tr_mesh, full_mesh)
    y0_tr = y0_full[emap].copy()
    y0_tr[tr_mesh.boundary] = 0.0
    f_tr = _nodal_data(tr_mesh, f, "f")
    field = solve_implicit(tr_ops, y0_tr, f_tr, grid, theta=_THETA)
    return field, tr_ops


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors of the zero-extended truncated solves against a reference
    solve on the full degenerate domain, per delta (descending)."""

    deltas: tuple
    solution_errors: tuple
    final_time_errors: tuple
    flux_errors: tuple
    solution_rates: tuple
    reference: str
    reference_self_error: float


def prolongation(coarse: Mesh, fine: Mesh):
    """Sparse (fine.n_nodes, coarse.n_nodes) piecewise (bi)linear interpolation:
    the Kronecker product of one 1D linear interpolation per axis, in the
    C-order node numbering; a fine node in [c_i, c_i+1) uses coarse cell i."""
    op = sp.identity(1, format="csr")
    for xc, xf in zip(coarse.axes, fine.axes):
        i = np.clip(np.searchsorted(xc, xf, side="right") - 1, 0, xc.size - 2)
        t = (xf - xc[i]) / (xc[i + 1] - xc[i])
        ij = (np.tile(np.arange(xf.size), 2), np.concatenate([i, i + 1]))
        axis_op = sp.csr_matrix((np.concatenate([1.0 - t, t]), ij), shape=(xf.size, xc.size))
        op = sp.kron(op, axis_op, format="csr")
    return op


def delta_sweep(domain: DomainSpec, y0, f, grid: TimeGrid, deltas,
                n_ref: int) -> ConvergenceReport:
    """Convergence experiment: truncated solves at half the reference
    resolution, zero-extended and compared against the full-domain solve.

    Uniform meshes are used throughout so that every delta is a node
    coordinate of both resolutions and extension stays exact injection;
    deltas must be multiples of 2/n_ref, strictly descending.
    """
    deltas = [float(d) for d in deltas]
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ParameterError("deltas must be strictly descending")
    if n_ref % 2:
        raise ParameterError("reference resolution must be even")
    n_sweep = n_ref // 2
    for d in deltas:
        if abs(d * n_sweep - round(d * n_sweep)) > 1e-9:
            raise ParameterError(
                f"delta={d} is not node-aligned with the sweep mesh (n={n_sweep})"
            )
    if not callable(y0):
        raise ParameterError("delta_sweep needs a callable initial datum")

    def full_solve(n):
        mesh = build_mesh(domain, n, grading=1.0)
        ops = assemble(mesh)
        y0_full = _nodal_data(mesh, y0, "y0")
        y0_full[mesh.boundary] = 0.0
        return solve_implicit(ops, y0_full, _nodal_data(mesh, f, "f"), grid,
                              theta=_THETA), ops

    ref_field, ref_ops = full_solve(n_ref)
    ref_mesh = ref_ops.mesh
    ref_flux, _ = flux_history(ref_field, ref_ops, BoundaryPart.OBSERVED)
    edge = edge_mass(ref_ops, BoundaryPart.OBSERVED)
    tnodes = grid.nodes

    # self-convergence of the reference: full solve at sweep resolution
    coarse_field, coarse_ops = full_solve(n_sweep)
    coarse_mesh = coarse_ops.mesh
    prolong = prolongation(coarse_mesh, ref_mesh)

    def error_per_time(op, values):
        """v'Mv at every time of v = op @ values(t) - reference(t), formed
        by blocks of rows, so no full-size difference is ever held."""
        return form_of_difference(ref_ops.M_full, lambda b: (op @ values[b].T).T,
                                  ref_field.values)

    self_err = time_norm(error_per_time(prolong, coarse_field.values), tnodes)

    sol_errors, fin_errors, flux_errors = [], [], []
    for d in deltas:
        field, tr_ops = solve_truncated(domain, d, y0, f, grid, n_sweep)
        # zero extension then prolongation: the columns of the slab nodes
        extend = prolong[:, extension_map(tr_ops.mesh, coarse_mesh)]
        sol_errors.append(time_norm(error_per_time(extend, field.values), tnodes))
        last = extend @ field.values[-1] - ref_field.values[-1]
        fin_errors.append(float(np.sqrt(last @ (ref_ops.M_full @ last))))
        tr_flux, _ = flux_history(field, tr_ops, BoundaryPart.OBSERVED)
        if domain.dimension == 1:
            flux_on_ref = tr_flux
        else:
            flux_on_ref = np.stack([np.interp(ref_mesh.axes[0], coarse_mesh.axes[0], row)
                                    for row in tr_flux])
        flux_errors.append(space_time_norm(edge, flux_on_ref - ref_flux, tnodes))

    rates = tuple(
        float(np.log(sol_errors[i] / sol_errors[i + 1])
              / np.log(deltas[i] / deltas[i + 1]))
        if sol_errors[i + 1] > 0 else float("nan")
        for i in range(len(deltas) - 1)
    )
    return ConvergenceReport(
        deltas=tuple(deltas),
        solution_errors=tuple(sol_errors),
        final_time_errors=tuple(fin_errors),
        flux_errors=tuple(flux_errors),
        solution_rates=rates,
        reference=f"full domain, uniform mesh n={n_ref}, theta={_THETA}",
        reference_self_error=self_err,
    )


def stability_sweep(domain: DomainSpec, y0, f, grid: TimeGrid, deltas, n: int):
    """Measured a-priori stability ratios of the truncated solves across a
    delta ladder; their spread probes the uniformity of the estimate's
    constant in delta."""
    ratios = {}
    for d in deltas:
        field, tr_ops = solve_truncated(domain, d, y0, f, grid, n)
        ratios[float(d)] = stability_ratio(field, tr_ops)
    vals = np.array(list(ratios.values()))
    drift = float((vals.max() - vals.min()) / vals.min())
    return {"ratios": ratios, "drift": drift}
