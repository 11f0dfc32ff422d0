"""Truncated problems and delta-convergence experiments.

The degenerate problem on the full domain (a ``Domain`` with delta = 0) is
approximated by uniformly parabolic problems on the slabs {x_N > delta} of
the same family.  Truncated meshes are node-subsets of a full mesh, so
extending a nodal vector by zero is exact injection: the interface nodes
carry homogeneous Dirichlet values, hence the extended finite-element
function *is* the zero extension and its L2 norm is preserved to rounding.
The delta sweep extends a slab field by zero through the last x_N columns
of its prolongation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretize import (_BLOCK, Mesh, _require_memory, assemble, build_mesh, restrict_mesh,
                         tensor_form)
from .errors import ContractError, ParameterError, PreconditionError
from .evolution import TimeGrid, flux_history, solve_implicit, time_norm
from .geometry import Domain


# every truncated and reference solve uses the second-order midpoint rule
_THETA = 0.5


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


def solve_truncated(full_mesh: Mesh, delta: float, y0, grid: TimeGrid):
    """Solve on the part x_N > delta of a full-domain mesh, delta one of its
    x_N nodes: a uniformly parabolic slab, or the whole mesh at delta = 0.

    y0 is a callable or a nodal vector on full_mesh; it must vanish on the
    strip x_N <= delta (its restriction is the initial datum).  Returns the
    field on the operators assembled on the truncated mesh.
    """
    y0_full = np.asarray(y0(full_mesh.points) if callable(y0) else y0, dtype=float)
    if y0_full.shape != (full_mesh.n_nodes,):
        raise ContractError("y0 must be callable or a nodal vector")
    _check_support(y0_full, full_mesh, delta)
    tr_mesh = restrict_mesh(full_mesh, delta)
    # the slab's nodes are the last x_N layers; flatten copies, so a nodal
    # y0 of the caller is never written
    y0_tr = y0_full.reshape(full_mesh.shape)[..., -tr_mesh.shape[-1]:].flatten()
    y0_tr[tr_mesh.boundary] = 0.0
    return solve_implicit(assemble(tr_mesh), y0_tr, grid, theta=_THETA)


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
    """Per-axis factors (px, pn) of the piecewise (bi)linear interpolation from
    the coarse to the fine nodes, kron(px, pn) in the C-order node numbering:
    sparse 1D linear interpolations of x_1 and x_N, and px the 1x1 identity on
    the interval; a fine node in [c_i, c_i+1) uses coarse cell i."""
    def axis_op(xc, xf):
        i = np.clip(np.searchsorted(xc, xf, side="right") - 1, 0, xc.size - 2)
        t = (xf - xc[i]) / (xc[i + 1] - xc[i])
        ij = (np.tile(np.arange(xf.size), 2), np.concatenate([i, i + 1]))
        return sp.csr_matrix((np.concatenate([1.0 - t, t]), ij), shape=(xf.size, xc.size))

    return (sp.identity(1, format="csr"), *map(axis_op, coarse.axes, fine.axes))[-2:]


def _check_sweep(dimension, deltas, n_ref, steps):
    """Refuse a delta sweep before anything is assembled: its deltas must be
    strictly descending and multiples of 2/n_ref, n_ref even, and the
    reference field and one coarse or slab field, held at once, must fit in
    physical memory.  They are (steps+1) (n+1)**dimension doubles at n_ref
    and at the sweep resolution n_ref/2."""
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
    ref, coarse = ((steps + 1) * (n + 1) ** dimension * 8 for n in (n_ref, n_sweep))
    _require_memory(ref + coarse, f"a delta sweep with a {ref / 2**20:.0f} MiB reference "
                                  f"field and a {coarse / 2**20:.0f} MiB coarse field")


def delta_sweep(domain: Domain, y0, grid: TimeGrid, deltas,
                n_ref: int) -> ConvergenceReport:
    """Convergence experiment: truncated solves at half the reference
    resolution, zero-extended and compared against the full-domain solve.

    Uniform meshes are used throughout so that every delta is a node
    coordinate of both resolutions and extension stays exact injection.
    The reference is the delta = 0 solve at n_ref; the sweep solves
    delta = 0 and then every delta on the coarse mesh, and the delta = 0
    error is the reference's self-convergence error.  A sweep that
    :func:`_check_sweep` refuses fails before anything is assembled.
    """
    deltas = [float(d) for d in deltas]
    _check_sweep(domain.dimension, deltas, n_ref, grid.steps)
    if not callable(y0):
        raise ParameterError("delta_sweep needs a callable initial datum")
    ref_field = solve_truncated(build_mesh(domain, n_ref, grading=1.0), 0.0, y0, grid)
    ref_ops = ref_field.ops
    ref_flux, _ = flux_history(ref_field)
    coarse_mesh = build_mesh(domain, n_ref // 2, grading=1.0)
    px, pn = prolongation(coarse_mesh, ref_field.mesh)
    tnodes = grid.nodes

    def error_per_time(field, pn_cols):
        """v'Mv at every time of v = px V pn_cols' - reference(t), with V the
        field's (x_1, x_N) time row.  The rows go through in blocks of about
        _BLOCK reference values, tensor_form's own block: each block is
        prolonged by one sparse product per axis and its errors formed by
        one tensor_form call, so no full-size difference is ever held."""
        (n1f, n1c), (nnf, nnc) = px.shape, pn_cols.shape
        ref = ref_field.values
        step = max(1, _BLOCK // ref.shape[1])
        out = np.empty(len(ref))
        for lo in range(0, len(ref), step):
            v = field.values[lo:lo + step].reshape(-1, n1c, nnc)
            b = len(v)
            on_x1 = (px @ v.transpose(1, 0, 2).reshape(n1c, -1)).reshape(n1f, b, nnc)
            on_xn = pn_cols @ on_x1.transpose(1, 0, 2).reshape(-1, nnc).T  # (x_N, t x_1)
            diff = on_xn.T.reshape(b, -1) - ref[lo:lo + b]
            out[lo:lo + b] = tensor_form(diff, ref_ops.x1[1], ref_ops.xn[1])
        return out

    # one field at a time, each freed before the next one is solved
    sol_errors, fin_errors, flux_errors = [], [], []
    for d in (0.0, *deltas):
        field = solve_truncated(coarse_mesh, d, y0, grid)
        # a slab is the coarse mesh's last x_N layers: pn's last columns extend it by zero
        per_time = error_per_time(field, pn[:, -field.mesh.shape[-1]:])
        sol_errors.append(time_norm(per_time, tnodes))
        fin_errors.append(float(np.sqrt(per_time[-1])))
        tr_flux = flux_history(field)[0] @ px.T  # on the reference's x_1 nodes
        del field
        flux_errors.append(time_norm(tensor_form(tr_flux - ref_flux, ref_ops.x1[1]), tnodes))

    self_err, *sol_errors = sol_errors
    rates = tuple(
        float(np.log(sol_errors[i] / sol_errors[i + 1])
              / np.log(deltas[i] / deltas[i + 1]))
        if sol_errors[i + 1] > 0 else float("nan")
        for i in range(len(deltas) - 1)
    )
    return ConvergenceReport(
        deltas=tuple(deltas),
        solution_errors=tuple(sol_errors),
        final_time_errors=tuple(fin_errors[1:]),
        flux_errors=tuple(flux_errors[1:]),
        solution_rates=rates,
        reference=f"full domain, uniform mesh n={n_ref}, theta={_THETA}",
        reference_self_error=self_err,
    )
