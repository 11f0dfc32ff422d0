"""Truncated problems and delta-convergence experiments.

The degenerate problem on the full domain (a ``Domain`` with delta = 0) is
approximated by uniformly parabolic problems on the slabs {x_N > delta} of
the same family.  Truncated meshes are node-subsets of a full mesh, so
extending a nodal vector by zero is exact injection: the interface nodes
carry homogeneous Dirichlet values, hence the extended finite-element
function *is* the zero extension and its L2 norm is preserved to rounding.
The delta sweep refines a slab field into the last x_N columns of a zeroed
reference-size block, which is its zero extension refined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _refine(values, axis):
    """Linear interpolation of values along one axis onto its 2:1 uniform
    refinement: the coarse values on the even fine nodes and the mean of the
    two neighbours on each odd node, exact weights 1 and 1/2."""
    v = np.moveaxis(values, axis, -1)
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1] - 1,))
    out[..., ::2] = v
    out[..., 1::2] = 0.5 * (v[..., :-1] + v[..., 1:])
    return np.moveaxis(out, -1, axis)


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

    Uniform meshes are used throughout, so every delta is a node
    coordinate of both resolutions, extension stays exact injection, and
    each coarse axis nests 2:1 in the reference axis (:func:`_refine`).
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
    tnodes = grid.nodes

    def error_per_time(field):
        """v'Mv at every time of v = the field's time row, zero-extended and
        refined onto the reference mesh, minus the reference's.  The rows go
        through in blocks of about _BLOCK reference values, tensor_form's own
        block.  A block, as (b, x_1, x_N) with one x_1 node on the interval,
        is refined along x_1 and then x_N into the last 2 n_slab - 1 x_N
        columns of a zeroed block: a slab is the coarse mesh's last x_N
        layers, so that is its zero extension refined.  One tensor_form call
        per block forms the errors, so no full-size difference is ever held."""
        ref = ref_field.values
        n_slab, n_fine = field.mesh.shape[-1], ref_field.mesh.shape[-1]
        step = max(1, _BLOCK // ref.shape[1])
        out = np.empty(len(ref))
        for lo in range(0, len(ref), step):
            v = field.values[lo:lo + step]
            b = len(v)
            diff = np.zeros((b, ref.shape[1] // n_fine, n_fine))
            diff[..., 1 - 2 * n_slab:] = _refine(_refine(v.reshape(b, -1, n_slab), 1), 2)
            diff = diff.reshape(b, -1)
            diff -= ref[lo:lo + b]
            out[lo:lo + b] = tensor_form(diff, ref_ops.x1[1], ref_ops.xn[1])
        return out

    # one field at a time, each freed before the next one is solved
    sol_errors, fin_errors, flux_errors = [], [], []
    for d in (0.0, *deltas):
        field = solve_truncated(coarse_mesh, d, y0, grid)
        per_time = error_per_time(field)
        sol_errors.append(time_norm(per_time, tnodes))
        fin_errors.append(float(np.sqrt(per_time[-1])))
        tr_flux = _refine(flux_history(field)[0], 1)  # on the reference's x_1 nodes
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
