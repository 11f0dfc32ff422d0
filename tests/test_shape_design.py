import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from degenlab.discretize import assemble, build_mesh, restrict_mesh
from degenlab.errors import ContractError, ParameterError, PreconditionError
from degenlab.evolution import TimeGrid, energy_history, solve_spectral
from degenlab.geometry import make_domain, truncate
from degenlab.rng import Lcg, random_admissible
from degenlab.shape_design import (
    delta_sweep,
    extend_by_zero,
    extend_vector,
    isometry_report,
    prolongation,
    solve_truncated,
    stability_sweep,
)
from degenlab.spectral import compute_spectrum


def smooth_bump(lo, hi):
    span = hi - lo

    def f(points):
        x = np.atleast_2d(points)[:, -1]
        out = np.zeros_like(x)
        m = (x > lo) & (x < hi)
        t = (x[m] - lo) / span
        out[m] = np.exp(-1.0 / (t * (1.0 - t)))
        return out

    return f


@pytest.fixture(scope="module")
def nested():
    d = make_domain("interval", 0.5)
    full = build_mesh(d, 64, 1.0)
    tr = restrict_mesh(full, 0.125)
    return assemble(tr), assemble(full)


def test_extend_zero_field(nested):
    tr_ops, full_ops = nested
    z = np.zeros(tr_ops.mesh.n_nodes)
    assert np.all(extend_vector(z, tr_ops.mesh, full_ops.mesh) == 0.0)


def test_extension_nodal_equality_and_isometry(nested):
    tr_ops, full_ops = nested
    tr_mesh, full_mesh = tr_ops.mesh, full_ops.mesh
    u = np.zeros(tr_mesh.n_nodes)
    u[tr_mesh.interior] = np.cos(3.0 * tr_mesh.points[tr_mesh.interior, 0])
    ext = extend_vector(u, tr_mesh, full_mesh)
    shared = np.isin(full_mesh.points[:, 0], tr_mesh.points[:, 0])
    assert np.array_equal(ext[shared], u)
    assert np.all(ext[~shared] == 0.0)
    rep = isometry_report(u, tr_ops, full_ops)
    assert rep["l2_extended"] == pytest.approx(rep["l2_truncated"], rel=1e-14)
    assert rep["lumped_extended"] == pytest.approx(rep["lumped_truncated"], rel=1e-14)


def test_extension_requires_nesting():
    d = make_domain("interval", 0.5)
    tr = build_mesh(truncate(d, 0.1), 7)  # nodes not in the full 1/16 grid
    full = build_mesh(d, 16, 1.0)
    with pytest.raises(ContractError):
        extend_vector(np.zeros(tr.n_nodes), tr, full)


def test_extend_space_time_field(nested):
    tr_ops, full_ops = nested
    grid = TimeGrid(1.0, 16)
    spec = compute_spectrum(tr_ops, 2)
    field = solve_spectral(spec, spec.mode(1), None, grid)
    ext = extend_by_zero(field, full_ops.mesh)
    e_tr = energy_history(field, tr_ops)
    e_ext = energy_history(ext, full_ops)
    assert np.allclose(e_tr, e_ext, rtol=1e-13)


def test_solve_truncated_support_check():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 16)
    field, _ = solve_truncated(d, 0.1, smooth_bump(0.45, 0.95), None, grid, 40)
    assert field.mesh.domain.delta == 0.1
    # an initial datum reaching the degenerate edge is rejected with the
    # measured support distance
    full_ops = assemble(build_mesh(d, 40, 1.0))
    phi1 = compute_spectrum(full_ops, 1).mode(1)
    with pytest.raises(PreconditionError) as err:
        solve_truncated(d, 0.1, phi1, None, grid, 40)
    assert err.value.support_distance is not None
    assert err.value.support_distance <= 0.1


def test_truncated_eigenmode_decays_at_truncated_rate():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(0.5, 64)
    n = 40
    full_mesh = build_mesh(d, n, 1.0)
    tr_mesh = restrict_mesh(full_mesh, 0.1)
    tr_ops = assemble(tr_mesh)
    spec = compute_spectrum(tr_ops, 1)
    y0_full = extend_vector(spec.mode(1), tr_mesh, full_mesh)
    field, ops2 = solve_truncated(d, 0.1, y0_full, None, grid, n)
    e = energy_history(field, ops2)
    lam1 = spec.eigenvalues[0]
    # pure exponential decay at the truncated operator's first eigenvalue,
    # up to the midpoint rule's O(dt^2) phase error
    assert np.allclose(e, np.exp(-lam1 * grid.nodes), rtol=5e-3)


def test_delta_sweep_strictly_decreasing():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 64)
    rep = delta_sweep(d, smooth_bump(0.45, 0.95), None, grid,
                      [0.2, 0.1, 0.05], n_ref=80)
    assert all(a > b for a, b in zip(rep.solution_errors, rep.solution_errors[1:]))
    assert all(a > b for a, b in zip(rep.flux_errors, rep.flux_errors[1:]))
    assert all(e >= 0 for e in rep.solution_errors)
    assert rep.reference_self_error >= 0.0


def test_delta_sweep_nonzero_source():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 64)

    def src(points):
        x = np.atleast_2d(points)[:, -1]
        return np.sin(np.pi * x)

    rep = delta_sweep(d, smooth_bump(0.45, 0.95), src, grid,
                      [0.2, 0.1, 0.05], n_ref=80)
    assert all(a > b for a, b in zip(rep.solution_errors, rep.solution_errors[1:]))


def test_delta_sweep_wide_margin_domain():
    # with a wider safety margin, farther cuts are admissible and the
    # nearer cut approximates better
    d = make_domain("interval", 0.5, delta0=0.45)
    grid = TimeGrid(1.0, 64)
    rep = delta_sweep(d, smooth_bump(0.55, 0.95), None, grid,
                      [0.4, 0.2], n_ref=80)
    assert rep.solution_errors[1] <= rep.solution_errors[0]


def test_delta_sweep_zero_data():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 32)

    def zero(points):
        return np.zeros(np.atleast_2d(points).shape[0])

    rep = delta_sweep(d, zero, None, grid, [0.2, 0.1], n_ref=40)
    assert rep.solution_errors == (0.0, 0.0)
    assert rep.final_time_errors == (0.0, 0.0)
    assert rep.flux_errors == (0.0, 0.0)


def test_delta_sweep_validation():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 32)
    bump = smooth_bump(0.45, 0.95)
    with pytest.raises(ParameterError):
        delta_sweep(d, bump, None, grid, [0.1, 0.2], n_ref=80)  # ascending
    with pytest.raises(ParameterError):
        delta_sweep(d, bump, None, grid, [0.15, 0.07], n_ref=80)  # misaligned


def test_stability_sweep_drift():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 64)
    res = stability_sweep(d, smooth_bump(0.45, 0.95), None, grid,
                          [0.2, 0.1, 0.05], n=80)
    assert set(res["ratios"]) == {0.2, 0.1, 0.05}
    assert res["drift"] <= 0.2


@pytest.mark.parametrize("kind", ["interval", "square"])
@pytest.mark.parametrize("n", [4, 15, 40])
def test_prolongation_is_tensor_linear_interpolation(kind, n):
    d = make_domain(kind, 0.5)
    coarse, fine = build_mesh(d, n, 1.0), build_mesh(d, 2 * n, 1.0)
    P = prolongation(coarse, fine)
    assert P.shape == (fine.n_nodes, coarse.n_nodes)

    def bilinear(points):  # a + b x + c y + d x y; the interval has only x
        x, y = points[:, 0], points[:, -1] if kind == "square" else 0.0
        return 0.3 - 1.7 * x + 2.1 * y + 0.9 * x * y

    assert np.allclose(P @ bilinear(coarse.points), bilinear(fine.points),
                       rtol=0.0, atol=1e-14)
    u = np.random.default_rng(n).standard_normal(coarse.n_nodes)
    oracle = RegularGridInterpolator(coarse.axes, u.reshape(coarse.shape))(fine.points)
    assert np.max(np.abs(P @ u - oracle)) <= 1e-14


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(8, 64),
       rung=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**32 - 1))
def test_extension_isometry_on_node_ladder(kind, n, rung, seed):
    # delta is a node j/n of the uniform full mesh below the domain's delta0 = 1/4
    full_mesh = build_mesh(make_domain(kind, 0.5), n, 1.0)
    j = 1 + int(rung * ((n - 1) // 4))
    tr_mesh = restrict_mesh(full_mesh, float(full_mesh.axes[-1][j]))
    u = random_admissible(tr_mesh, Lcg(seed))
    rep = isometry_report(u, assemble(tr_mesh), assemble(full_mesh))
    for norm in ("l2", "lumped"):
        assert abs(rep[f"{norm}_extended"] - rep[f"{norm}_truncated"]) \
            <= 1e-14 * rep[f"{norm}_truncated"]
