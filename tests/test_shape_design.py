import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from degenlab.discretize import assemble, build_mesh, restrict_mesh, tensor_form
from degenlab.errors import ParameterError, PreconditionError
from degenlab.evolution import TimeGrid, energy_history, solve_implicit
from degenlab.geometry import make_domain
from degenlab.rng import Lcg, random_admissible
from degenlab.shape_design import _refine, delta_sweep, solve_truncated
from degenlab.spectral import compute_spectrum

from oracles import delta_sweep_blockwise, extend_by_zero
from test_acceptance import stability_sweep


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


def test_solve_truncated_support_check():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 16)
    full_mesh = build_mesh(d, 40, 1.0)
    field = solve_truncated(full_mesh, 0.1, smooth_bump(0.45, 0.95), grid)
    assert field.mesh.domain.delta == 0.1
    # an initial datum reaching the degenerate edge is rejected with the
    # measured support distance
    phi1 = compute_spectrum(assemble(full_mesh), 1).mode(1)
    with pytest.raises(PreconditionError) as err:
        solve_truncated(full_mesh, 0.1, phi1, grid)
    assert err.value.support_distance is not None
    assert err.value.support_distance <= 0.1
    # at delta = 0 the datum must vanish on the degenerate edge x_N = 0
    with pytest.raises(PreconditionError) as err:
        solve_truncated(full_mesh, 0.0, lambda points: 1.0 - points[:, -1], grid)
    assert err.value.support_distance == 0.0


@pytest.mark.parametrize("kind, n", [("interval", 40), ("square", 12)])
@pytest.mark.parametrize("datum", [None, "callable", "nodal"])
def test_delta_zero_is_the_full_solve(kind, n, datum):
    # the delta = 0 slab is the whole mesh: the same bits as a solve on the
    # assembled full mesh with the datum's boundary zeroed, whether the
    # datum comes as a callable or as a nodal vector; datum None is the
    # zero state, whose solve must stay exactly zero
    mesh = build_mesh(make_domain(kind, 0.5), n, 1.0)
    grid = TimeGrid(1.0, 16)
    bump = smooth_bump(0.3, 0.9)
    nodal = np.zeros(mesh.n_nodes) if datum is None else bump(mesh.points)
    field = solve_truncated(mesh, 0.0, bump if datum == "callable" else nodal, grid)
    y0 = nodal.copy()
    y0[mesh.boundary] = 0.0
    full = solve_implicit(assemble(mesh), y0, grid, theta=0.5)
    assert field.mesh.domain == mesh.domain and field.mesh.shape == mesh.shape
    assert np.array_equal(field.values, full.values)
    if datum is None:
        assert not np.any(field.values)


@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_solve_truncated_leaves_a_nodal_datum_unchanged(delta):
    # on the interval the slab's layers of y0 are a slice of the caller's
    # array; zeroing the slab boundary must not write into it
    mesh = build_mesh(make_domain("interval", 0.5), 40, 1.0)
    y0 = smooth_bump(0.0, 0.9)(mesh.points) + 1.0
    y0[mesh.xn <= delta + 1e-12] = 0.0
    before = y0.copy()
    solve_truncated(mesh, delta, y0, TimeGrid(1.0, 8))
    assert np.array_equal(y0, before)


def test_truncated_eigenmode_decays_at_truncated_rate():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(0.5, 64)
    n = 40
    full_mesh = build_mesh(d, n, 1.0)
    tr_mesh = restrict_mesh(full_mesh, 0.1)
    tr_ops = assemble(tr_mesh)
    spec = compute_spectrum(tr_ops, 1)
    y0_full = extend_by_zero(spec.mode(1), tr_mesh, full_mesh)
    field = solve_truncated(full_mesh, 0.1, y0_full, grid)
    e = energy_history(field)
    lam1 = spec.eigenvalues[0]
    # pure exponential decay at the truncated operator's first eigenvalue,
    # up to the midpoint rule's O(dt^2) phase error
    assert np.allclose(e, np.exp(-lam1 * grid.nodes), rtol=5e-3)


def test_delta_sweep_strictly_decreasing():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 64)
    rep = delta_sweep(d, smooth_bump(0.45, 0.95), grid,
                      [0.2, 0.1, 0.05], n_ref=80)
    assert all(a > b for a, b in zip(rep.solution_errors, rep.solution_errors[1:]))
    assert all(a > b for a, b in zip(rep.flux_errors, rep.flux_errors[1:]))
    assert all(e >= 0 for e in rep.solution_errors)
    assert rep.reference_self_error >= 0.0


# square n_ref=80 has 6561 values per time row, so its 33 rows go through
# the errors in row blocks of 9, the last one partial
@pytest.mark.parametrize("kind, n_ref", [("interval", 80), ("square", 40), ("square", 80)])
def test_row_wise_sweep_matches_blockwise_oracle(kind, n_ref):
    d = make_domain(kind, 0.5)
    grid = TimeGrid(1.0, 32)
    bump, deltas = smooth_bump(0.45, 0.95), [0.2, 0.1, 0.05]
    rep = delta_sweep(d, bump, grid, deltas, n_ref=n_ref)
    oracle = delta_sweep_blockwise(d, bump, grid, deltas, n_ref)
    for name in ("solution_errors", "final_time_errors", "flux_errors"):
        assert np.allclose(getattr(rep, name), oracle[name], rtol=1e-12, atol=0.0)
    assert rep.reference_self_error == pytest.approx(oracle["self_error"], rel=1e-12)
    assert min(rep.flux_errors) > 0.0


def test_delta_sweep_zero_data():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 32)

    def zero(points):
        return np.zeros(np.atleast_2d(points).shape[0])

    rep = delta_sweep(d, zero, grid, [0.2, 0.1], n_ref=40)
    assert rep.solution_errors == (0.0, 0.0)
    assert rep.final_time_errors == (0.0, 0.0)
    assert rep.flux_errors == (0.0, 0.0)


def test_delta_sweep_validation():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 32)
    bump = smooth_bump(0.45, 0.95)
    with pytest.raises(ParameterError):
        delta_sweep(d, bump, grid, [0.1, 0.2], n_ref=80)  # ascending
    with pytest.raises(ParameterError):
        delta_sweep(d, bump, grid, [0.15, 0.07], n_ref=80)  # misaligned


def test_stability_sweep_drift():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 64)
    res = stability_sweep(d, smooth_bump(0.45, 0.95), grid,
                          [0.2, 0.1, 0.05], n=80)
    assert set(res["ratios"]) == {0.2, 0.1, 0.05}
    assert res["drift"] <= 0.2


def refine_row(u, n_xn):
    """A nodal row refined as delta_sweep refines a block of rows: as
    (1, x_1, x_N), one x_1 node on the interval, along x_1 and then x_N."""
    return _refine(_refine(u.reshape(1, -1, n_xn), 1), 2).ravel()


@pytest.mark.parametrize("kind", ["interval", "square"])
@pytest.mark.parametrize("n", [4, 15, 40])
def test_prolongation_is_tensor_linear_interpolation(kind, n):
    # _refine along each axis is the delta sweep's prolongation from n to 2n
    d = make_domain(kind, 0.5)
    coarse, fine = build_mesh(d, n, 1.0), build_mesh(d, 2 * n, 1.0)
    assert refine_row(np.zeros(coarse.n_nodes), n + 1).shape == (fine.n_nodes,)

    def bilinear(points):  # a + b x + c y + d x y; the interval has only x
        x, y = points[:, 0], points[:, -1] if kind == "square" else 0.0
        return 0.3 - 1.7 * x + 2.1 * y + 0.9 * x * y

    assert np.allclose(refine_row(bilinear(coarse.points), n + 1), bilinear(fine.points),
                       rtol=0.0, atol=1e-14)
    # the oracle's weights come from coordinate differences, off 1/2 by
    # roundoff, so the bound is relative to the data's size
    u = np.random.default_rng(n).standard_normal(coarse.n_nodes)
    oracle = RegularGridInterpolator(coarse.axes, u.reshape(coarse.shape))(fine.points)
    assert np.max(np.abs(refine_row(u, n + 1) - oracle)) <= 1e-14 * np.max(np.abs(u))


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(8, 64),
       rung=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**32 - 1))
def test_extension_isometry_on_node_ladder(kind, n, rung, seed):
    # delta is a node j/n of the uniform full mesh below MAX_DELTA = 1/4
    full_mesh = build_mesh(make_domain(kind, 0.5), n, 1.0)
    j = 1 + int(rung * ((n - 1) // 4))
    tr_mesh = restrict_mesh(full_mesh, float(full_mesh.axes[-1][j]))
    u = random_admissible(tr_mesh, Lcg(seed))
    pairs = ((u, assemble(tr_mesh)), (extend_by_zero(u, tr_mesh, full_mesh), assemble(full_mesh)))
    for norm in (lambda v, o: tensor_form(v, o.x1[1], o.xn[1]),
                 lambda v, o: np.sum(o.lumped_full * v**2)):
        truncated, extended = (np.sqrt(norm(v, o)) for v, o in pairs)
        assert abs(extended - truncated) <= 1e-14 * truncated


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(5, 40),
       rung=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**32 - 1))
def test_slab_columns_match_meshgrid_oracle(kind, n, rung, seed):
    # delta_sweep refines a slab field into the last 2 n_slab - 1 x_N columns
    # of a zeroed block: the slab is the coarse mesh's last x_N layers and
    # vanishes on its bottom one.  delta is a node j/n below MAX_DELTA = 1/4,
    # so n starts at 5
    coarse = build_mesh(make_domain(kind, 0.5), n, 1.0)
    j = 1 + int(rung * ((n - 1) // 4))
    slab = restrict_mesh(coarse, float(coarse.axes[-1][j]))
    u, n_slab = random_admissible(slab, Lcg(seed)), slab.shape[-1]
    block = np.zeros((2 * (coarse.n_nodes // (n + 1)) - 1, 2 * n + 1))  # (x_1, x_N), refined
    block[:, 1 - 2 * n_slab:] = refine_row(u, n_slab).reshape(-1, 2 * n_slab - 1)
    extended = refine_row(extend_by_zero(u, slab, coarse), n + 1)
    assert np.array_equal(block.ravel(), extended)
