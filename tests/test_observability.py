import tracemalloc

import numpy as np
import pytest

from degenlab.discretize import assemble, build_mesh
from degenlab.errors import DegenerateObservationError, ParameterError
from degenlab.evolution import SpaceTimeField, TimeGrid, solve_spectral, time_reverse
from degenlab.geometry import make_domain, truncate
from degenlab.observability import _flux_gram, estimate_constant, observability_ratio
from degenlab.rng import Lcg, random_admissible
from degenlab.spectral import compute_spectrum

from oracles import c_obs_interval, heat_observability_ratio
from test_acceptance import window_bound_check


@pytest.fixture(scope="module")
def classical():
    d = make_domain("interval", 1e-12)
    ops = assemble(build_mesh(d, 512, 1.0))
    return ops, compute_spectrum(ops, 5)


@pytest.fixture(scope="module")
def degenerate():
    d = make_domain("interval", 0.5)
    ops = assemble(build_mesh(d, 512, 2.0))
    return ops, compute_spectrum(ops, 10)


def test_classical_single_mode_ratios(classical):
    ops, spec = classical
    grid = TimeGrid(1.0, 128)
    for mode in range(1, 6):
        y0 = spec.mode(mode)
        ratio = observability_ratio(y0, grid, spec)
        oracle = heat_observability_ratio(mode, 1.0)
        assert ratio == pytest.approx(oracle, rel=1e-3)


def test_degenerate_mode_ratio_closed_form(degenerate):
    # separated solution: ratio = 1 / [flux(1)^2 (1 - e^{-2 lam T})/(2 lam)]
    # with the flux trace taken from the Bessel oracle
    from oracles import degenerate_eigenfunction

    ops, spec = degenerate
    _, lam_oracle, du1 = degenerate_eigenfunction(0.5, 1)
    T = 1.0
    grid = TimeGrid(T, 64)
    ratio = observability_ratio(spec.mode(1), grid, spec)
    oracle = 1.0 / (du1**2 * (1.0 - np.exp(-2.0 * lam_oracle * T)) / (2.0 * lam_oracle))
    assert ratio == pytest.approx(oracle, rel=2e-2)


def test_square_orthogonal_fluxes_block_gram():
    # top-edge fluxes of modes with different tangential frequency are
    # edge-orthogonal, so the restricted Gram is diagonal and the
    # subspace constant is the larger single-mode ratio
    import scipy.linalg as la
    from degenlab.observability import _flux_gram

    d = make_domain("square", 0.5)
    ops = assemble(build_mesh(d, 32, 2.0))
    spec = compute_spectrum(ops, 3)
    grid = TimeGrid(0.2, 32)
    gram = _flux_gram(spec, grid, 3)
    # modes 1 and 3 here are (m=1, j=1) and (m=2, j=1): lam = m^2 pi^2 + mu_1
    lam = spec.eigenvalues
    assert lam[2] == pytest.approx(lam[0] + 3.0 * np.pi**2, rel=2e-2)
    sub = gram[np.ix_([0, 2], [0, 2])]
    assert abs(sub[0, 1]) <= 1e-10 * np.sqrt(sub[0, 0] * sub[1, 1])
    c_sub = 1.0 / la.eigh(sub, eigvals_only=True)[0]
    assert c_sub == pytest.approx(max(1.0 / sub[0, 0], 1.0 / sub[1, 1]), rel=1e-9)


def test_ratio_scale_invariance(degenerate):
    ops, spec = degenerate
    grid = TimeGrid(1.0, 64)
    y0 = spec.mode(1) + 0.2 * spec.mode(3)
    r1 = observability_ratio(y0, grid, spec)
    r2 = observability_ratio(2.0 * y0, grid, spec)  # power of two: exact
    assert r1 == r2
    r3 = observability_ratio(-3.0 * y0, grid, spec)
    assert r3 == pytest.approx(r1, rel=1e-12)


def test_ratio_errors(degenerate):
    ops, spec = degenerate
    grid = TimeGrid(1.0, 64)
    with pytest.raises(ParameterError):
        observability_ratio(np.zeros(ops.mesh.n_nodes), grid, spec)
    tiny = 1e-155 * spec.mode(1)
    with pytest.raises(DegenerateObservationError):
        observability_ratio(tiny, grid, spec)


def test_constant_nondecreasing_in_subspace(degenerate):
    ops, spec = degenerate
    grid = TimeGrid(0.05, 64)
    values = [estimate_constant(grid, spec, k).c_obs for k in (1, 3, 5)]
    assert values[0] <= values[1] <= values[2]


def test_constant_k1_matches_single_ratio(degenerate):
    ops, spec = degenerate
    grid = TimeGrid(0.5, 64)
    rep = estimate_constant(grid, spec, 1)
    single = observability_ratio(spec.mode(1), grid, spec)
    assert rep.c_obs == pytest.approx(single, rel=1e-12)
    assert rep.c_obs >= max(rep.ratios) * (1.0 - 1e-12)


def test_depth_limit_enforced(degenerate):
    ops, spec = degenerate
    # at T = 1 only the shallow modes satisfy lambda_k * T <= 60
    rep = estimate_constant(TimeGrid(1.0, 64), spec, 10)
    lam = spec.eigenvalues
    assert rep.subspace_dim == int(np.searchsorted(lam * 1.0, 60.0, side="right"))
    with pytest.raises(ParameterError):
        estimate_constant(TimeGrid(20.0, 64), spec, 1)


def test_tiny_horizon_refused(degenerate):
    # with 2 lambda_3 T below machine epsilon every time factor of the Gram
    # rounds to T, and the interval's Gram T f f' has rank one
    ops, spec = degenerate
    eps = np.finfo(float).eps
    tiny = 0.4 * eps / spec.eigenvalues[2]
    assert np.linalg.matrix_rank(_flux_gram(spec, TimeGrid(tiny, 8), 3)) == 1
    for T in (1e-300, tiny):
        with pytest.raises(ParameterError, match="below machine epsilon"):
            estimate_constant(TimeGrid(T, 8), spec, 3)
    # above epsilon, or with one mode and no second kernel, the Gram is built
    assert estimate_constant(TimeGrid(2.5 * tiny, 8), spec, 3).subspace_dim == 3
    assert estimate_constant(TimeGrid(1e-300, 8), spec, 1).c_obs > 0.0


def test_refinement_drift(degenerate):
    d = make_domain("interval", 0.5)
    grid = TimeGrid(0.05, 64)
    vals = []
    for n in (256, 512):
        ops = assemble(build_mesh(d, n, 2.0))
        spec = compute_spectrum(ops, 5)
        vals.append(estimate_constant(grid, spec, 5).c_obs)
    assert abs(vals[1] - vals[0]) / vals[0] <= 0.25


def test_window_bound_backward_runs(degenerate):
    ops, spec = degenerate
    grid = TimeGrid(1.0, 64)
    rng = Lcg(17)
    for _ in range(5):
        y0 = random_admissible(ops.mesh, rng)
        back = time_reverse(solve_spectral(spec, y0, grid))
        res = window_bound_check(back)
        assert res["holds"]
        assert res["lhs"] <= res["rhs"] * (1.0 + 1e-8)


def test_window_bound_constant_field(degenerate):
    ops, spec = degenerate
    grid = TimeGrid(1.0, 64)
    vals = np.broadcast_to(spec.mode(1), (65, ops.mesh.n_nodes)).copy()
    field = SpaceTimeField(ops, grid, vals)
    res = window_bound_check(field)
    assert res["lhs"] == pytest.approx(res["rhs"], rel=1e-12)
    assert res["holds"]


def test_window_bound_zero_field(degenerate):
    ops, _ = degenerate
    grid = TimeGrid(1.0, 16)
    field = SpaceTimeField(ops, grid, np.zeros((17, ops.mesh.n_nodes)))
    res = window_bound_check(field)
    assert res["lhs"] == 0.0 and res["holds"]


def test_window_bound_rejects_forward_fields(degenerate):
    _, spec = degenerate
    grid = TimeGrid(1.0, 64)
    forward = solve_spectral(spec, spec.mode(1), grid)
    with pytest.raises(ValueError, match="backward-convention"):
        window_bound_check(forward)


def test_window_bound_builds_no_nodal_field():
    # the backward spectral field stays in coefficient space through the check
    ops = assemble(build_mesh(make_domain("square", 0.5), 120, 2.0))
    spec = compute_spectrum(ops, 10)
    grid = TimeGrid(1.0, 128)
    y0 = random_admissible(ops.mesh, Lcg(4))
    tracemalloc.start()
    try:
        res = window_bound_check(time_reverse(solve_spectral(spec, y0, grid)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res["holds"]
    assert peak < (grid.steps + 1) * ops.mesh.n_nodes * 8


def test_window_bound_rejects_forward_fields_square():
    # the interval case is test_window_bound_rejects_forward_fields
    ops = assemble(build_mesh(truncate(make_domain("square", 0.5), 0.2), 16))
    spec = compute_spectrum(ops, 6)
    forward = solve_spectral(spec, random_admissible(ops.mesh, Lcg(8)), TimeGrid(1.0, 32))
    with pytest.raises(ValueError, match="backward-convention"):
        window_bound_check(forward)


def test_c_obs_interval_oracle_values():
    # K=15 at T=0.048: the Gram's condition number is about 4e15
    assert c_obs_interval(0.5, 0.048, 15) == pytest.approx(4.4564696e14, rel=1e-7)
    assert c_obs_interval(0.5, 0.5, 3) == pytest.approx(36.85154808, rel=1e-9)


def test_interval_c_obs_converges_at_second_order():
    # grading 4 at alpha 0.5: errors -3.26e-3, -8.18e-4, -2.05e-4 at n=120, 240, 480
    exact = c_obs_interval(0.5, 0.5, 3)
    errors = []
    for n in (120, 240, 480):
        spec = compute_spectrum(assemble(build_mesh(make_domain("interval", 0.5), n, 4.0)), 3)
        errors.append(abs(estimate_constant(TimeGrid(0.5, 8), spec, 3).c_obs - exact))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= 1.8), orders
