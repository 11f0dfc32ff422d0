import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.carleman import CarlemanWeights, check_inequality
from degenlab.discretize import assemble, build_mesh, edge_mass
from degenlab.errors import ContractError, ParameterError
from degenlab.evolution import (
    SpaceTimeField,
    TimeGrid,
    energy_history,
    flux_history,
    form_per_time,
    solve_implicit,
    solve_spectral,
    stability_ratio,
    time_reverse,
)
from degenlab.geometry import BoundaryPart, collar, make_domain, truncate
from degenlab.rng import Lcg, random_admissible
from degenlab.spectral import compute_spectrum

from oracles import heat_flux_integral, theta_scheme_lu

# frozen from the closed-form oracle: int_0^1 (pi cos(pi))^2 e^{-2 pi^2 t} dt
HEAT_FLUX_INTEGRAL = 0.499999998662356


@pytest.fixture(scope="module")
def setup():
    d = make_domain("interval", 0.5)
    ops = assemble(build_mesh(d, 256, 2.0))
    spec = compute_spectrum(ops, 8)
    return ops, spec


def test_time_grid_contract():
    g = TimeGrid(2.0, 10)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0 and g.dt == 0.2
    with pytest.raises(ParameterError):
        TimeGrid(1.0, 4)
    with pytest.raises(ParameterError):
        TimeGrid(-1.0, 16)


def test_spectral_mode_decay_exact(setup):
    ops, spec = setup
    grid = TimeGrid(1.0, 32)
    lam1 = spec.eigenvalues[0]
    field = solve_spectral(spec, spec.mode(1), None, grid)
    exact = np.exp(-lam1 * grid.nodes)[:, None] * spec.mode(1)[None, :]
    assert np.max(np.abs(field.values - exact)) <= 1e-10
    assert np.array_equal(field.values[0], field.y0)


def test_spectral_constant_load(setup):
    ops, spec = setup
    grid = TimeGrid(1.0, 64)
    lam1 = spec.eigenvalues[0]
    field = solve_spectral(spec, np.zeros(ops.mesh.n_nodes), spec.mode(1), grid)
    # mode-1 coefficient of the response to a constant unit load
    from degenlab.spectral import expand
    c1 = np.array([expand(spec, v)[0] for v in field.values])
    expect = (1.0 - np.exp(-lam1 * grid.nodes)) / lam1
    assert np.max(np.abs(c1 - expect)) <= 1e-12


def test_zero_data_zero_solution(setup):
    ops, spec = setup
    grid = TimeGrid(1.0, 16)
    z = np.zeros(ops.mesh.n_nodes)
    assert np.all(solve_spectral(spec, z, None, grid).values == 0.0)
    assert np.all(solve_implicit(ops, z, None, grid).values == 0.0)


def test_implicit_theta_range(setup):
    ops, _ = setup
    grid = TimeGrid(1.0, 16)
    with pytest.raises(ParameterError):
        solve_implicit(ops, np.zeros(ops.mesh.n_nodes), None, grid, theta=0.3)


@pytest.mark.parametrize("theta,lo,hi", [(1.0, 0.9, 1.1), (0.5, 1.8, 2.4)])
def test_implicit_convergence_order(setup, theta, lo, hi):
    # gap against the spectral solution over a 4-rung step-halving ladder;
    # the mode-1 datum keeps lambda*dt inside the asymptotic regime
    ops, spec = setup
    y0 = spec.mode(1)
    gaps = []
    for steps in (32, 64, 128, 256):
        grid = TimeGrid(1.0, steps)
        fs = solve_spectral(spec, y0, None, grid)
        fi = solve_implicit(ops, y0, None, grid, theta=theta)
        diff = fs.values - fi.values
        sup = np.max(np.sqrt(np.einsum("tn,tn->t", diff, (ops.M_full @ diff.T).T)))
        gaps.append(sup)
    orders = [np.log2(gaps[i] / gaps[i + 1]) for i in range(3)]
    assert lo <= np.mean(orders) <= hi, orders


def test_energy_history_closed_form(setup):
    ops, spec = setup
    grid = TimeGrid(1.0, 32)
    field = solve_spectral(spec, spec.mode(1), None, grid)
    e = energy_history(field, ops)
    assert np.allclose(e, np.exp(-spec.eigenvalues[0] * grid.nodes), atol=1e-12)
    zero = SpaceTimeField(ops.mesh, grid, np.zeros((33, ops.mesh.n_nodes)))
    assert np.all(energy_history(zero, ops) == 0.0)


def test_energy_monotone_all_solvers(setup):
    ops, spec = setup
    grid = TimeGrid(1.0, 32)
    rng = Lcg(21)
    for _ in range(5):
        y0 = random_admissible(ops.mesh, rng)
        for field in (solve_spectral(spec, y0, None, grid),
                      solve_implicit(ops, y0, None, grid, theta=1.0),
                      solve_implicit(ops, y0, None, grid, theta=0.5)):
            e = energy_history(field, ops)
            assert np.all(np.diff(e) <= 1e-12 * e[0])


def test_flux_history_classical_oracle():
    assert heat_flux_integral(1, 1.0) == pytest.approx(HEAT_FLUX_INTEGRAL, rel=1e-12)
    d = make_domain("interval", 1e-12)
    mesh = build_mesh(d, 256, 1.0)
    ops = assemble(mesh)
    spec = compute_spectrum(ops, 5)
    y0 = np.sin(np.pi * mesh.points[:, 0])
    y0[mesh.boundary] = 0.0
    grid = TimeGrid(1.0, 256)
    field = solve_spectral(spec, y0, None, grid)
    _, integral = flux_history(field, ops, BoundaryPart.OBSERVED)
    assert integral == pytest.approx(HEAT_FLUX_INTEGRAL, rel=2e-3)


def test_flux_history_zero_and_profile(setup):
    ops, spec = setup
    grid = TimeGrid(1.0, 32)
    zero = SpaceTimeField(ops.mesh, grid, np.zeros((33, ops.mesh.n_nodes)))
    flux, integral = flux_history(zero, ops, BoundaryPart.OBSERVED)
    assert integral == 0.0 and np.all(flux == 0.0)
    field = solve_spectral(spec, spec.mode(1), None, grid)
    flux, _ = flux_history(field, ops, BoundaryPart.OBSERVED)
    profile = flux[:, 0] / flux[0, 0]
    assert np.allclose(profile, np.exp(-spec.eigenvalues[0] * grid.nodes), rtol=1e-10)


def test_flux_fd_path_matches_mode_path(setup):
    # implicit fields have no mode data; their finite-difference flux
    # recovery must track the exact per-mode route
    ops, spec = setup
    grid = TimeGrid(1.0, 256)
    y0 = spec.mode(1)
    fs = solve_spectral(spec, y0, None, grid)
    fi = solve_implicit(ops, y0, None, grid, theta=0.5)
    _, int_s = flux_history(fs, ops, BoundaryPart.OBSERVED)
    _, int_i = flux_history(fi, ops, BoundaryPart.OBSERVED)
    assert int_i == pytest.approx(int_s, rel=2e-2)


@pytest.mark.xfail(strict=True, reason="flux_history uses the forward load proxy "
                   "-y_t + source for a time_reverse'd field, whose equation is "
                   "K y = M (y_t - source)")
@pytest.mark.parametrize("kind", ["interval", "square"])
def test_backward_flux_as_accurate_as_forward(kind):
    # the reversed field carries no mode data, so its flux is recovered
    # variationally; it must be as accurate as the same recovery forward
    mesh = build_mesh(truncate(make_domain(kind, 0.5), 0.2), 60)
    ops = assemble(mesh)
    spec = compute_spectrum(ops, 4)
    grid = TimeGrid(1.0, 128)
    fwd = solve_spectral(spec, spec.mode(1) + spec.mode(4), None, grid)
    exact, _ = flux_history(fwd, ops, BoundaryPart.OBSERVED)

    def error(field, reference):
        flux, _ = flux_history(field, ops, BoundaryPart.OBSERVED)
        return np.max(np.abs(flux - reference)) / np.max(np.abs(reference))

    forward = error(SpaceTimeField(mesh, grid, fwd.values), exact)
    backward = error(time_reverse(fwd), exact[::-1])
    assert backward <= 1.01 * forward


def test_apriori_bound_stable_under_refinement():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 64)
    rng = Lcg(33)
    coef = [rng.symmetric(6) for _ in range(50)]
    coef_f = [rng.symmetric(6) for _ in range(50)]

    def data(mesh, c):
        x = mesh.points[:, 0]
        out = sum(ck * np.sin((k + 1) * np.pi * x) for k, ck in enumerate(c))
        out[mesh.boundary] = 0.0
        return out

    worst = []
    for n in (128, 256):
        ops = assemble(build_mesh(d, n, 2.0))
        ratios = []
        for c, cf in zip(coef, coef_f):
            y0 = data(ops.mesh, c)
            f = data(ops.mesh, cf)
            field = solve_implicit(ops, y0, f, grid, theta=0.5)
            ratios.append(stability_ratio(field, ops))
        worst.append(max(ratios))
    drift = abs(worst[1] - worst[0]) / worst[0]
    assert drift <= 0.15, (worst, drift)


def test_smoothing_bounded_on_collar(setup):
    ops, spec = setup
    d = ops.mesh.domain
    grid = TimeGrid(1.0, 64)
    rng = Lcg(9)
    y0 = sum(rng.symmetric() * spec.mode(k) for k in range(1, 6))
    field = solve_spectral(spec, y0, None, grid)
    dydt = np.gradient(field.values, grid.dt, axis=0)
    near_top = collar(d, 0.2).contains(ops.mesh.points, tol=1e-12)
    lump = ops.lumped_full[near_top]
    norms_t = np.sqrt(dydt[:, near_top] ** 2 @ lump)
    assert np.all(np.isfinite(norms_t))
    assert np.trapezoid(norms_t**2, grid.nodes) < 1e6


def test_time_reverse_convention(setup):
    ops, spec = setup
    grid = TimeGrid(1.0, 32)
    field = solve_spectral(spec, spec.mode(1), None, grid)
    back = time_reverse(field)
    assert back.direction == "backward"
    assert back.source is None
    e = energy_history(back, ops)
    assert np.all(np.diff(e) >= -1e-12 * e[-1])
    assert np.array_equal(back.values[0], field.values[-1])


def test_field_shape_contract(setup):
    ops, _ = setup
    grid = TimeGrid(1.0, 16)
    with pytest.raises(ContractError):
        SpaceTimeField(ops.mesh, grid, np.zeros((5, ops.mesh.n_nodes)))
    f = SpaceTimeField(ops.mesh, grid, np.zeros((17, ops.mesh.n_nodes)),
                       source=np.zeros(3))
    with pytest.raises(ContractError):
        f.source_values()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 24),
       form=st.sampled_from(["M_full", "K_full", "edge_mass"]),
       rows=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_form_per_time_matches_one_shot_einsum(kind, n, form, rows, seed):
    mesh = build_mesh(make_domain(kind, 0.5), n)
    ops = assemble(mesh)
    A = (edge_mass(ops, BoundaryPart.OBSERVED) if form == "edge_mass"
         else getattr(ops, form))
    v = np.random.default_rng(seed).standard_normal((rows, A.shape[0]))
    one_shot = np.einsum("tn,tn->t", v, (A @ v.T).T)
    assert np.array_equal(form_per_time(A, v), one_shot)


@pytest.mark.parametrize("kind, n", [("interval", 64), ("square", 12)])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_absent_source_equals_zero_source(kind, n, theta):
    ops = assemble(build_mesh(truncate(make_domain(kind, 0.5), 0.1), n))
    grid = TimeGrid(1.0, 16)
    y0 = random_admissible(ops.mesh, Lcg(5))
    free, zero = (solve_implicit(ops, y0, f, grid, theta=theta)
                  for f in (None, np.zeros(ops.mesh.n_nodes)))
    assert free.source_values() is None
    assert np.array_equal(free.values, zero.values)
    (flux_a, int_a), (flux_b, int_b) = (flux_history(fl, ops, BoundaryPart.OBSERVED)
                                        for fl in (free, zero))
    assert np.array_equal(flux_a, flux_b) and int_a == int_b
    assert stability_ratio(free, ops) == stability_ratio(zero, ops)
    w = CarlemanWeights(alpha=0.5, T=1.0, s=3.0)
    assert (check_inequality(time_reverse(free), w, ops)
            == check_inequality(time_reverse(zero), w, ops))


def _theta_case(kind, n, grading, theta, source, seed, steps=16):
    """solve_implicit and the sparse-LU oracle on one problem: a slab when
    grading is None, else the full domain on a graded mesh."""
    d = make_domain(kind, 0.5)
    mesh = build_mesh(truncate(d, 0.2), n) if grading is None else build_mesh(d, n, grading)
    ops = assemble(mesh)
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal(mesh.n_nodes)
    y0[mesh.boundary] = 0.0
    f = {"none": None, "nodal": rng.standard_normal(mesh.n_nodes),
         "per-time": rng.standard_normal((steps + 1, mesh.n_nodes))}[source]
    grid = TimeGrid(1.0, steps)
    return (solve_implicit(ops, y0, f, grid, theta=theta).values,
            theta_scheme_lu(ops, y0, f, grid, theta))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 32),
       grading=st.one_of(st.none(), st.floats(1.0, 4.0)), theta=st.floats(0.5, 1.0),
       source=st.sampled_from(["none", "nodal", "per-time"]),
       seed=st.integers(0, 2**32 - 1))
def test_implicit_matches_lu_oracle(kind, n, grading, theta, source, seed):
    # the interval is one x_1 mode with eigenvalue 0: the LU scheme to the bit
    values, oracle = _theta_case(kind, n, grading, theta, source, seed)
    if kind == "interval":
        assert np.array_equal(values, oracle)
    else:
        assert np.max(np.abs(values - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_implicit_graded_xn_is_direct():
    # x_N is solved directly, not in a weighted eigenbasis, which loses
    # accuracy on strongly graded meshes
    values, oracle = _theta_case("interval", 1024, 4.0, 0.5, "none", 1, steps=128)
    assert np.array_equal(values, oracle)


@pytest.fixture(scope="module", params=["interval", "square"])
def slab(request):
    mesh = build_mesh(truncate(make_domain(request.param, 0.5), 0.2),
                      64 if request.param == "interval" else 16)
    ops = assemble(mesh)
    return ops, compute_spectrum(ops, 6)


def _coefficient_field(ops, spec, with_source):
    rng = Lcg(3)
    y0 = random_admissible(ops.mesh, rng)
    f = random_admissible(ops.mesh, rng) if with_source else None
    return solve_spectral(spec, y0, f, TimeGrid(1.0, 32))


@pytest.mark.parametrize("with_source", [False, True])
def test_coefficient_energy_matches_nodal_form(slab, with_source):
    ops, spec = slab
    field = _coefficient_field(ops, spec, with_source)
    for f in (field, time_reverse(field)):
        nodal = SpaceTimeField(f.mesh, f.grid, f.values, source=f.source,
                               direction=f.direction)
        e_coef, e_nodal = energy_history(f, ops), energy_history(nodal, ops)
        assert np.max(np.abs(e_coef - e_nodal)) <= 1e-13 * np.max(e_nodal)


@pytest.mark.parametrize("with_source", [False, True])
def test_coefficient_time_reverse_is_reversed_values(slab, with_source):
    ops, spec = slab
    field = _coefficient_field(ops, spec, with_source)
    back = time_reverse(field)
    assert back.direction == "backward"
    assert np.array_equal(back.values, field.values[::-1])


@pytest.mark.parametrize("with_source", [False, True])
def test_reversed_coefficient_flux_is_nodal_recovery(slab, with_source):
    # backward coefficient fields keep the variational recovery of their values
    ops, spec = slab
    back = time_reverse(_coefficient_field(ops, spec, with_source))
    nodal = SpaceTimeField(back.mesh, back.grid, back.values.copy(), source=back.source,
                           direction="backward")
    (flux_c, int_c), (flux_n, int_n) = (flux_history(f, ops, BoundaryPart.OBSERVED)
                                        for f in (back, nodal))
    assert np.array_equal(flux_c, flux_n) and int_c == int_n
