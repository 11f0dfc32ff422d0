import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.discretize import assemble, build_mesh
from degenlab.errors import ContractError, ParameterError
from degenlab.evolution import (
    SpaceTimeField,
    TimeGrid,
    energy_history,
    flux_history,
    solve_implicit,
    solve_spectral,
    theta_rows,
    time_reverse,
)
from degenlab.geometry import make_domain, truncate
from degenlab.rng import Lcg, random_admissible
from degenlab.spectral import compute_spectrum

from oracles import heat_flux_integral, theta_rows_kron, theta_scheme_lu
from test_acceptance import stability_ratio

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
    field = solve_spectral(spec, spec.mode(1), grid)
    exact = np.exp(-lam1 * grid.nodes)[:, None] * spec.mode(1)[None, :]
    assert np.max(np.abs(field.values - exact)) <= 1e-10


def test_zero_data_zero_solution(setup):
    ops, spec = setup
    grid = TimeGrid(1.0, 16)
    z = np.zeros(ops.mesh.n_nodes)
    assert np.all(solve_spectral(spec, z, grid).values == 0.0)
    assert np.all(solve_implicit(ops, z, grid).values == 0.0)


def test_implicit_theta_range(setup):
    ops, _ = setup
    grid = TimeGrid(1.0, 16)
    with pytest.raises(ParameterError):
        solve_implicit(ops, np.zeros(ops.mesh.n_nodes), grid, theta=0.3)


@pytest.mark.parametrize("theta,lo,hi", [(1.0, 0.9, 1.1), (0.5, 1.8, 2.4)])
def test_implicit_convergence_order(setup, theta, lo, hi):
    # gap against the spectral solution over a 4-rung step-halving ladder;
    # the mode-1 datum keeps lambda*dt inside the asymptotic regime
    ops, spec = setup
    y0 = spec.mode(1)
    gaps = []
    for steps in (32, 64, 128, 256):
        grid = TimeGrid(1.0, steps)
        fs = solve_spectral(spec, y0, grid)
        fi = solve_implicit(ops, y0, grid, theta=theta)
        diff = fs.values - fi.values
        sup = np.max(np.sqrt(np.einsum("tn,tn->t", diff, (ops.M_full @ diff.T).T)))
        gaps.append(sup)
    orders = [np.log2(gaps[i] / gaps[i + 1]) for i in range(3)]
    assert lo <= np.mean(orders) <= hi, orders


def test_energy_history_closed_form(setup):
    ops, spec = setup
    grid = TimeGrid(1.0, 32)
    field = solve_spectral(spec, spec.mode(1), grid)
    e = energy_history(field)
    assert np.allclose(e, np.exp(-spec.eigenvalues[0] * grid.nodes), atol=1e-12)
    zero = SpaceTimeField(ops, grid, np.zeros((33, ops.mesh.n_nodes)))
    assert np.all(energy_history(zero) == 0.0)


def test_energy_monotone_all_solvers(setup):
    ops, spec = setup
    grid = TimeGrid(1.0, 32)
    rng = Lcg(21)
    for _ in range(5):
        y0 = random_admissible(ops.mesh, rng)
        for field in (solve_spectral(spec, y0, grid),
                      solve_implicit(ops, y0, grid, theta=1.0),
                      solve_implicit(ops, y0, grid, theta=0.5)):
            e = energy_history(field)
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
    field = solve_spectral(spec, y0, grid)
    _, integral = flux_history(field)
    assert integral == pytest.approx(HEAT_FLUX_INTEGRAL, rel=2e-3)


def test_flux_history_zero_and_profile(setup):
    ops, spec = setup
    grid = TimeGrid(1.0, 32)
    zero = SpaceTimeField(ops, grid, np.zeros((33, ops.mesh.n_nodes)))
    flux, integral = flux_history(zero)
    assert integral == 0.0 and np.all(flux == 0.0)
    field = solve_spectral(spec, spec.mode(1), grid)
    flux, _ = flux_history(field)
    profile = flux[:, 0] / flux[0, 0]
    assert np.allclose(profile, np.exp(-spec.eigenvalues[0] * grid.nodes), rtol=1e-10)


def test_flux_fd_path_matches_mode_path(setup):
    # implicit fields have no mode data; their finite-difference flux
    # recovery must track the exact per-mode route
    ops, spec = setup
    grid = TimeGrid(1.0, 256)
    y0 = spec.mode(1)
    fs = solve_spectral(spec, y0, grid)
    fi = solve_implicit(ops, y0, grid, theta=0.5)
    _, int_s = flux_history(fs)
    _, int_i = flux_history(fi)
    assert int_i == pytest.approx(int_s, rel=2e-2)


@pytest.mark.xfail(strict=True, reason="flux_history uses the forward load proxy "
                   "-y_t for a time_reverse'd field, whose equation is K y = M y_t")
@pytest.mark.parametrize("kind", ["interval", "square"])
def test_backward_flux_as_accurate_as_forward(kind):
    # the reversed field carries no mode data, so its flux is recovered
    # variationally; it must be as accurate as the same recovery forward
    mesh = build_mesh(truncate(make_domain(kind, 0.5), 0.2), 60)
    ops = assemble(mesh)
    spec = compute_spectrum(ops, 4)
    grid = TimeGrid(1.0, 128)
    fwd = solve_spectral(spec, spec.mode(1) + spec.mode(4), grid)
    exact, _ = flux_history(fwd)

    def error(field, reference):
        flux, _ = flux_history(field)
        return np.max(np.abs(flux - reference)) / np.max(np.abs(reference))

    forward = error(SpaceTimeField(ops, grid, fwd.values), exact)
    backward = error(time_reverse(fwd), exact[::-1])
    assert backward <= 1.01 * forward


def test_apriori_bound_stable_under_refinement():
    d = make_domain("interval", 0.5)
    grid = TimeGrid(1.0, 64)
    rng = Lcg(33)
    coef = [rng.symmetric(6) for _ in range(50)]

    def data(mesh, c):
        x = mesh.points[:, 0]
        out = sum(ck * np.sin((k + 1) * np.pi * x) for k, ck in enumerate(c))
        out[mesh.boundary] = 0.0
        return out

    worst = []
    for n in (128, 256):
        ops = assemble(build_mesh(d, n, 2.0))
        ratios = []
        for c in coef:
            field = solve_implicit(ops, data(ops.mesh, c), grid, theta=0.5)
            ratios.append(stability_ratio(field))
        worst.append(max(ratios))
    drift = abs(worst[1] - worst[0]) / worst[0]
    assert drift <= 0.15, (worst, drift)


def test_smoothing_bounded_on_collar(setup):
    ops, spec = setup
    grid = TimeGrid(1.0, 64)
    rng = Lcg(9)
    y0 = sum(rng.symmetric(1)[0] * spec.mode(k) for k in range(1, 6))
    field = solve_spectral(spec, y0, grid)
    dydt = np.gradient(field.values, grid.dt, axis=0)
    near_top = ops.mesh.points[:, -1] > 0.8 - 1e-12  # within 0.2 of the observed edge
    lump = ops.lumped_full[near_top]
    norms_t = np.sqrt(dydt[:, near_top] ** 2 @ lump)
    assert np.all(np.isfinite(norms_t))
    assert np.trapezoid(norms_t**2, grid.nodes) < 1e6


def test_time_reverse_convention(setup):
    _, spec = setup
    grid = TimeGrid(1.0, 32)
    field = solve_spectral(spec, spec.mode(1), grid)
    back = time_reverse(field)
    assert back.direction == "backward"
    e = energy_history(back)
    assert np.all(np.diff(e) >= -1e-12 * e[-1])
    assert np.array_equal(back.values[0], field.values[-1])


def test_field_shape_contract(setup):
    ops, _ = setup
    grid = TimeGrid(1.0, 16)
    with pytest.raises(ContractError):
        SpaceTimeField(ops, grid, np.zeros((5, ops.mesh.n_nodes)))


def test_coefficient_field_lives_on_its_spectrum_operators(setup):
    # a spectrum of another operator pair with the same node count would
    # give other energies and fluxes, so the field refuses it
    ops, spec = setup
    grid = TimeGrid(1.0, 16)
    coeffs = np.zeros((17, spec.count))
    field = SpaceTimeField(ops, grid, None, mode_data=(spec, coeffs))
    assert field.ops is ops and field.mesh is ops.mesh
    uniform = assemble(build_mesh(ops.mesh.domain, 256, 1.0))
    with pytest.raises(ContractError):
        SpaceTimeField(uniform, grid, None, mode_data=(spec, coeffs))


def _theta_problem(kind, n, grading, seed, steps=16):
    """(ops, y0, grid) of one theta-scheme problem: a slab when grading is
    None, else the full domain on a graded mesh."""
    d = make_domain(kind, 0.5)
    mesh = build_mesh(truncate(d, 0.2), n) if grading is None else build_mesh(d, n, grading)
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal(mesh.n_nodes)
    y0[mesh.boundary] = 0.0
    return assemble(mesh), y0, TimeGrid(1.0, steps)


def _theta_case(kind, n, grading, theta, seed, steps=16):
    """solve_implicit and the sparse-LU oracle on one problem."""
    ops, y0, grid = _theta_problem(kind, n, grading, seed, steps)
    return (solve_implicit(ops, y0, grid, theta=theta).values,
            theta_scheme_lu(ops, y0, grid, theta))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 32),
       grading=st.one_of(st.none(), st.floats(1.0, 4.0)), theta=st.floats(0.5, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_implicit_matches_lu_oracle(kind, n, grading, theta, seed):
    values, oracle = _theta_case(kind, n, grading, theta, seed)
    assert np.max(np.abs(values - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 32),
       grading=st.one_of(st.none(), st.floats(1.0, 4.0)), theta=st.floats(0.5, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_theta_rows_satisfy_their_step_equation(kind, n, grading, theta, seed):
    # M (y+ - y) + dt K (theta y+ + (1-theta) y) = 0 on the interior, with
    # ops.M and ops.K applied as assembled, no solver involved
    ops, y0, grid = _theta_problem(kind, n, grading, seed)
    ii, dt = ops.interior, grid.dt
    y = np.stack(list(theta_rows(ops, y0, grid, theta)))[:, ii].T
    terms = (ops.M @ y[:, 1:], -(ops.M @ y[:, :-1]),
             dt * (ops.K @ (theta * y[:, 1:] + (1.0 - theta) * y[:, :-1])))
    scale = max(np.max(np.abs(t)) for t in terms)
    assert np.max(np.abs(sum(terms))) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 24),
       grading=st.one_of(st.none(), st.floats(1.0, 4.0)), theta=st.floats(0.5, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_theta_rows_stack_to_solve_implicit(kind, n, grading, theta, seed):
    ops, y0, grid = _theta_problem(kind, n, grading, seed)
    rows = list(theta_rows(ops, y0, grid, theta))
    # every row is a new array, so a consumer may keep the rows it is given
    assert len({id(row) for row in rows}) == len(rows) == grid.steps + 1
    assert np.array_equal(np.stack(rows), solve_implicit(ops, y0, grid, theta=theta).values)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 40),
       grading=st.one_of(st.none(), st.floats(1.0, 4.0)), theta=st.floats(0.5, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_theta_rows_match_the_kronecker_step_bit_for_bit(kind, n, grading, theta, seed):
    # the step on the diagonals of M + c K sums each row of the right side
    # in the order of the sparse product, so no bit moves
    ops, y0, grid = _theta_problem(kind, n, grading, seed)
    for row, kron_row in zip(theta_rows(ops, y0, grid, theta),
                             theta_rows_kron(ops, y0, grid, theta), strict=True):
        assert np.array_equal(row, kron_row)


def test_theta_rows_share_one_x1_eigendecomposition(monkeypatch):
    calls = []
    eigh = scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh", lambda *a, **kw: calls.append(1) or eigh(*a, **kw))
    ops, y0, grid = _theta_problem("square", 8, None, 1)
    first, second = (np.stack(list(theta_rows(ops, y0, grid))) for _ in range(2))
    assert len(calls) == 1
    assert np.array_equal(first, second)


def test_implicit_graded_xn_is_direct():
    # x_N is solved directly, not in a weighted eigenbasis, which loses
    # accuracy on strongly graded meshes
    values, oracle = _theta_case("interval", 1024, 4.0, 0.5, 1, steps=128)
    assert np.max(np.abs(values - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.fixture(scope="module", params=["interval", "square"])
def slab(request):
    mesh = build_mesh(truncate(make_domain(request.param, 0.5), 0.2),
                      64 if request.param == "interval" else 16)
    ops = assemble(mesh)
    return ops, compute_spectrum(ops, 6)


def _coefficient_field(ops, spec):
    return solve_spectral(spec, random_admissible(ops.mesh, Lcg(3)), TimeGrid(1.0, 32))


def test_coefficient_energy_matches_nodal_form(slab):
    ops, spec = slab
    field = _coefficient_field(ops, spec)
    for f in (field, time_reverse(field)):
        nodal = SpaceTimeField(f.ops, f.grid, f.values, direction=f.direction)
        e_coef, e_nodal = energy_history(f), energy_history(nodal)
        assert np.max(np.abs(e_coef - e_nodal)) <= 1e-13 * np.max(e_nodal)


def test_coefficient_time_reverse_is_reversed_values(slab):
    ops, spec = slab
    field = _coefficient_field(ops, spec)
    back = time_reverse(field)
    assert back.direction == "backward"
    assert np.array_equal(back.values, field.values[::-1])


def test_reversed_coefficient_flux_is_nodal_recovery(slab):
    # backward coefficient fields keep the variational recovery of their
    # values, read at the stencil columns only
    ops, spec = slab
    back = time_reverse(_coefficient_field(ops, spec))
    nodal = SpaceTimeField(back.ops, back.grid, back.rows(slice(None)), direction="backward")
    (flux_c, int_c), (flux_n, int_n) = (flux_history(f)
                                        for f in (back, nodal))
    assert back._values is None
    assert np.array_equal(flux_c, flux_n) and int_c == int_n


def test_coefficient_field_reads_do_not_depend_on_earlier_reads():
    # every read builds from the coefficients and nothing is stored, so a
    # full `values` read leaves the bits of later row and column reads as
    # they were; on the square slab a row read from a stored `values` product
    # differs from the row built alone by up to 2.8e-17
    ops = assemble(build_mesh(truncate(make_domain("square", 0.5), 0.2), 16))
    field = time_reverse(_coefficient_field(ops, compute_spectrum(ops, 6)))
    steps, cols = field.grid.steps, ops.flux_rows[0]
    rows, columns = [field.rows(j) for j in range(steps + 1)], field.columns(cols)
    assert np.array_equal(field.values, field.rows(slice(None)))
    assert all(np.array_equal(field.rows(j), rows[j]) for j in range(steps + 1))
    assert np.array_equal(field.columns(cols), columns)
    assert field._values is None
