import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from degenlab import carleman
from degenlab.carleman import CarlemanWeights, FieldData, find_s0
from degenlab.discretize import assemble, build_mesh
from degenlab.errors import ContractError, ParameterError
from degenlab.evolution import SpaceTimeField, TimeGrid, solve_spectral, time_reverse
from degenlab.geometry import make_domain, truncate
from degenlab.spectral import Spectrum, compute_spectrum

from oracles import (carleman_budget_linear, carleman_budget_mp, carleman_budget_per_node,
                     fit_tail_exponent, lse_exp_all, lse_longdouble, p_residual, theta_dt)


@pytest.fixture(scope="module")
def slab():
    d = make_domain("interval", 0.5)
    mesh = build_mesh(truncate(d, 0.1), 128)
    ops = assemble(mesh)
    spec = compute_spectrum(ops, 6)
    return ops, spec


def backward_mode_field(spec, k, grid):
    return time_reverse(solve_spectral(spec, spec.mode(k), grid))


def coefficient_field(ops, grid, values):
    """A backward coefficient field carrying the nodal ``values`` (zero on
    the boundary): the time rows, each scaled to max |entry| 1, are the
    modes and the scales the diagonal coefficients.  Backward, its flux
    takes the variational recovery of a nodal field."""
    scale = np.abs(values).max(axis=1)
    scale[scale == 0.0] = 1.0
    spec = Spectrum(ops, np.ones(len(values)), (values / scale[:, None])[:, ops.interior].T)
    return SpaceTimeField(ops, grid, None, direction="backward",
                          mode_data=(spec, np.diag(scale)))


def test_weight_values():
    w = CarlemanWeights(alpha=0.5, T=1.0)
    assert w.gamma == 2.0
    # -d_N xi / Theta at the degenerate edge x_N = 0, at Theta(T/2) = 256
    assert w.eta_slope(np.array([0.0]), 256.0)[0] == 0.0
    with pytest.raises(ParameterError):
        CarlemanWeights(alpha=0.5, T=0.0)


def test_weight_symmetry_and_minimum():
    def theta(w, t):
        return np.exp(w.log_theta(t))

    for T in (1.0, 2.0):
        w = CarlemanWeights(alpha=0.5, T=T)
        t = np.linspace(0.1, T - 0.1, 33)
        assert np.allclose(theta(w, t), theta(w, T - t), rtol=1e-12)
        assert theta(w, T / 2.0) == pytest.approx(256.0 / T**8, rel=1e-14)
    # doubling the horizon rescales the midpoint weight by 2**8
    w1 = CarlemanWeights(alpha=0.5, T=1.0)
    w2 = CarlemanWeights(alpha=0.5, T=2.0)
    assert theta(w1, 0.5) / theta(w2, 1.0) == pytest.approx(2.0**8, rel=1e-14)


def test_weight_growth_exponents():
    w = CarlemanWeights(alpha=0.5, T=1.0)
    t = np.linspace(1e-3, 1.0 - 1e-3, 4001)
    theta = np.exp(w.log_theta(t))
    p1 = fit_tail_exponent(theta, theta_dt(w.T, t))
    assert p1 <= 5.0 / 4.0 + 0.05
    # and it is a genuine growth rate, not an over-damped fit
    assert p1 >= 1.1


def test_residual_transform_vanishes_at_endpoints(slab):
    # z = exp(-s xi) y is 0 at t = 0 and t = T whatever y is there: a field
    # that lives only on those two time rows has z = 0 and residual 0
    ops, spec = slab
    grid = TimeGrid(1.0, 16)
    zero = np.zeros((17, ops.mesh.n_nodes))
    ends = zero.copy()
    ends[[0, -1]] = spec.mode(1)
    assert p_residual(SpaceTimeField(ops, grid, ends), zero, 2.0) == 0.0
    field = backward_mode_field(spec, 1, grid)
    for s in (0.0, -1.0):
        with pytest.raises(ParameterError):
            p_residual(field, zero, s)


def test_residual_needs_truncated_domain():
    d = make_domain("interval", 0.5)
    ops = assemble(build_mesh(d, 16))
    grid = TimeGrid(1.0, 8)
    zero = np.zeros((9, ops.mesh.n_nodes))
    with pytest.raises(ContractError):
        p_residual(SpaceTimeField(ops, grid, zero), zero, 1.0)


def _manufactured(alpha, delta, T, n, steps):
    d = make_domain("interval", alpha)
    grid = TimeGrid(T=T, steps=steps)
    mesh = build_mesh(truncate(d, delta), n)
    ops = assemble(mesh)
    x = mesh.points[:, 0]
    t = grid.nodes
    k = np.pi / (1.0 - delta)
    phi = np.sin(k * (x - delta))
    dphi = k * np.cos(k * (x - delta))
    ddphi = -(k**2) * np.sin(k * (x - delta))
    g = 1.0 + t * (T - t) / T**2
    gp = (T - 2.0 * t) / T**2
    y = g[:, None] * phi[None, :]
    # source of the backward equation: f = y_t + (x**a y_x)_x
    f = gp[:, None] * phi[None, :] \
        + g[:, None] * (alpha * x ** (alpha - 1.0) * dphi + x**alpha * ddphi)[None, :]
    return SpaceTimeField(ops, grid, y), f


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_residual_identity_refinement_order(s):
    # run where the weight scale Theta_min = 256/T^8 is O(0.1), so the
    # transformed variable is resolvable on desk meshes
    T = 2.5
    res = []
    for n, steps in [(32, 32), (64, 64), (128, 128)]:
        field, f = _manufactured(0.5, 0.1, T, n, steps)
        res.append(p_residual(field, f, s))
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    assert all(o >= 1.0 for o in orders), (res, orders)


def test_residual_zero_field(slab):
    ops, _ = slab
    grid = TimeGrid(1.0, 16)
    zero = SpaceTimeField(ops, grid, np.zeros((17, ops.mesh.n_nodes)))
    assert p_residual(zero, np.zeros((17, ops.mesh.n_nodes)), 1.0) == 0.0


def test_field_data_refuses_a_nodal_field(slab):
    ops, spec = slab
    grid = TimeGrid(1.0, 16)
    nodal = SpaceTimeField(ops, grid, backward_mode_field(spec, 1, grid).values,
                           direction="backward")
    with pytest.raises(ContractError, match="coefficient field"):
        FieldData(nodal)


def test_budget_zero_field(slab):
    ops, _ = slab
    grid = TimeGrid(1.0, 16)
    zero = coefficient_field(ops, grid, np.zeros((17, ops.mesh.n_nodes)))
    # a zero lhs needs no constant, even against a zero boundary term
    assert FieldData(zero).sweep([1.0], "eq410").tolist() == [-np.inf]
    with pytest.raises(ParameterError):
        FieldData(zero).sweep([0.0], "eq410")


def test_budget_deterministic(slab):
    _, spec = slab
    grid = TimeGrid(1.0, 64)
    field = backward_mode_field(spec, 1, grid)
    [b1] = FieldData(field).sweep([3.0], "eq410")
    [b2] = FieldData(field).sweep([3.0], "eq410")
    assert b1 == b2


def test_budget_time_symmetry(slab):
    # a time-symmetric field needs a constant invariant under t -> T - t
    ops, spec = slab
    grid = TimeGrid(1.0, 64)
    t = grid.nodes
    prof = 1.0 + 4.0 * t * (1.0 - t)
    phi = spec.mode(1)
    vals = prof[:, None] * phi[None, :]
    field = coefficient_field(ops, grid, vals)
    flipped = coefficient_field(ops, grid, vals[::-1].copy())
    [b1] = FieldData(field).sweep([2.0], "eq410")
    [b2] = FieldData(flipped).sweep([2.0], "eq410")
    assert b1 == pytest.approx(b2, abs=1e-10)


def test_budget_endpoint_slabs_negligible(slab):
    # zeroing the field on the first and last interior time levels leaves
    # the needed constant unchanged to far below 1e-12 relative
    ops, spec = slab
    grid = TimeGrid(1.0, 64)
    field = backward_mode_field(spec, 1, grid)
    masked_vals = field.values.copy()
    masked_vals[1] = 0.0
    masked_vals[-2] = 0.0
    masked = coefficient_field(ops, grid, masked_vals)
    [b1] = FieldData(field).sweep([1.0], "eq410")
    [b2] = FieldData(masked).sweep([1.0], "eq410")
    assert abs(np.expm1(b1 - b2)) < 1e-12


def test_find_s0_zero_field(slab):
    ops, _ = slab
    grid = TimeGrid(1.0, 16)
    zero = coefficient_field(ops, grid, np.zeros((17, ops.mesh.n_nodes)))
    fit = find_s0([FieldData(zero)], [1.0, 10.0, 100.0])
    assert fit.found and fit.s0 == 1.0


def test_find_s0_eigen_suite_monotone(slab):
    _, spec = slab
    grid = TimeGrid(1.0, 64)
    fields = [backward_mode_field(spec, k, grid) for k in range(1, 5)]
    s_grid = list(np.geomspace(1.0, 200.0, 12))
    fit = find_s0((FieldData(f) for f in fields), s_grid)
    # coefficient fields: the budgets never build their nodal values
    assert all(field._values is None for field in fields)
    assert fit.found and fit.s0 <= 200.0
    assert fit.c_boundary > 0.0
    ln = np.array(fit.log_needed_c)
    start = s_grid.index(fit.s0)
    assert np.all(np.diff(ln[:, start:], axis=1) <= 1e-9)
    # with the fitted constant, the inequality holds at every point >= s0
    for field in fields:
        needed = FieldData(field).sweep(s_grid[start:], "eq410")
        assert np.all(needed <= np.log(fit.c_boundary) + np.log1p(1e-9))


def test_find_s0_failure_marker(slab):
    # interior energy with exactly zero observed flux: no constant works
    ops, _ = slab
    mesh = ops.mesh
    grid = TimeGrid(1.0, 16)
    vals = np.zeros((17, mesh.n_nodes))
    inner = (mesh.xn > 0.3) & (mesh.xn < 0.6)
    vals[:, inner] = 1.0
    field = coefficient_field(ops, grid, vals)
    fit = find_s0([FieldData(field)], [1.0])
    assert not fit.found and fit.s0 is None


def test_find_s0_validation(slab):
    ops, _ = slab
    with pytest.raises(ParameterError):
        find_s0([], [1.0, 2.0])
    grid = TimeGrid(1.0, 16)
    zero = coefficient_field(ops, grid, np.zeros((17, ops.mesh.n_nodes)))
    with pytest.raises(ParameterError):
        find_s0([FieldData(zero)], [0.5, 2.0])
    with pytest.raises(ParameterError):
        find_s0([FieldData(zero)], [2.0, 1.0])


def test_eq51_follows_eq410(slab):
    # the CLI's eq51_holds check: eq51 holds at the eq410 fit's s0 and constant
    _, spec = slab
    grid = TimeGrid(1.0, 64)
    fields = [backward_mode_field(spec, k, grid) for k in (1, 2)]
    s_grid = list(np.geomspace(1.0, 200.0, 10))
    fit = find_s0((FieldData(f) for f in fields), s_grid)
    assert fit.found and fit.s0 <= 200.0
    for field in fields:
        [needed] = FieldData(field).sweep([fit.s0], "eq51")
        assert needed <= np.log(max(fit.c_boundary, 1.0)) + np.log1p(1e-9)


# Budgets are logs of magnitude up to about 1e5 at s = 200 (one ulp is
# 1.5e-11 there), so the moment form may differ from the per-node sum by
# a few ulps and no more.
LOG_TOL = 1e-10


def assert_matches_oracle(field, s, which, needed=None):
    if needed is None:
        [needed] = FieldData(field).sweep([s], which)
    want = carleman_budget_per_node(field, s, which)["log_needed_c"]
    if np.isinf(want):
        assert needed == want
    else:
        assert abs(needed - want) <= LOG_TOL, (needed, want)


def test_budgets_match_oracle_on_mode_fields(slab):
    # scaled to 1e-180, these fields have squares below the double range
    # everywhere: the budgets rest on the per-row scaling of the moments
    ops, spec = slab
    grid = TimeGrid(1.0, 64)
    for k in (1, 6):
        mode = backward_mode_field(spec, k, grid)
        field = coefficient_field(ops, grid, 1e-180 * mode.values)
        data = FieldData(field)
        s_values = list(map(float, np.geomspace(1.0, 200.0, 7)))
        for which in ("eq410", "eq51"):
            for s, needed in zip(s_values, data.sweep(s_values, which)):
                assert_matches_oracle(field, s, which, needed)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 16),
       delta=st.sampled_from([0.1, 0.2]), T=st.floats(1.5, 4.0), steps=st.integers(8, 24),
       s=st.floats(1.0, 3.0), which=st.sampled_from(["eq410", "eq51"]),
       seed=st.integers(0, 2**32 - 1))
def test_log_budgets_match_linear_sums(kind, n, delta, T, steps, s, which, seed):
    # at s <= 3 and T >= 1.5, exp(-2 s xi) >= exp(-120) in the time interior,
    # so the budgets can be summed directly; the field carries arbitrary values
    mesh = build_mesh(truncate(make_domain(kind, 0.5), delta), n)
    ops, grid = assemble(mesh), TimeGrid(T, steps)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((steps + 1, mesh.n_nodes))
    values[:, mesh.boundary] = 0.0
    field = coefficient_field(ops, grid, values)
    [needed] = FieldData(field).sweep([s], which)
    linear = carleman_budget_linear(field, s, which)
    assert np.exp(needed) == pytest.approx(linear["lhs"] / linear["rhs_boundary"], rel=1e-12)


@given(shape=hnp.array_shapes(max_dims=2, max_side=40), top=st.floats(-3000.0, 3000.0),
       spread=st.floats(1.0, 3000.0), special=st.sampled_from([-np.inf, np.inf, np.nan]),
       special_share=st.sampled_from([0.0, 0.05, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_floored_lse_matches_exp_all(shape, top, spread, special, special_share, seed):
    # entries spread up to 3000 below the top, so many shifted ones fall
    # below the floor, and a share of them -inf, +inf or nan (all, at 1.0)
    rng = np.random.default_rng(seed)
    a = top - spread * rng.random(shape)
    a[rng.random(shape) < special_share] = special
    got, want = carleman._lse(a), lse_exp_all(a)
    if np.isnan(want):
        assert np.isnan(got)
    elif np.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= 1e-13 * max(1.0, abs(np.max(a)))


@given(rows=st.integers(1, 24), cols=st.integers(1, 24), s=st.floats(1.0, 200.0),
       dead_share=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_live_rows_lse_matches_exp_all(rows, cols, s, dead_share, seed):
    # rows(sl) = base - 2 s Theta(t) (gamma - eta) with the row bound of a
    # sweep; Theta spans 1 to 1e4 as the time rows do, some rows are -inf
    rng = np.random.default_rng(seed)
    base = rng.uniform(-200.0, 50.0, (rows, cols))
    base[rng.random(rows) < dead_share] = -np.inf
    theta = np.geomspace(1.0, 1e4, rows)[rng.permutation(rows)]
    gme = np.linspace(2.0, 1.0, cols)
    xi = theta[:, None] * gme[None, :]
    bound = base.max(axis=1) - 2.0 * s * theta * gme.min()
    got = carleman._lse_rows(bound, lambda sl: base[sl] - 2.0 * s * xi[sl])
    want = lse_exp_all(base - 2.0 * s * xi)
    if np.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 250), cols=st.integers(1, 400), top=st.floats(-1000.0, 1000.0),
       width=st.floats(0.0, 2.0), above=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_lse_at_floor_matches_longdouble(rows, cols, top, width, above, seed):
    # up to 1e5 entries: one at the top, every other one within `width` of
    # top + _FLOOR, a share `above` of them just above it (kept) and the
    # rest just below (skipped); skipping the latter moves no bit that the
    # extended-precision sum of every entry, rounded, keeps
    rng = np.random.default_rng(seed)
    off = width * rng.random((rows, cols))
    a = top + carleman._FLOOR + np.where(rng.random((rows, cols)) < above, off, -off)
    a.flat[rng.integers(a.size)] = top
    want = lse_longdouble(a)
    tol = 1e-14 * max(1.0, abs(want))
    assert abs(carleman._lse(a) - want) <= tol
    # _lse_rows with row bounds at or above each row's maximum
    bound = a.max(axis=1) + rng.uniform(0.0, 2.0 * width, rows)
    assert abs(carleman._lse_rows(bound, lambda sl: a[sl]) - want) <= tol


@given(rows=st.integers(1, 20), cols=st.integers(1, 20), s=st.floats(1.0, 1e4),
       dead_share=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_bracket_row_bound_is_at_least_row_max(rows, cols, s, dead_share, seed):
    # C, D >= 0 and g >= 0 over many decades (some g = 0), beta of either
    # sign, and a share of rows with C = D = 0 (y = 0 along the row)
    rng = np.random.default_rng(seed)
    shape = (rows, cols)
    c, d = (10.0 ** rng.uniform(-30.0, 5.0, shape) for _ in range(2))
    g = 10.0 ** rng.uniform(-5.0, 140.0, shape) * (rng.random(shape) > 0.1)
    beta = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5.0, 140.0, shape)
    dead = rng.random(rows) < dead_share
    c[dead], d[dead] = 0.0, 0.0
    bound = carleman._bracket(s, *carleman._row_peaks(c, g, beta, d))
    assert np.all(bound >= carleman._bracket(s, c, g, beta, d).max(axis=1))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 12),
       delta=st.sampled_from([0.05, 0.1, 0.2]), T=st.floats(1.0, 4.0),
       steps=st.integers(8, 24), alpha=st.floats(0.1, 0.9),
       s_values=st.lists(st.floats(1.0, 200.0), min_size=1, max_size=4,
                         unique=True).map(sorted),
       magnitude=st.floats(0.0, 150.0), decay=st.floats(0.0, 300.0),
       which=st.sampled_from(["eq410", "eq51"]), seed=st.integers(0, 2**32 - 1))
def test_budgets_match_per_node_oracle(kind, n, delta, T, steps, alpha, s_values, magnitude,
                                       decay, which, seed):
    mesh = build_mesh(truncate(make_domain(kind, alpha), delta),
                      n * (4 if kind == "interval" else 1))
    ops = assemble(mesh)
    grid = TimeGrid(T, steps)
    rng = np.random.default_rng(seed)
    # amplitudes from 1 down to 1e-150 exp(-300 (1 - t/T)), about 1e-280 at
    # t = 0: squared, most of these underflow unless scaled first
    amp = 10.0 ** -magnitude * np.exp(-decay * (1.0 - grid.nodes / T))[:, None]
    vals = rng.standard_normal((steps + 1, mesh.n_nodes)) * amp
    vals[:, mesh.boundary] = 0.0
    field = coefficient_field(ops, grid, vals)
    # one sweep over the drawn s values, each value against the oracle
    needed = FieldData(field).sweep(s_values, which)
    assert needed.shape == (len(s_values),)
    for s, value in zip(s_values, needed):
        assert_matches_oracle(field, s, which, value)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 12),
       delta=st.sampled_from([0.05, 0.1, 0.2]), T=st.floats(1.0, 4.0),
       steps=st.integers(8, 24), alpha=st.floats(0.1, 0.9), modes=st.integers(1, 6),
       s_values=st.lists(st.floats(1.0, 200.0), min_size=1, max_size=4,
                         unique=True).map(sorted),
       magnitude=st.floats(0.0, 280.0), decay=st.floats(0.0, 1.0),
       zero_share=st.sampled_from([0.0, 0.2]), which=st.sampled_from(["eq410", "eq51"]),
       direction=st.sampled_from(["forward", "backward"]), seed=st.integers(0, 2**32 - 1))
# s near 200 at T = 1: 2 s xi is about 1e5, so the oracle needs its
# long-double weight to stay within LOG_TOL here
@example(kind="interval", n=4, delta=0.05, T=1.0, steps=14, alpha=0.5, modes=2,
         s_values=[192.0], magnitude=0.0, decay=0.0, zero_share=0.2, which="eq410",
         direction="forward", seed=92)
def test_coefficient_budgets_match_per_node_oracle(kind, n, delta, T, steps, alpha, modes,
                                                   s_values, magnitude, decay, zero_share,
                                                   which, direction, seed):
    # the property above on computed modes in either direction: the moments
    # come from the spectrum's per-layer factors and never from nodal values
    mesh = build_mesh(truncate(make_domain(kind, alpha), delta),
                      n * (4 if kind == "interval" else 1))
    ops = assemble(mesh)
    spec = compute_spectrum(ops, modes)
    grid = TimeGrid(T, steps)
    rng = np.random.default_rng(seed)
    # coefficient rows of size 10**-magnitude at t = T, falling towards
    # 1e-280 at t = 0 (all of it at decay 1), some of them zero: below
    # about 1e-154, squares underflow unless the rows are scaled first
    exponent = magnitude + (280.0 - magnitude) * decay * (1.0 - grid.nodes / T)
    amp = 10.0 ** -exponent[:, None]
    coeffs = rng.standard_normal((steps + 1, modes)) * amp
    coeffs[rng.random(steps + 1) < zero_share] = 0.0
    field = SpaceTimeField(ops, grid, None, direction=direction, mode_data=(spec, coeffs))
    needed = FieldData(field).sweep(s_values, which)
    assert field._values is None
    for s, value in zip(s_values, needed):
        assert_matches_oracle(field, s, which, value)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 12),
       delta=st.sampled_from([0.05, 0.1, 0.2]), T=st.floats(0.05, 4.0),
       steps=st.integers(8, 24), alpha=st.floats(0.1, 0.9), modes=st.integers(1, 6),
       s_values=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=6, unique=True),
       magnitude=st.floats(0.0, 280.0), which=st.sampled_from(["eq410", "eq51"]),
       seed=st.integers(0, 2**32 - 1))
def test_sweep_is_the_stack_of_single_s_sweeps(kind, n, delta, T, steps, alpha, modes,
                                               s_values, magnitude, which, seed):
    # each s is evaluated on its own: one sweep over S has the bits of the
    # sweeps over each s of S, in any order of S
    mesh = build_mesh(truncate(make_domain(kind, alpha), delta),
                      n * (4 if kind == "interval" else 1))
    ops = assemble(mesh)
    spec = compute_spectrum(ops, modes)
    grid = TimeGrid(T, steps)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((steps + 1, modes)) * 10.0 ** -magnitude
    data = FieldData(SpaceTimeField(ops, grid, None, direction="backward",
                                    mode_data=(spec, coeffs)))
    whole = data.sweep(s_values, which)
    stacked = np.concatenate([data.sweep([s], which) for s in s_values])
    assert whole.dtype == np.float64 and whole.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("kind", [pytest.param("interval", id="interval-coefficients"),
                                  pytest.param("square", id="square-coefficients")])
def test_cancelling_bracket_matches_oracle(kind):
    # y = phi(x_1) u(t, x_N) with d_N u = -g u at every other x_N node of a
    # band, so the eq410 bracket d_N y + g y cancels there for every x_1:
    # there C (g + beta)**2 + D is the sum of two tiny non-negative terms
    alpha, s = 0.5, 3.0
    mesh = build_mesh(truncate(make_domain(kind, alpha), 0.1), 48 if kind == "interval" else 12)
    ops = assemble(mesh)
    grid = TimeGrid(1.0, 16)
    xn = mesh.axes[-1]
    t = grid.nodes
    z = (xn - xn[0]) / (xn[-1] - xn[0])
    u = np.outer(1.0 + t, np.sin(np.pi * z) * (1.0 + 2.0 * z))  # no flat node
    theta = np.exp(-4.0 * (np.log(t[1:-1]) + np.log(1.0 - t[1:-1])))
    g = s * (2.0 - alpha) * theta[:, None] * (xn ** (1.0 - alpha))[None, :]

    def grad(v):
        return np.gradient(v, xn, axis=-1, edge_order=2)

    band = np.arange(2, xn.size - 2, 2)
    for j in band:
        rows = u[1:-1].copy()
        rows[:, j] = 0.0
        d0 = grad(rows)[:, j]
        rows[:, j] = 1.0
        b = grad(rows)[:, j] - d0
        u[1:-1, j] = -d0 / (g[:, j] + b)  # d0 + b u = -g u
    bracket = grad(u)[1:-1] + g * u[1:-1]
    assert np.max(np.abs(bracket[:, band]) / np.abs(g * u[1:-1])[:, band]) < 1e-12

    phi = np.sin(np.pi * mesh.axes[0]) if kind == "square" else np.ones(1)
    vals = (u[:, None, :] * phi[None, :, None]).reshape(t.size, -1)
    # the time rows as modes and the identity as coefficients: the same
    # interior values, with moments from the modes' per-layer factors
    spec = Spectrum(ops, np.ones(t.size), vals[:, ops.interior].T)
    field = SpaceTimeField(ops, grid, None, direction="backward",
                           mode_data=(spec, np.eye(t.size)))
    assert np.array_equal(field.rows(slice(None))[:, ops.interior], vals[:, ops.interior])
    assert_matches_oracle(field, s, "eq410")


def small_slab_field(n, T, steps):
    # the first field of the carleman experiment on interval n, deltas [0.125], K=3
    mesh = build_mesh(truncate(make_domain("interval", 0.5), 0.125), n)
    return backward_mode_field(compute_spectrum(assemble(mesh), 3), 1, TimeGrid(T, steps))


@pytest.mark.parametrize("T", [0.03, 0.1, 1.0])
def test_needed_constant_matches_multiprecision_oracle(T):
    # 2 s xi grows like 2 s (T/2)**-8, 1.6e17 at s = 200 and T = 0.03: formed
    # in doubles it keeps no digit, though it cancels in the needed constant
    field = small_slab_field(32, T, 32)
    s_values = [1.0, 200.0, 1e10]
    for s, needed in zip(s_values, FieldData(field).sweep(s_values, "eq410")):
        want = carleman_budget_mp(field, s, "eq410")["log_needed_c"]
        assert abs(needed - want) <= 1e-9, (s, needed, want)


def test_needed_constant_finite_and_flat_up_to_large_s():
    # 2 s Theta(T/2) = 512 s: from s = 1 on, only the edge node of the time
    # row at T/2 keeps weight, so the needed constant is the same at every s
    field = small_slab_field(16, 1.0, 8)
    needed = FieldData(field).sweep(np.geomspace(1.0, 1e100, 21), "eq410")
    assert np.all(np.isfinite(needed))
    assert max(needed) - min(needed) <= 1e-12


@pytest.mark.parametrize("T, s", [pytest.param(1.0, 1e154, id="large-s"),
                                  pytest.param(1e-300, 1.0, id="tiny-T")])
def test_overflowing_coefficient_refused(T, s):
    # (s (2 - alpha) Theta)**2 would leave the double range, for either
    # inequality, since both weigh by exp(-2 s xi)
    data = FieldData(small_slab_field(16, T, 8))
    for which in ("eq410", "eq51"):
        with pytest.raises(ParameterError, match="beyond the limit 1e\\+150"):
            data.sweep([1.0, s], which)
