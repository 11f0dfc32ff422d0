"""Acceptance suite: one test per criterion, each printing a PASS line
(pytest reports FAIL on assertion failure).  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they pass.  The measures
that only a criterion takes (the a-priori stability ratio, the time-window
energy bound) are defined beside it, on the package's public pieces."""

import numpy as np
import pytest

import degenlab as dl
from degenlab.cli import main as cli_main
from degenlab.evolution import time_norm

from oracles import (
    degenerate_eigenvalue,
    extend_by_zero,
    heat_observability_ratio,
    norms,
    p_residual,
)

ALPHAS = (0.25, 0.5, 0.75)
HARDY_BOUNDS = {0.25: 64.0 / 9.0, 0.5: 16.0, 0.75: 64.0}
LAMBDA1_HALF = 4.739066397843299  # ((2-a)/2)^2 j_{1/3,1}^2, Bessel oracle


def ok(num, text):
    print(f"criterion {num}: PASS - {text}")


@pytest.fixture(scope="module")
def deg1024():
    d = dl.make_domain("interval", 0.5)
    ops = dl.assemble(dl.build_mesh(d, 1024, 2.0))
    spec = dl.compute_spectrum(ops, 10)
    return ops, spec


def smooth_bump(lo=0.45, hi=0.95):
    span = hi - lo

    def f(points):
        x = np.atleast_2d(points)[:, -1]
        out = np.zeros_like(x)
        m = (x > lo) & (x < hi)
        t = (x[m] - lo) / span
        out[m] = np.exp(-1.0 / (t * (1.0 - t)))
        return out

    return f


def test_criterion_1_hardy_inequality():
    cases = [("interval", 1024, 2.0), ("square", 64, 2.0)]
    for alpha in ALPHAS:
        bound = 4.0 / (1.0 - alpha) ** 2
        assert bound == pytest.approx(HARDY_BOUNDS[alpha], rel=1e-14)
        for kind, n, g in cases:
            d = dl.make_domain(kind, alpha)
            mesh = dl.build_mesh(d, n, g)
            ops = dl.assemble(mesh)
            rng = dl.Lcg(2024)
            worst = 0.0
            for _ in range(100):
                res = dl.hardy_check(ops, dl.random_admissible(mesh, rng))
                worst = max(worst, res["ratio"])
                assert res["holds"]
            spec = dl.compute_spectrum(ops, 10)
            for k in range(1, 11):
                res = dl.hardy_check(ops, spec.mode(k))
                worst = max(worst, res["ratio"])
                assert res["holds"]
            assert worst <= bound * 1.02
    ok(1, "Hardy ratio <= 4/(1-alpha)^2 * 1.02 on both geometries, "
          "bounds {64/9, 16, 64}")


def test_criterion_2_poincare_sharpness(deg1024):
    ops, spec = deg1024
    ratios = [nm["l2"] ** 2 / nm["h1w"] ** 2
              for nm in (norms(ops, spec.mode(k)) for k in range(1, 11))]
    lam1 = spec.eigenvalues[0]
    rel_gap = abs(max(ratios) - 1.0 / lam1) * lam1
    assert rel_gap <= 1e-8
    ok(2, f"max Poincare ratio = 1/lambda_1 to {rel_gap:.2e} relative")


def test_criterion_3_spectral_oracle(deg1024):
    ops, spec = deg1024
    rel = abs(spec.eigenvalues[0] - LAMBDA1_HALF) / LAMBDA1_HALF
    assert rel <= 1e-3
    # rate ladder at grading 4: the (j/n)^g mesh yields eigenvalue error
    # n^(-g(1-alpha)), so g = 2 saturates at first order for alpha = 1/2
    d = dl.make_domain("interval", 0.5)
    lam = [dl.compute_spectrum(dl.assemble(dl.build_mesh(d, n, 4.0)), 1).eigenvalues[0]
           for n in (256, 512, 1024)]
    order = float(np.log2((lam[0] - lam[1]) / (lam[1] - lam[2])))
    assert order >= 1.5
    dsq = dl.make_domain("square", 0.5)
    spec2 = dl.compute_spectrum(dl.assemble(dl.build_mesh(dsq, 64, 2.0)), 1)
    target = np.pi**2 + degenerate_eigenvalue(0.5, 1)
    rel2 = abs(spec2.eigenvalues[0] - target) / target
    assert rel2 <= 1e-2
    ok(3, f"lambda_1 vs Bessel zero {rel:.1e} rel; ladder order {order:.2f}; "
          f"square separability {rel2:.1e} rel")


def test_criterion_4_evolution_exactness(deg1024):
    ops, spec = deg1024
    grid = dl.TimeGrid(1.0, 64)
    lam1 = spec.eigenvalues[0]
    field = dl.solve_spectral(spec, spec.mode(1), grid)
    coeffs = np.array([dl.expand(spec, v) for v in field.values])
    exact = np.zeros_like(coeffs)
    exact[:, 0] = np.exp(-lam1 * grid.nodes)
    assert np.max(np.abs(coeffs - exact)) <= 1e-10
    gaps = []
    for steps in (32, 64, 128, 256):
        g = dl.TimeGrid(1.0, steps)
        fs = dl.solve_spectral(spec, spec.mode(1), g)
        fi = dl.solve_implicit(ops, spec.mode(1), g, theta=1.0)
        diff = fs.values - fi.values
        gaps.append(np.max(np.sqrt(
            np.einsum("tn,tn->t", diff, (ops.M_full @ diff.T).T))))
        for f in (fs, fi):
            e = dl.energy_history(f)
            assert np.all(np.diff(e) <= 1e-12 * e[0])
    order = float(np.mean([np.log2(gaps[i] / gaps[i + 1]) for i in range(3)]))
    assert 0.9 <= order <= 1.1
    ok(4, f"mode evolution exact to 1e-10; backward-Euler order {order:.3f}; "
          "energy non-increasing")


def test_criterion_5_parseval(deg1024):
    ops, spec = deg1024
    rng = dl.Lcg(77)
    for _ in range(5):
        c = rng.symmetric(spec.count)
        u = spec.modes @ c
        res = norms(ops, u)
        l2_gap = abs(np.sum(c**2) - res["l2"] ** 2) / np.sum(c**2)
        h1_target = float(np.sum(c**2 * spec.eigenvalues))
        h1_gap = abs(h1_target - res["h1w"] ** 2) / h1_target
        assert l2_gap <= 1e-8
        assert h1_gap <= 1e-6
    ok(5, "L2 and weighted-H1 Parseval identities at 1e-8 / 1e-6 relative")


def test_criterion_6_extension_isometry():
    d = dl.make_domain("interval", 0.5)
    full_mesh = dl.build_mesh(d, 80, 1.0)
    full_ops = dl.assemble(full_mesh)
    rng = dl.Lcg(31)
    for delta in (0.2, 0.1, 0.05):
        tr_mesh = dl.restrict_mesh(full_mesh, delta)
        tr_ops = dl.assemble(tr_mesh)
        u = dl.random_admissible(tr_mesh, rng)
        ext = extend_by_zero(u, tr_mesh, full_mesh)
        l2_truncated, l2_extended = (np.sqrt(dl.tensor_form(v, o.x1[1], o.xn[1]))
                                     for v, o in ((u, tr_ops), (ext, full_ops)))
        lumped_truncated, lumped_extended = (np.sqrt(np.sum(o.lumped_full * v**2))
                                             for v, o in ((u, tr_ops), (ext, full_ops)))
        assert abs(l2_extended - l2_truncated) <= 1e-14 * l2_truncated
        assert abs(lumped_extended - lumped_truncated) <= 1e-14 * lumped_truncated
    ok(6, "zero extension preserves both L2 readings to 1e-14 "
          "across the delta ladder")


def test_criterion_7_shape_design_convergence():
    d = dl.make_domain("interval", 0.5)
    grid = dl.TimeGrid(1.0, 128)
    rep = dl.delta_sweep(d, smooth_bump(), grid,
                         [0.2, 0.1, 0.05, 0.025], n_ref=160)
    errs = rep.solution_errors
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 0.25 * errs[0]
    assert all(a > b for a, b in zip(rep.flux_errors, rep.flux_errors[1:]))
    ok(7, f"solution errors strictly decreasing, last/first = "
          f"{errs[-1] / errs[0]:.3f} <= 0.25; flux errors decreasing")


def stability_ratio(field):
    """Measured shape of the a-priori energy estimate:

        [ sup_t ||y(t)||_L2 + ||y||_{L2(0,T;H1w)} ] / ||y0||_L2.
    """
    (kx, mx), (kn, mn) = field.ops.x1, field.ops.xn
    l2 = dl.energy_history(field)
    values = field.values
    h1_qt = time_norm(dl.tensor_form(values, kx, mn) + dl.tensor_form(values, mx, kn),
                      field.grid.nodes)
    return (float(np.max(l2)) + h1_qt) / l2[0]


def stability_sweep(domain, y0, grid, deltas, n):
    """Stability ratios of the truncated solves across a delta ladder, and
    their relative spread, which probes the uniformity in delta of the
    estimate's constant."""
    full_mesh = dl.build_mesh(domain, n, grading=1.0)
    ratios = {float(d): stability_ratio(dl.solve_truncated(full_mesh, d, y0, grid))
              for d in deltas}
    vals = np.array(list(ratios.values()))
    return {"ratios": ratios, "drift": float((vals.max() - vals.min()) / vals.min())}


def test_criterion_8_uniform_constants():
    d = dl.make_domain("interval", 0.5)
    deltas = (0.2, 0.1, 0.05)
    grid = dl.TimeGrid(1.0, 128)
    stab = stability_sweep(d, smooth_bump(), grid, deltas, n=120)
    assert stab["drift"] <= 0.25

    s_grid = list(np.geomspace(1.0, 200.0, 20))
    c_fit, c_obs = [], []
    for delta in deltas:
        tmesh = dl.build_mesh(dl.truncate(d, delta), 256)
        tops = dl.assemble(tmesh)
        tspec = dl.compute_spectrum(tops, 10)
        rng = dl.Lcg(1)
        fields = [dl.time_reverse(dl.solve_spectral(tspec, tspec.modes[:, k], grid))
                  for k in range(10)]
        fields += [dl.time_reverse(dl.solve_spectral(
            tspec, dl.random_admissible(tmesh, rng), grid)) for _ in range(5)]
        fit = dl.find_s0((dl.FieldData(f) for f in fields), s_grid)
        assert fit.found
        c_fit.append(fit.c_boundary)
        c_obs.append(dl.estimate_constant(grid, tspec, 10).c_obs)

    drift_fit = (max(c_fit) - min(c_fit)) / min(c_fit)
    drift_obs = (max(c_obs) - min(c_obs)) / min(c_obs)
    assert drift_fit <= 0.25
    assert drift_obs <= 0.25
    ok(8, f"stability ratio drift {stab['drift']:.3f}, Carleman C drift "
          f"{drift_fit:.3f}, C_obs drift {drift_obs:.3f}, all <= 0.25")


def test_criterion_9_carleman_inequality():
    d = dl.make_domain("interval", 0.5)
    grid = dl.TimeGrid(1.0, 128)
    tmesh = dl.build_mesh(dl.truncate(d, 0.1), 256)
    tops = dl.assemble(tmesh)
    tspec = dl.compute_spectrum(tops, 10)
    rng = dl.Lcg(9)
    fields = [dl.time_reverse(dl.solve_spectral(tspec, tspec.modes[:, k], grid))
              for k in range(10)]
    fields += [dl.time_reverse(dl.solve_spectral(
        tspec, dl.random_admissible(tmesh, rng), grid)) for _ in range(5)]
    s_grid = list(np.geomspace(1.0, 200.0, 20))
    fit = dl.find_s0((dl.FieldData(f) for f in fields), s_grid)
    assert fit.found and fit.s0 <= 200.0
    start = s_grid.index(fit.s0)
    for field in fields:
        needed = dl.FieldData(field).sweep(s_grid[start:], "eq410")
        assert np.all(needed <= np.log(fit.c_boundary) + np.log1p(1e-9))

    # residual identity under simultaneous (h, dt) halving, at a horizon
    # where the transformed variable is resolvable
    T = 2.5
    res = []
    for n, steps in [(64, 64), (128, 128)]:
        gridr = dl.TimeGrid(T, steps)
        mesh = dl.build_mesh(dl.truncate(d, 0.1), n)
        ops = dl.assemble(mesh)
        x = mesh.points[:, 0]
        t = gridr.nodes
        k = np.pi / 0.9
        phi = np.sin(k * (x - 0.1))
        dphi = k * np.cos(k * (x - 0.1))
        ddphi = -(k**2) * np.sin(k * (x - 0.1))
        g = 1.0 + t * (T - t) / T**2
        gp = (T - 2.0 * t) / T**2
        y = g[:, None] * phi[None, :]
        f = gp[:, None] * phi[None, :] + g[:, None] * (
            0.5 * x ** (-0.5) * dphi + x**0.5 * ddphi)[None, :]
        field = dl.SpaceTimeField(ops, gridr, y)
        res.append(p_residual(field, f, 1.0))
    order = float(np.log2(res[0] / res[1]))
    assert order >= 1.0
    ok(9, f"s0 = {fit.s0:.3g} <= 200, inequality holds on [s0, 200]; "
          f"residual order {order:.2f} >= 1")


def window_bound_check(field):
    """Initial energy against the mean energy over the middle half window.

    The field must follow the backward convention, i.e. its L2 energy is
    non-decreasing in time; then
    ||y(0)||^2 <= (2/T) * integral over (T/4, 3T/4) of ||y(t)||^2 dt.
    """
    t = field.grid.nodes
    esq = dl.energy_history(field) ** 2
    scale = max(float(esq.max()), 1e-300)
    if np.any(np.diff(esq) < -1e-10 * scale):
        raise ValueError("energy decreases in time; window bound needs a "
                         "backward-convention field")
    T = field.grid.T
    lo, hi = T / 4.0, 3.0 * T / 4.0
    inside = (t > lo) & (t < hi)
    tq = np.concatenate([[lo], t[inside], [hi]])
    eq = np.concatenate([[np.interp(lo, t, esq)], esq[inside], [np.interp(hi, t, esq)]])
    rhs = (2.0 / T) * float(np.trapezoid(eq, tq))
    lhs = float(esq[0])
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-8)}


def test_criterion_10_observability():
    # classical limit: single-mode ratios against the closed form
    dc = dl.make_domain("interval", 1e-12)
    ops_c = dl.assemble(dl.build_mesh(dc, 512, 1.0))
    spec_c = dl.compute_spectrum(ops_c, 5)
    grid_c = dl.TimeGrid(1.0, 128)
    for mode in range(1, 6):
        ratio = dl.observability_ratio(spec_c.mode(mode), grid_c, spec_c)
        oracle = heat_observability_ratio(mode, 1.0)
        assert 0.9 * oracle <= ratio <= 1.2 * oracle

    # degenerate case: finite constants over deepening subspaces, with
    # T chosen so lambda_15 * T <= 60, stable under mesh refinement
    d = dl.make_domain("interval", 0.5)
    grid = dl.TimeGrid(0.048, 64)
    drifts = {}
    for k_modes in (5, 10, 15):
        vals = []
        for n in (512, 1024):
            ops = dl.assemble(dl.build_mesh(d, n, 2.0))
            spec = dl.compute_spectrum(ops, k_modes)
            rep = dl.estimate_constant(grid, spec, k_modes)
            assert not rep.singular
            assert rep.subspace_dim == k_modes
            assert spec.eigenvalues[k_modes - 1] * grid.T <= 60.0
            assert np.isfinite(rep.c_obs)
            vals.append(rep.c_obs)
        drifts[k_modes] = abs(vals[1] - vals[0]) / vals[0]
        assert drifts[k_modes] <= 0.25

    # window bound on 20 seeded backward-convention runs
    ops = dl.assemble(dl.build_mesh(d, 512, 2.0))
    spec = dl.compute_spectrum(ops, 10)
    gw = dl.TimeGrid(1.0, 64)
    rng = dl.Lcg(555)
    for _ in range(20):
        y0 = dl.random_admissible(ops.mesh, rng)
        back = dl.time_reverse(dl.solve_spectral(spec, y0, gw))
        assert window_bound_check(back)["holds"]
    ok(10, f"classical ratios in [0.9, 1.2] x oracle; C_obs finite for "
           f"K in (5, 10, 15), drifts {max(drifts.values()):.3f} <= 0.25; "
           "window bound holds on 20 runs")


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("""
experiment: hardy
domain: interval
alpha: 0.5
n: 128
modes: 5
samples: 20
seed: 99
""", encoding="utf-8")
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["hardy", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    assert files
    for fname in files:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    ok(11, "identical config + seed reruns are byte-identical")
