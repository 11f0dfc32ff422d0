import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.discretize import (
    assemble,
    boundary_flux,
    build_mesh,
    edge_mass,
    hardy_check,
    mass_1d,
    norms,
    poincare_check,
    restrict_mesh,
    stiffness_1d,
)
from degenlab.errors import ContractError, ParameterError, UnsupportedRegionError
from degenlab.geometry import BoundaryPart, make_domain, truncate
from degenlab.rng import Lcg, random_admissible
from degenlab.spectral import compute_spectrum

from oracles import degenerate_eigenfunction, fd_flux, hardy_ratio_quartic

# frozen from the quadrature oracle (= 16/105 / (22/105))
HARDY_QUARTIC_RATIO = 0.7272727272727273


def test_mesh_nodes_uniform_and_graded():
    d = make_domain("interval", 0.5)
    m1 = build_mesh(d, 4, 1.0)
    assert np.allclose(m1.axes[0], [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)
    m2 = build_mesh(d, 4, 2.0)
    assert np.allclose(m2.axes[0], [0.0, 0.0625, 0.25, 0.5625, 1.0], atol=0)


def test_truncated_mesh_axis():
    d = make_domain("square", 0.5)
    m = build_mesh(truncate(d, 0.2), 4)
    assert np.allclose(m.axes[1], [0.2, 0.4, 0.6, 0.8, 1.0])
    assert np.allclose(m.axes[0], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_mesh_parameter_errors():
    d = make_domain("interval", 0.5)
    with pytest.raises(ParameterError):
        build_mesh(d, 3)
    with pytest.raises(ParameterError):
        build_mesh(d, 8, 0.5)
    with pytest.raises(ParameterError):
        build_mesh(truncate(d, 0.1), 8, 2.0)


def test_restrict_mesh_is_subset():
    d = make_domain("interval", 0.5)
    full = build_mesh(d, 16, 1.0)
    tr = restrict_mesh(full, 0.125)
    assert set(tr.axes[0]) <= set(full.axes[0])
    with pytest.raises(ContractError):
        restrict_mesh(full, 0.1)  # not a node of the 1/16 grid


def test_classical_limit_stencil():
    d = make_domain("interval", 1e-12)
    n = 8
    mesh = build_mesh(d, n, 1.0)
    K = stiffness_1d(mesh.axes[0], d.alpha).toarray()
    h = 1.0 / n
    assert K[4, 4] == pytest.approx(2.0 / h, rel=1e-9)
    assert K[4, 5] == pytest.approx(-1.0 / h, rel=1e-9)


def test_first_cell_weighted_stiffness_closed_form():
    alpha = 0.5
    d = make_domain("interval", alpha)
    for n, g in [(8, 1.0), (16, 2.0)]:
        mesh = build_mesh(d, n, g)
        h = mesh.axes[0][1]
        K = stiffness_1d(mesh.axes[0], alpha)
        assert K[0, 1] == pytest.approx(-h ** (alpha - 1.0) / (alpha + 1.0), rel=1e-13)


def test_uniform_mass_entries():
    nodes = np.linspace(0.0, 1.0, 9)
    h = 1.0 / 8.0
    M = mass_1d(nodes, 0.0).toarray()
    assert M[4, 4] == pytest.approx(2.0 * h / 3.0, rel=1e-13)
    assert M[4, 5] == pytest.approx(h / 6.0, rel=1e-13)


def test_singular_mass_first_cell():
    # entries pairing with the origin are zeroed (their integrals diverge);
    # the surviving diagonal entry is checked against adaptive quadrature
    from scipy.integrate import quad

    alpha = 0.5
    p = alpha - 2.0
    nodes = np.array([0.0, 0.1, 0.2, 0.4, 1.0])
    W = mass_1d(nodes, p).toarray()
    assert W[0, 0] == 0.0 and W[0, 1] == 0.0
    hat_sq_1 = (quad(lambda x: x**p * (x / 0.1) ** 2, 0.0, 0.1)[0]
                + quad(lambda x: x**p * ((0.2 - x) / 0.1) ** 2, 0.1, 0.2)[0])
    assert W[1, 1] == pytest.approx(hat_sq_1, rel=1e-10)
    # first-cell share alone equals the closed form h**(a-1)/(a+1)
    first = quad(lambda x: x**p * (x / 0.1) ** 2, 0.0, 0.1)[0]
    assert first == pytest.approx(0.1 ** (alpha - 1.0) / (alpha + 1.0), rel=1e-10)


def test_operator_symmetry_and_spd():
    for kind, n in [("interval", 64), ("square", 12)]:
        d = make_domain(kind, 0.5)
        ops = assemble(build_mesh(d, n))
        for A in (ops.K, ops.M):
            asym = abs(A - A.T).max()
            assert asym <= 1e-14 * abs(A).max()
        np.linalg.cholesky(ops.K.toarray())
        np.linalg.cholesky(ops.M.toarray())


def test_norms_contract():
    d = make_domain("interval", 0.5)
    mesh = build_mesh(d, 32)
    ops = assemble(mesh)
    res = norms(ops, mesh.zero_field())
    assert res["l2"] == 0.0 and res["h1w"] == 0.0 and res["hardy_lhs"] == 0.0
    bad = np.ones(mesh.n_nodes)
    with pytest.raises(ContractError):
        norms(ops, bad)


def test_norms_against_spectrum():
    d = make_domain("interval", 0.5)
    mesh = build_mesh(d, 256)
    ops = assemble(mesh)
    spec = compute_spectrum(ops, 3)
    res = norms(ops, spec.mode(1))
    assert res["h1w"] ** 2 == pytest.approx(spec.eigenvalues[0], rel=1e-10)
    assert res["l2"] == pytest.approx(1.0, rel=1e-10)


def test_hardy_quartic_oracle():
    assert hardy_ratio_quartic(0.5) == pytest.approx(HARDY_QUARTIC_RATIO, rel=1e-12)
    d = make_domain("interval", 0.5)
    mesh = build_mesh(d, 1024, 2.0)
    ops = assemble(mesh)
    x = mesh.points[:, 0]
    u = x * (1.0 - x)
    u[mesh.boundary] = 0.0
    res = hardy_check(ops, u)
    assert res["ratio"] == pytest.approx(HARDY_QUARTIC_RATIO, rel=2e-3)
    assert res["holds"]


@pytest.mark.parametrize("alpha,bound", [(0.5, 16.0), (0.75, 64.0), (0.25, 64.0 / 9.0)])
def test_hardy_bound_formula(alpha, bound):
    d = make_domain("interval", alpha)
    mesh = build_mesh(d, 64)
    ops = assemble(mesh)
    u = random_admissible(mesh, Lcg(7))
    res = hardy_check(ops, u)
    assert res["bound"] == pytest.approx(bound, rel=1e-14)


@pytest.mark.parametrize("kind,n", [("interval", 128), ("interval", 512), ("square", 32)])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_hardy_holds_random_and_modes(kind, n, alpha):
    d = make_domain(kind, alpha)
    mesh = build_mesh(d, n)
    ops = assemble(mesh)
    rng = Lcg(42)
    for _ in range(30):
        res = hardy_check(ops, random_admissible(mesh, rng))
        assert res["holds"], res
    spec = compute_spectrum(ops, 5)
    for k in range(1, 6):
        assert hardy_check(ops, spec.mode(k))["holds"]


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), alpha=st.floats(0.05, 0.95),
       n=st.integers(4, 48), grading=st.floats(1.0, 4.0), seed=st.integers(0, 2**32 - 1))
def test_hardy_bound_holds_on_random_vectors(kind, alpha, n, grading, seed):
    mesh = build_mesh(make_domain(kind, alpha), n, grading)
    res = hardy_check(assemble(mesh), random_admissible(mesh, Lcg(seed)))
    assert res["holds"], res


def test_hardy_zero_vector_error():
    d = make_domain("interval", 0.5)
    mesh = build_mesh(d, 32)
    ops = assemble(mesh)
    with pytest.raises(ParameterError):
        hardy_check(ops, mesh.zero_field())


def test_poincare_sharpness():
    d = make_domain("interval", 0.5)
    mesh = build_mesh(d, 512)
    ops = assemble(mesh)
    spec = compute_spectrum(ops, 10)
    lam = spec.eigenvalues
    assert poincare_check(ops, spec.mode(1))["ratio"] == pytest.approx(1.0 / lam[0], rel=1e-9)
    assert poincare_check(ops, spec.mode(2))["ratio"] == pytest.approx(1.0 / lam[1], rel=1e-9)
    rng = Lcg(3)
    for _ in range(20):
        r = poincare_check(ops, random_admissible(mesh, rng))["ratio"]
        assert r <= 1.0 / lam[0] + 1e-10


def test_flux_linear_field():
    d = make_domain("interval", 0.5)
    mesh = build_mesh(d, 512, 1.0)
    ops = assemble(mesh)
    u = mesh.points[:, 0].copy()  # ignoring boundary conditions on purpose
    flux = boundary_flux(ops, u, BoundaryPart.OBSERVED)
    assert flux[0] == pytest.approx(1.0, abs=3.0 / 512)
    assert boundary_flux(ops, mesh.zero_field(), BoundaryPart.OBSERVED)[0] == 0.0


def test_flux_unsupported_parts():
    d = make_domain("square", 0.5)
    mesh = build_mesh(d, 8)
    ops = assemble(mesh)
    u = mesh.zero_field()
    with pytest.raises(UnsupportedRegionError):
        boundary_flux(ops, u, BoundaryPart.DEGENERATE)
    with pytest.raises(UnsupportedRegionError):
        boundary_flux(ops, u, BoundaryPart.LATERAL)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]),
       delta=st.one_of(st.none(), st.floats(0.01, 0.24)),
       n=st.integers(4, 24), grading=st.floats(1.0, 4.0),
       alpha=st.floats(0.01, 0.99), m=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_block_flux_matches_columns(kind, delta, n, grading, alpha, m, seed):
    d = make_domain(kind, alpha)
    mesh = (build_mesh(d, n, grading) if delta is None
            else build_mesh(truncate(d, delta), n))
    ops = assemble(mesh)
    gen = np.random.default_rng(seed)
    u = gen.standard_normal((mesh.n_nodes, m))
    f = gen.standard_normal((mesh.n_nodes, m))
    parts = [BoundaryPart.OBSERVED] + ([] if delta is None else [BoundaryPart.CUT])
    for part in parts:
        # both horizontal parts carry the x_1 mass factor, [[1]] on the interval
        want = mass_1d(mesh.axes[0]).toarray() if kind == "square" else [[1.0]]
        assert np.array_equal(edge_mass(ops, part).toarray(), want)
        for proxy in (None, f):
            block = boundary_flux(ops, u, part, f_proxy=proxy)
            cols = np.stack([boundary_flux(ops, u[:, c], part,
                                           f_proxy=None if proxy is None else proxy[:, c])
                             for c in range(m)], axis=1)
            assert block.shape == cols.shape
            assert np.max(np.abs(block - cols)) <= 1e-14 * np.max(np.abs(cols))


def test_flux_eigenmode_against_series_oracle():
    # normal derivative of the first eigenfunction at x = 1, from the
    # Bessel-series closed form (frozen check value -2.66619571586...)
    u_exact, lam, du1 = degenerate_eigenfunction(0.5, 1)
    assert du1 == pytest.approx(-2.6661957158667, rel=1e-9)
    d = make_domain("interval", 0.5)
    mesh = build_mesh(d, 1024, 2.0)
    ops = assemble(mesh)
    spec = compute_spectrum(ops, 1)
    phi = spec.mode(1)
    flux = boundary_flux(ops, phi, BoundaryPart.OBSERVED,
                         f_proxy=spec.eigenvalues[0] * phi)
    # sign convention of the solver may flip the mode
    assert abs(flux[0]) == pytest.approx(abs(du1), rel=5e-3)


def test_variational_vs_fd_flux_converges():
    d = make_domain("interval", 0.5)
    gaps = []
    for n in (128, 256):
        mesh = build_mesh(d, n, 2.0)
        ops = assemble(mesh)
        spec = compute_spectrum(ops, 1)
        phi = spec.mode(1)
        fv = boundary_flux(ops, phi, BoundaryPart.OBSERVED,
                           f_proxy=spec.eigenvalues[0] * phi)
        fd = fd_flux(mesh, phi, BoundaryPart.OBSERVED)
        gaps.append(abs(fv[0] - fd[0]))
    # the two recoveries agree to at least first order in h
    assert gaps[1] < gaps[0]
    assert gaps[0] / gaps[1] >= 1.6
