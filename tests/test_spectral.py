import numpy as np
import pytest
import scipy.sparse.linalg as spla

from degenlab.discretize import assemble, build_mesh, norms
from degenlab.errors import ParameterError
from degenlab.geometry import make_domain
from degenlab.rng import Lcg, random_admissible
from degenlab.spectral import compute_spectrum, expand, rayleigh, reconstruct

from oracles import degenerate_eigenvalue

# frozen from the series/bisection oracle
LAMBDA1_HALF = 4.739066397843299     # alpha = 0.5
BESSEL_ZERO_THIRD = 2.9025862484169522  # first zero of J_{1/3}


@pytest.fixture(scope="module")
def interval_spec():
    d = make_domain("interval", 0.5)
    ops = assemble(build_mesh(d, 512, 2.0))
    return ops, compute_spectrum(ops, 10)


def test_classical_limit_eigenvalues():
    d = make_domain("interval", 1e-12)
    ops = assemble(build_mesh(d, 512, 1.0))
    spec = compute_spectrum(ops, 5)
    for n in range(1, 6):
        assert spec.eigenvalues[n - 1] == pytest.approx((n * np.pi) ** 2, rel=1e-3)


def test_degenerate_eigenvalue_oracle():
    assert degenerate_eigenvalue(0.5, 1) == pytest.approx(
        ((2 - 0.5) / 2) ** 2 * BESSEL_ZERO_THIRD**2, rel=1e-12)
    d = make_domain("interval", 0.5)
    ops = assemble(build_mesh(d, 1024, 2.0))
    spec = compute_spectrum(ops, 1)
    assert spec.eigenvalues[0] == pytest.approx(LAMBDA1_HALF, rel=1e-3)


def test_eigenvalue_ladder_order():
    # the eigenvalue error scales like n**(-g(1-alpha)) until the element
    # order caps it, so at alpha = 0.5 a grading of 4 is needed for 1.5
    d = make_domain("interval", 0.5)
    lam = [compute_spectrum(assemble(build_mesh(d, n, 4.0)), 1).eigenvalues[0]
           for n in (256, 512, 1024)]
    order = np.log2((lam[0] - lam[1]) / (lam[1] - lam[2]))
    assert order >= 1.5


def test_square_separability():
    d = make_domain("square", 0.5)
    ops = assemble(build_mesh(d, 32, 2.0))
    spec = compute_spectrum(ops, 1)
    mu1 = degenerate_eigenvalue(0.5, 1)
    assert spec.eigenvalues[0] == pytest.approx(np.pi**2 + mu1, rel=3e-2)


def test_orthonormality(interval_spec):
    ops, spec = interval_spec
    phi = spec.modes[ops.interior]
    gram_m = phi.T @ (ops.M @ phi)
    assert np.max(np.abs(gram_m - np.eye(spec.count))) <= 1e-10
    gram_k = phi.T @ (ops.K @ phi)
    resid = np.abs(gram_k - np.diag(spec.eigenvalues)) / np.maximum(spec.eigenvalues, 1.0)
    assert np.max(resid) <= 1e-8
    assert spec.eigenvalues[0] > 0.0
    assert np.all(np.diff(spec.eigenvalues) >= 0.0)


def test_sign_convention_deterministic(interval_spec):
    ops, spec = interval_spec
    again = compute_spectrum(ops, 10)
    assert np.array_equal(spec.modes, again.modes)
    for k in range(spec.count):
        i = np.argmax(np.abs(spec.modes[:, k]))
        assert spec.modes[i, k] > 0.0


def test_rayleigh(interval_spec):
    ops, spec = interval_spec
    lam = spec.eigenvalues
    assert rayleigh(ops, spec.mode(1)) == pytest.approx(lam[0], rel=1e-12)
    mix = (spec.mode(1) + spec.mode(2)) / np.sqrt(2.0)
    assert rayleigh(ops, mix) == pytest.approx((lam[0] + lam[1]) / 2.0, rel=1e-10)
    rng = Lcg(11)
    for _ in range(10):
        u = random_admissible(ops.mesh, rng)
        assert rayleigh(ops, u) >= lam[0] - 1e-10
    with pytest.raises(ParameterError):
        rayleigh(ops, np.zeros(ops.mesh.n_nodes))


def test_expand_unit_coefficients(interval_spec):
    ops, spec = interval_spec
    coeffs = expand(spec, spec.mode(3))
    expected = np.zeros(spec.count)
    expected[2] = 1.0
    assert np.max(np.abs(coeffs - expected)) <= 1e-10
    assert np.max(np.abs(expand(spec, np.zeros(ops.mesh.n_nodes)))) == 0.0


def test_parseval_identities(interval_spec):
    ops, spec = interval_spec
    rng = Lcg(5)
    c = rng.symmetric(spec.count)
    u = reconstruct(spec, c)
    res = norms(ops, u)
    assert np.sum(c**2) == pytest.approx(res["l2"] ** 2, rel=1e-8)
    assert np.sum(c**2 * spec.eigenvalues) == pytest.approx(res["h1w"] ** 2, rel=1e-6)


def test_operator_image_identity(interval_spec):
    # discrete analogue of ||A u||^2 = sum c_i^2 lam_i^2 on the mode span
    ops, spec = interval_spec
    rng = Lcg(6)
    c = rng.symmetric(spec.count)
    u = reconstruct(spec, c)[ops.interior]
    ku = ops.K @ u
    lu = spla.splu(ops.M.tocsc())
    val = float(ku @ lu.solve(ku))
    assert val == pytest.approx(np.sum(c**2 * spec.eigenvalues**2), rel=1e-6)


def test_mode_count_bounds(interval_spec):
    ops, _ = interval_spec
    with pytest.raises(ParameterError):
        compute_spectrum(ops, 0)
    with pytest.raises(ParameterError):
        compute_spectrum(ops, ops.K.shape[0] + 1)


def test_shift_invert_path_matches_dense():
    # spot-check lambda_1 of a 2D operator against the separability oracle
    d = make_domain("square", 0.5)
    ops = assemble(build_mesh(d, 48, 2.0))
    assert ops.K.shape[0] > 2000
    spec = compute_spectrum(ops, 3)
    mu1 = degenerate_eigenvalue(0.5, 1)
    assert spec.eigenvalues[0] == pytest.approx(np.pi**2 + mu1, rel=2e-2)
    assert np.all(np.diff(spec.eigenvalues) >= 0.0)
