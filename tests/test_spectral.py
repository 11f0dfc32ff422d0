import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.discretize import assemble, build_mesh
from degenlab.errors import ParameterError
from degenlab.evolution import SpaceTimeField, TimeGrid, flux_history
from degenlab.geometry import make_domain, truncate
from degenlab.rng import Lcg, random_admissible
from degenlab import discretize, spectral
from degenlab.spectral import compute_spectrum, expand

from oracles import (bessel_zeros, degenerate_eigenvalue, degenerate_eigenvalues,
                     eigsh_reference, norms, slab_eigenvalues, slab_mode_fluxes)

# frozen from an independent power-series and bisection evaluation of J_{1/3}
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


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_bessel_zeros_match_mpmath(alpha):
    nu = (1.0 - alpha) / (2.0 - alpha)
    exact = [float(mpmath.besseljzero(nu, k)) for k in range(1, 16)]
    assert bessel_zeros(nu, 15) == pytest.approx(exact, rel=1e-13, abs=0.0)


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


def test_slab_eigenvalues_converge_at_second_order():
    # the interval slab above delta = 0.2 on uniform meshes against the
    # Bessel cross-product roots: relative errors 1.74e-5 at n=240 and
    # 4.36e-6 at n=480 for k = 1, order 2.0 for k = 1..3
    exact = slab_eigenvalues(0.5, 0.2, 3)
    slab = truncate(make_domain("interval", 0.5), 0.2)
    err = [np.abs(compute_spectrum(assemble(build_mesh(slab, n)), 3).eigenvalues - exact)
           for n in (240, 480)]
    assert np.all(np.log2(err[0] / err[1]) >= 1.8), err


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("delta", [0.2, 0.05, 1e-3])
def test_slab_fluxes_obey_the_rellich_identity(alpha, delta):
    # multiplying the equation by x u' gives, for an L2-normalised slab
    # eigenfunction, u'(1)**2 = (2 - alpha) lambda + delta**(alpha+1) u'(delta)**2;
    # measured at most 6.5e-14 relative for k = 1..3
    lam = slab_eigenvalues(alpha, delta, 3)
    top, bottom = slab_mode_fluxes(alpha, delta, 3)
    gap = top**2 - (2.0 - alpha) * lam - delta ** (alpha + 1.0) * bottom**2
    assert np.all(np.abs(gap) <= 1e-12 * top**2), gap / top**2


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_slab_mode_fluxes_converge_at_second_order(alpha):
    # |Spectrum.mode_flux| of the slab above delta = 0.2 on uniform meshes
    # against the Bessel cross product's fluxes; at alpha 0.5 the relative
    # errors for k = 1..3 are 1.78e-5, 6.56e-5 and 1.45e-4 at n=240 and
    # 4.45e-6, 1.64e-5 and 3.63e-5 at n=480, order 2.0
    exact = np.abs(slab_mode_fluxes(alpha, 0.2, 3)[0])
    slab = truncate(make_domain("interval", alpha), 0.2)
    err = [np.abs(np.abs(compute_spectrum(assemble(build_mesh(slab, n)), 3).mode_flux[0]) - exact)
           for n in (240, 480)]
    assert np.all(np.log2(err[0] / err[1]) >= 1.8), err


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_slab_eigenvalue_shift_rate_is_one_minus_alpha(alpha):
    # lambda_1(delta) - lambda_1(0) = O(delta**(1 - alpha)), the rate of
    # phi_1 ~ x**(1 - alpha) at the degenerate edge; measured local rates
    # between delta = 1e-5 and 1e-6: 0.800, 0.5015 and 0.224
    lam0 = degenerate_eigenvalue(alpha)
    shift = [slab_eigenvalues(alpha, delta, 1)[0] - lam0 for delta in (1e-5, 1e-6)]
    assert np.log10(shift[0] / shift[1]) == pytest.approx(1.0 - alpha, abs=0.05)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_eigenvalues_and_fluxes_converge_at_second_order(alpha):
    # lambda_1..lambda_10 and the squared mode fluxes against the Bessel-zero
    # oracle and (2 - alpha) lambda_k: on meshes graded by 2 / (1 - alpha)
    # both errors fall at second order.  At the default grading 2 and
    # alpha = 0.8 both orders are 0.44.
    exact = degenerate_eigenvalues(alpha, 10)
    grading = max(2.0, 2.0 / (1.0 - alpha))
    errors = []
    for n in (240, 480):
        spec = compute_spectrum(assemble(build_mesh(make_domain("interval", alpha), n,
                                                    grading)), 10)
        flux2 = spec.mode_flux[0] ** 2
        errors.append([np.max(np.abs(spec.eigenvalues - exact) / exact),
                       np.max(np.abs(flux2 - (2.0 - alpha) * exact) / ((2.0 - alpha) * exact))])
    orders = np.log2(np.divide(*errors))
    assert np.all(orders >= 1.8), orders


def test_oversized_eigensolve_refused_before_lanczos(monkeypatch):
    # 100 modes on 999 unknowns: a Lanczos basis of 999 x 201 doubles and
    # 1001 x 100 nodal modes, 2.3 MiB against a machine of 1 MiB
    ops = assemble(build_mesh(make_domain("interval", 0.5), 1000))
    monkeypatch.setattr(discretize, "physical_memory_mib", lambda: 1.0)
    with pytest.raises(ParameterError, match="an eigensolve of 100 modes on 999 unknowns "
                                             "needs about 2 MiB"):
        compute_spectrum(ops, 100)
    assert "K" not in vars(ops)


@pytest.mark.parametrize("kind, n", [("square", 30), ("square", 60), ("square", 120),
                                     ("square", 240), ("interval", 240)])
def test_lu_estimate_bounds_the_factor_splu_makes(kind, n):
    # the fill depends only on the sparsity pattern, not on grading or slab
    ops = assemble(build_mesh(make_domain(kind, 0.5), n, 2.0))
    lu = spla.splu(ops.interior_stiffness())
    count = lu.L.nnz + lu.U.nnz
    estimate = spectral._lu_entries(ops.interior.size, ops.mesh.domain.dimension)
    assert count <= estimate
    if (kind, n) == ("square", 240):
        assert estimate <= 1.25 * count


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


def test_poincare_ratio_inverts_rayleigh_quotient(interval_spec):
    ops, spec = interval_spec
    lam = spec.eigenvalues

    def rayleigh(u):
        nm = norms(ops, u)
        return nm["h1w"] ** 2 / nm["l2"] ** 2

    assert rayleigh(spec.mode(1)) == pytest.approx(lam[0], rel=1e-12)
    mix = (spec.mode(1) + spec.mode(2)) / np.sqrt(2.0)
    assert rayleigh(mix) == pytest.approx((lam[0] + lam[1]) / 2.0, rel=1e-10)
    rng = Lcg(11)
    for _ in range(10):
        u = random_admissible(ops.mesh, rng)
        assert rayleigh(u) >= lam[0] - 1e-10


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
    u = spec.modes @ c
    res = norms(ops, u)
    assert np.sum(c**2) == pytest.approx(res["l2"] ** 2, rel=1e-8)
    assert np.sum(c**2 * spec.eigenvalues) == pytest.approx(res["h1w"] ** 2, rel=1e-6)


def test_operator_image_identity(interval_spec):
    # discrete analogue of ||A u||^2 = sum c_i^2 lam_i^2 on the mode span
    ops, spec = interval_spec
    rng = Lcg(6)
    c = rng.symmetric(spec.count)
    u = (spec.modes @ c)[ops.interior]
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


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 16),
       alpha=st.floats(0.05, 0.95), grading=st.floats(1.0, 4.0),
       delta=st.one_of(st.none(), st.floats(0.01, 0.24)), k=st.integers(1, 40))
def test_spectrum_ascending_and_mass_orthonormal(kind, n, alpha, grading, delta, k):
    # delta None: the full domain on a graded mesh; else its slab above delta.
    # k runs up to the DOF count, so the dense path is drawn too
    d = make_domain(kind, alpha)
    mesh = build_mesh(d, n, grading) if delta is None else build_mesh(truncate(d, delta), n)
    ops = assemble(mesh)
    spec = compute_spectrum(ops, min(k, ops.K.shape[0]))
    assert np.all(np.diff(spec.eigenvalues) >= 0.0)
    phi = spec.modes[ops.interior]
    assert np.max(np.abs(phi.T @ (ops.M @ phi) - np.eye(spec.count))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 40),
       alpha=st.floats(0.05, 0.95), grading=st.floats(1.0, 4.0),
       delta=st.one_of(st.none(), st.floats(0.01, 0.24)), data=st.data())
def test_lanczos_bits_match_eigsh_on_the_assembled_pair(kind, n, alpha, grading, delta,
                                                         data):
    # the factor made in compute_spectrum is the one ARPACK makes of ops.K:
    # the same eigenvalues and modes to the last bit, graded and slab
    d = make_domain(kind, alpha)
    mesh = build_mesh(d, n, grading) if delta is None else build_mesh(truncate(d, delta), n)
    ops = assemble(mesh)
    k = data.draw(st.integers(1, min(n, ops.interior.size) - 2), label="k")
    spec = compute_spectrum(ops, k)
    vals, vecs = eigsh_reference(assemble(mesh), k)
    assert np.array_equal(spec.eigenvalues, vals)
    assert np.array_equal(spec.modes[ops.interior], vecs)


def test_eigensolve_holds_one_operator_beside_its_factor(monkeypatch):
    # square n=16: the factor is made before M exists, eigsh runs beside M
    # alone, the factor is released before the Rayleigh pass builds K
    # again, and no K is left on ops
    ops = assemble(build_mesh(make_domain("square", 0.5), 16))
    seen, alive = [], []
    real_splu, real_eigsh, tensor_stiffness = spla.splu, spla.eigsh, discretize._tensor_stiffness

    class Factor:
        """The only holder of the factor, so its end is the factor's end."""

        def __init__(self, lu):
            self.lu = lu
            alive.append(True)

        def solve(self, b):
            return self.lu.solve(b)

        def __del__(self):
            alive.pop()

    def splu(a, **kw):
        seen.append(("splu", set(vars(ops))))
        return Factor(real_splu(a, **kw))

    def eigsh(a, **kw):
        seen.append(("eigsh", set(vars(ops)), sp.issparse(a)))
        return real_eigsh(a, **kw)

    def stiffness(*pairs):
        seen.append(("K", len(alive)))
        return tensor_stiffness(*pairs)

    monkeypatch.setattr(spectral.spla, "splu", splu)
    monkeypatch.setattr(spectral.spla, "eigsh", eigsh)
    monkeypatch.setattr(discretize, "_tensor_stiffness", stiffness)
    compute_spectrum(ops, 3)
    built, (_, at_splu), (_, at_eigsh, sparse_a), rayleigh = seen
    assert built == ("K", 0) and not {"K", "M"} & at_splu
    assert "K" not in at_eigsh and "M" in at_eigsh and not sparse_a
    assert rayleigh == ("K", 0)
    assert "K" not in vars(ops)


@pytest.mark.parametrize("kind", ["interval", "square"])
def test_spectrum_builds_no_full_node_operator(kind):
    # the eigensolve builds interior operators only
    ops = assemble(build_mesh(make_domain(kind, 0.5), 16))
    compute_spectrum(ops, 3)
    assert not {"M_full", "lumped_full"} & set(vars(ops))


@pytest.mark.parametrize("kind", ["interval", "square"])
def test_flux_builds_no_full_node_operator(kind):
    # the flux rows of the observed edge come from the 1D factors
    ops = assemble(build_mesh(make_domain(kind, 0.5), 16))
    spec = compute_spectrum(ops, 3)
    spec.mode_flux
    grid = TimeGrid(1.0, 8)
    values = np.outer(np.exp(-grid.nodes), spec.mode(1))
    flux_history(SpaceTimeField(ops, grid, values))
    assert "M_full" not in vars(ops)
