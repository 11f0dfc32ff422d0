"""Generalized eigenpairs of the weighted operator and mode expansions."""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .discretize import OperatorPair, _require_memory, boundary_flux
from .errors import EigensolverError, ParameterError


class Spectrum:
    """Ascending eigenvalues with mass-orthonormal nodal eigenvectors.

    Vectors are stored on the full node set (zero on the Dirichlet
    boundary); ``modes[:, k]`` is the k-th eigenvector.  The sign of each
    vector is fixed by making its entry of largest magnitude positive so
    repeated runs produce identical output files.
    """

    def __init__(self, ops: OperatorPair, eigenvalues, modes_interior):
        self.ops = ops
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        n_full = ops.mesh.n_nodes
        self.modes = np.zeros((n_full, self.eigenvalues.size))
        self.modes[ops.interior, :] = modes_interior
        self.count = self.eigenvalues.size

    def mode(self, k):
        """k-th eigenvector (1-based, matching lambda_k), full nodal."""
        return self.modes[:, k - 1]

    @cached_property
    def mass_gram(self):
        """Phi' M Phi over the computed modes: the identity up to the
        M-orthonormality residual, built once per spectrum."""
        return self.modes.T @ (self.ops.M_full @ self.modes)

    @cached_property
    def moment_factor(self):
        """Per x_N layer n, the triangular factor R_n of the QR decomposition
        of sqrt(w_n) [Phi_n, D_N Phi_n], with w the lumped mass and Phi_n the
        modes on the x_1 nodes of layer n, so that
        R_n' R_n = [Phi_n, D_N Phi_n]' diag(w_n) [Phi_n, D_N Phi_n].
        Returned as the pair (Phi part, D_N Phi part) of (count, n_layers * r)
        matrices, r = min(n_x1, 2 count), so that ``c @ part`` is R_n c on
        every layer at once for a batch of coefficient rows c; built once
        per spectrum and read-only."""
        mesh = self.ops.mesh
        k = self.count
        layer = (k, -1, mesh.shape[-1])  # (mode, x_1, x_N)
        nodal = self.modes.T
        sqrt_w = np.sqrt(self.ops.lumped_full).reshape(layer[1:])
        stacked = np.concatenate([nodal.reshape(layer), mesh.grad_n(nodal).reshape(layer)])
        r = np.linalg.qr((stacked * sqrt_w).transpose(2, 1, 0), mode="r")  # (x_N, r, 2 count)
        parts = tuple(np.ascontiguousarray(r[:, :, half].transpose(2, 0, 1)).reshape(k, -1)
                      for half in (slice(None, k), slice(k, None)))
        for part in parts:
            part.flags.writeable = False
        return parts

    @cached_property
    def mode_flux(self):
        """Normal derivative of every mode on the observed edge,
        (n_edge, count), recovered with the load lambda_k phi_k; built once
        per spectrum and read-only."""
        modes = self.modes[self.ops.flux_rows[0]]
        flux = boundary_flux(self.ops, modes, f_proxy=modes * self.eigenvalues)
        flux.flags.writeable = False
        return flux


def _lu_entries(n_interior, dimension):
    """Estimated L + U entries of splu's factor of the interior K: 4 per
    unknown for the tridiagonal K of the interval, and on the square
    max(24, 14 log2(N) - 80) per unknown, at or above splu's count at each
    n measured from 4 to 240 and 4% above it at n = 240 (7,723,232)."""
    return n_interior * (4 if dimension == 1 else max(24.0, 14.0 * np.log2(n_interior) - 80.0))


def _check_eigensolve(n_interior, n_nodes, k, dimension):
    """Refuse an eigensolve of k modes whose arrays exceed the machine's
    physical memory, before any of them exists.  Lanczos holds a basis of
    n_interior x min(n_interior, max(2k+1, 20)) doubles (ARPACK's default
    ncv) and the LU factor of K at 12 bytes an entry, plus a quarter for
    the copies splu makes as the factor grows (21% of it at square n=240),
    so 15/8 doubles an entry; the dense fallback holds the scaled K and M
    and the copies eigh works on, 4 n_interior**2 doubles; the nodal modes
    are n_nodes x k."""
    if k <= n_interior - 2:
        solver = (n_interior * min(n_interior, max(2 * k + 1, 20))
                  + 15 / 8 * _lu_entries(n_interior, dimension))
    else:
        solver = 4 * n_interior**2
    _require_memory((solver + n_nodes * k) * 8,
                    f"an eigensolve of {k} modes on {n_interior} unknowns")


def compute_spectrum(ops: OperatorPair, k: int) -> Spectrum:
    """First k eigenpairs of  K phi = lambda M phi  on interior DOFs.

    Shift-invert Lanczos at sigma = 0 (factor K once, fixed start vector
    for reproducibility) is the primary path: unlike the dense
    generalized solver it stays accurate when strong mesh grading makes
    the mass matrix badly scaled.  Tiny problems where Lanczos cannot
    run (k close to the DOF count) fall back to a Jacobi-scaled dense
    solve.  An eigensolve whose arrays exceed physical memory is refused
    before they exist.
    """
    n = ops.interior.size
    if not (1 <= k <= n):
        raise ParameterError(f"mode count k={k} outside [1, {n}]")
    _check_eigensolve(n, ops.mesh.n_nodes, k, ops.mesh.domain.dimension)
    if k <= n - 2:
        v0 = np.ones(n) / np.sqrt(n)
        # the factor ARPACK would make of ops.K (splu with its defaults), made
        # here of a K that is dropped before M exists, so that no
        # problem-sized operator sits beside the factor but M; in
        # shift-invert mode eigsh reads only the shape and dtype of its
        # first argument
        lu = spla.splu(ops.interior_stiffness())
        inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        try:
            vals, vecs = spla.eigsh(inv, k=k, M=ops.M, sigma=0.0, which="LM", v0=v0,
                                    OPinv=inv)
        except spla.ArpackNoConvergence as exc:
            raise EigensolverError(
                f"eigensolver stalled with {len(exc.eigenvalues)} of {k} pairs") from exc
        # the Rayleigh pass below builds K again: release the factor first
        del lu, inv
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    else:
        scale = 1.0 / np.sqrt(ops.M.diagonal())
        ks = scale[:, None] * ops.interior_stiffness().toarray() * scale[None, :]
        ms = scale[:, None] * ops.M.toarray() * scale[None, :]
        vals, vecs = la.eigh(ks, ms, subset_by_index=[0, k - 1])
        vecs = scale[:, None] * vecs
    # one Rayleigh-quotient pass: the quotient of a computed vector is a
    # more accurate eigenvalue than the raw solver output.  Its K is not
    # kept: a run that never reads ops.K afterwards never holds one
    num = np.einsum("ij,ij->j", vecs, ops.interior_stiffness() @ vecs)
    den = np.einsum("ij,ij->j", vecs, ops.M @ vecs)
    vals = num / den
    # deterministic sign: largest-magnitude entry positive
    peaks = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs[:, peaks < 0.0] *= -1.0
    return Spectrum(ops, vals, vecs)


def expand(spectrum: Spectrum, u):
    """L2 coefficients of u against the computed modes: c_i = phi_i' M u."""
    u = np.asarray(u, dtype=float)
    return spectrum.modes.T @ (spectrum.ops.M_full @ u)
