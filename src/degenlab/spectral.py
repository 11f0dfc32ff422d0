"""Generalized eigenpairs of the weighted operator and mode expansions."""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .discretize import OperatorPair, boundary_flux
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
        self._mode_flux = {}

    def mode(self, k):
        """k-th eigenvector (1-based, matching lambda_k), full nodal."""
        return self.modes[:, k - 1]

    @cached_property
    def mass_gram(self):
        """Phi' M Phi over the computed modes: the identity up to the
        M-orthonormality residual, built once per spectrum."""
        return self.modes.T @ (self.ops.M_full @ self.modes)

    def mode_flux(self, part):
        """Normal derivative of every mode on a horizontal boundary part,
        (n_part, count), recovered with the load lambda_k phi_k; built once
        per part and read-only."""
        if part not in self._mode_flux:
            flux = boundary_flux(self.ops, self.modes, part,
                                 f_proxy=self.modes * self.eigenvalues)
            flux.flags.writeable = False
            self._mode_flux[part] = flux
        return self._mode_flux[part]


def _lexicographic_tiebreak(vals, vecs):
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    # exact ties: order by lexicographic comparison of the vectors
    i = 0
    while i < vals.size - 1:
        j = i
        while j + 1 < vals.size and vals[j + 1] == vals[i]:
            j += 1
        if j > i:
            block = vecs[:, i:j + 1]
            sub = sorted(range(block.shape[1]), key=lambda c: tuple(block[:, c]))
            vecs[:, i:j + 1] = block[:, sub]
        i = j + 1
    return vals, vecs


def _reorthogonalize_clusters(vals, vecs, M):
    """M-orthonormalize within clusters of eigenvalues equal to 1e-9 relative."""
    i = 0
    while i < vals.size:
        j = i
        while j + 1 < vals.size and abs(vals[j + 1] - vals[i]) <= 1e-9 * max(1.0, abs(vals[i])):
            j += 1
        if j > i:
            for c in range(i, j + 1):
                v = vecs[:, c]
                for b in range(i, c):
                    v = v - (vecs[:, b] @ (M @ v)) * vecs[:, b]
                nrm = np.sqrt(v @ (M @ v))
                vecs[:, c] = v / nrm
        i = j + 1
    return vecs


def compute_spectrum(ops: OperatorPair, k: int) -> Spectrum:
    """First k eigenpairs of  K phi = lambda M phi  on interior DOFs.

    Shift-invert Lanczos at sigma = 0 (factor K once, fixed start vector
    for reproducibility) is the primary path: unlike the dense
    generalized solver it stays accurate when strong mesh grading makes
    the mass matrix badly scaled.  Tiny problems where Lanczos cannot
    run (k close to the DOF count) fall back to a Jacobi-scaled dense
    solve.
    """
    n = ops.K.shape[0]
    if not (1 <= k <= n):
        raise ParameterError(f"mode count k={k} outside [1, {n}]")
    if k <= n - 2:
        v0 = np.ones(n) / np.sqrt(n)
        try:
            vals, vecs = spla.eigsh(ops.K.tocsc(), k=k, M=ops.M.tocsc(),
                                    sigma=0.0, which="LM", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise EigensolverError(
                f"eigensolver stalled with {len(exc.eigenvalues)} of {k} pairs") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    else:
        scale = 1.0 / np.sqrt(ops.M.diagonal())
        ks = scale[:, None] * ops.K.toarray() * scale[None, :]
        ms = scale[:, None] * ops.M.toarray() * scale[None, :]
        vals, vecs = la.eigh(ks, ms, subset_by_index=[0, k - 1])
        vecs = scale[:, None] * vecs
    vals, vecs = _lexicographic_tiebreak(vals, vecs)
    vecs = _reorthogonalize_clusters(vals, vecs, ops.M)
    # one Rayleigh-quotient pass: the quotient of a computed vector is a
    # more accurate eigenvalue than the raw solver output
    num = np.einsum("ij,ij->j", vecs, ops.K @ vecs)
    den = np.einsum("ij,ij->j", vecs, ops.M @ vecs)
    vals = num / den
    # deterministic sign: largest-magnitude entry positive
    for c in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, c])))
        if vecs[i, c] < 0.0:
            vecs[:, c] = -vecs[:, c]
    return Spectrum(ops, vals, vecs)


def rayleigh(ops: OperatorPair, u) -> float:
    """u'Ku / u'Mu for an admissible nodal vector; always >= lambda_1."""
    u = np.asarray(u, dtype=float)
    msq = float(u @ (ops.M_full @ u))
    if msq == 0.0:
        raise ParameterError("Rayleigh quotient undefined for u = 0")
    return float(u @ (ops.K_full @ u)) / msq


def expand(spectrum: Spectrum, u):
    """L2 coefficients of u against the computed modes: c_i = phi_i' M u."""
    u = np.asarray(u, dtype=float)
    return spectrum.modes.T @ (spectrum.ops.M_full @ u)


def reconstruct(spectrum: Spectrum, coeffs):
    """Nodal field from mode coefficients."""
    return spectrum.modes @ np.asarray(coeffs, dtype=float)
