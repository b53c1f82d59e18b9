"""SVD and spectral analysis of weight-matrix perturbations.

The factorization is numpy's LAPACK SVD, used as it comes apart from a rank
cut-off.  No output here reads the sign of a singular-vector pair or the
order of the vectors inside a degenerate cluster: the spectra are the
singular values, the alignment is a set of principal-angle cosines, and the
orthogonality defect is a Frobenius norm.  All computation here is float64
regardless of the caller's training dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SvdFactorization",
    "SpectralReport",
    "svd",
    "effective_rank",
    "subspace_alignment",
    "spectral_perturbation_report",
]

RANK_TOL = 1e-12  # singular values at or below RANK_TOL * max(||w||_F, 1) count as zero


@dataclass
class SvdFactorization:
    """U (m x k), sigma (k,) non-increasing, V (n x k); W = U diag(sigma) V^T."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


@dataclass
class SpectralReport:
    """How a perturbation moved the spectrum and singular subspaces of a matrix."""

    spectrum_before: np.ndarray
    spectrum_after: np.ndarray
    subspace_alignment: np.ndarray
    delta_effective_rank: int
    orthogonality_defect: float


def _checked(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
        raise ValueError(f"svd needs a non-empty 2-D matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("svd input contains non-finite entries")
    return w


def _rank_cut(sigma: np.ndarray, w: np.ndarray) -> np.ndarray:
    sigma[sigma <= RANK_TOL * max(np.linalg.norm(w), 1.0)] = 0.0
    return sigma


def svd(w: np.ndarray) -> SvdFactorization:
    """Thin SVD of a real matrix: LAPACK's factors with the RANK_TOL cut-off.

    Singular values at or below RANK_TOL * max(||w||_F, 1) are set to zero.
    Raises ValueError on an empty, non-2-D or non-finite matrix, and
    numpy.linalg.LinAlgError (a ValueError) if LAPACK does not converge.
    """
    w = _checked(w)
    U, sigma, Vt = np.linalg.svd(w, full_matrices=False)
    # a contiguous V: BLAS rounds products of strided columns differently
    return SvdFactorization(U=U, sigma=_rank_cut(sigma, w), V=Vt.T.copy())


def effective_rank(delta: np.ndarray) -> int:
    """Number of singular values above 1e-8 * sigma_max; 0 for the zero matrix."""
    delta = _checked(delta)
    sigma = _rank_cut(np.linalg.svd(delta, compute_uv=False), delta)
    return int(np.count_nonzero(sigma > 1e-8 * sigma[0]))


def _cluster_bounds(sigma: np.ndarray):
    """Split spectrum indices into clusters of (near-)degenerate singular values."""
    scale = max(float(sigma[0]) if sigma.size else 0.0, 1.0)
    cuts = np.flatnonzero(np.abs(np.diff(sigma)) > 1e-8 * scale) + 1
    edges = [0, *cuts.tolist(), sigma.size]
    return list(zip(edges[:-1], edges[1:]))


def subspace_alignment(before: SvdFactorization, after: SvdFactorization) -> np.ndarray:
    """|cos| of principal angles between corresponding right singular subspaces.

    Computed cluster-wise over degenerate groups of the unperturbed spectrum
    so the quantity stays well defined under repeated singular values: a
    one-item cluster's cosine is |v_b . v_a|, all taken in one stacked
    product; a larger cluster's are the singular values of Vb^T Va.
    """
    # each product sees the strided operands a one-column slice of V gives, and
    # LAPACK's SVD of a 1 x 1 [a] is |a|: bitwise what an SVD per singleton gives
    out = np.abs(np.matmul(before.V.T[:, None, :], after.V.T[:, :, None])[:, 0, 0])
    for start, stop in _cluster_bounds(before.sigma):
        if stop - start > 1:
            Vb = before.V[:, start:stop]
            Va = after.V[:, start:stop]
            out[start:stop] = np.linalg.svd(Vb.T @ Va, compute_uv=False)
    return out


def _perturbed_right_frame_defect(perturbed: np.ndarray, before: SvdFactorization) -> float:
    """Orthogonality defect ||V'^T V' - I||_F of the perturbed right vectors.

    The perturbed right vector for singular item d keeps the unperturbed left
    vector and singular value as the frame: v'_d = (W + dW)^T u_d / sigma_d.
    For a pure column-scaling perturbation this reduces to scaling each right
    vector elementwise, the structure the scaling-based methods induce.
    Items whose singular value `svd` cut to zero are excluded.
    """
    keep = before.sigma > 0
    if not np.any(keep):
        return 0.0
    U = before.U[:, keep]
    sig = before.sigma[keep]
    Vp = perturbed.T @ U / sig
    gram = Vp.T @ Vp
    return float(np.linalg.norm(gram - np.eye(gram.shape[0])))


def spectral_perturbation_report(w: np.ndarray, delta: np.ndarray) -> SpectralReport:
    """Compare the factorization of w against w + delta."""
    w = np.asarray(w, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if w.shape != delta.shape:
        raise ValueError(f"shape mismatch: w {w.shape} vs delta {delta.shape}")
    perturbed = w + delta
    before = svd(w)
    after = svd(perturbed)
    return SpectralReport(
        spectrum_before=before.sigma,
        spectrum_after=after.sigma,
        subspace_alignment=subspace_alignment(before, after),
        delta_effective_rank=effective_rank(delta),
        orthogonality_defect=_perturbed_right_frame_defect(perturbed, before),
    )

