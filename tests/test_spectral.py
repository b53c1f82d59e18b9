import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab import spectral
from peftlab.spectral import (
    SvdFactorization,
    effective_rank,
    spectral_perturbation_report,
    subspace_alignment,
    svd,
    verify_singular_item_identity,
)


def random_matrix(seed, max_side=16):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_side + 1))
    return rng.normal(size=(m, n))


def check_factorization(w, fact, tol=1e-10):
    m, n = w.shape
    k = min(m, n)
    assert fact.U.shape == (m, k)
    assert fact.V.shape == (n, k)
    assert fact.sigma.shape == (k,)
    assert np.allclose(fact.U.T @ fact.U, np.eye(k), atol=tol)
    assert np.allclose(fact.V.T @ fact.V, np.eye(k), atol=tol)
    assert (fact.sigma >= 0).all()
    assert (np.diff(fact.sigma) <= 1e-12).all()  # non-increasing
    assert np.allclose((fact.U * fact.sigma) @ fact.V.T, w, atol=tol * max(1.0, np.abs(w).max()))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_svd_invariants_random(seed):
    w = random_matrix(seed)
    check_factorization(w, svd(w))


def test_svd_matches_reference_spectrum():
    w = random_matrix(42)
    ours = svd(w).sigma
    ref = np.linalg.svd(w, compute_uv=False)
    assert np.allclose(ours, ref, atol=1e-10)


def test_svd_identity_matrix():
    fact = svd(np.eye(5))
    assert np.allclose(fact.sigma, 1.0)
    check_factorization(np.eye(5), fact)


def test_svd_zero_matrix_orthonormal_completion():
    w = np.zeros((4, 3))
    fact = svd(w)
    assert np.allclose(fact.sigma, 0.0)
    check_factorization(w, fact)


def test_svd_rank_deficient():
    rng = np.random.default_rng(3)
    for m, n, rank in ((6, 5, 2), (3, 12, 1)):
        w = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        fact = svd(w)
        check_factorization(w, fact)
        assert np.sum(fact.sigma > 1e-10) == rank
        assert np.array_equal(fact.sigma[rank:], np.zeros(min(m, n) - rank))


def test_svd_wide_matrix():
    w = np.random.default_rng(9).normal(size=(3, 12))
    check_factorization(w, svd(w))


def test_svd_rejects_non_finite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan]]))


def test_svd_sign_convention_deterministic():
    # svd applies no sign convention; LAPACK's factors of equal inputs must
    # still be bitwise equal and form a valid SVD
    w = random_matrix(17)
    a = svd(w)
    b = svd(w.copy())
    check_factorization(w, a)
    for got, again in ((a.U, b.U), (a.sigma, b.sigma), (a.V, b.V)):
        assert np.array_equal(got, again)


def test_svd_degenerate_cluster_ordering_stable():
    # a repeated singular value leaves the basis of its subspace free and svd
    # imposes no order inside it; equal inputs must still give bitwise equal
    # factors, and the factors must be a valid SVD even when LAPACK splits the
    # repeated pair by a few ulps
    for seed in range(5):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        for w in (Q @ np.diag([2.0, 2.0, 1.0]) @ Q.T, Q @ np.diag([2.0, 2.0, 1.0]) @ R.T):
            a = svd(w)
            b = svd(w.copy())
            assert np.allclose(a.sigma, [2.0, 2.0, 1.0], atol=1e-12)
            check_factorization(w, a)
            for got, again in ((a.U, b.U), (a.sigma, b.sigma), (a.V, b.V)):
                assert np.array_equal(got, again)


def test_report_needs_no_sign_convention(monkeypatch):
    # negating a (u_j, v_j) pair leaves a valid SVD; the report must not see it
    rng = np.random.default_rng(8)
    cases = [(rng.normal(size=(6, 4)), 0.1 * rng.normal(size=(6, 4))),
             (rng.normal(size=(3, 7)), 0.1 * rng.normal(size=(3, 7))),
             (np.diag([2.0, 2.0, 1.0]), 0.05 * rng.normal(size=(3, 3)))]
    plain = [spectral_perturbation_report(w, d) for w, d in cases]

    def flipped(w):
        f = svd(w)
        signs = np.where(np.arange(f.k) % 2, -1.0, 1.0)
        return SvdFactorization(U=f.U * signs, sigma=f.sigma, V=f.V * signs)

    monkeypatch.setattr(spectral, "svd", flipped)
    for (w, d), want in zip(cases, plain):
        got = spectral_perturbation_report(w, d)
        for field in ("spectrum_before", "spectrum_after", "subspace_alignment"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert got.delta_effective_rank == want.delta_effective_rank
        assert got.orthogonality_defect == want.orthogonality_defect


def test_effective_rank_basics():
    assert effective_rank(np.zeros((4, 4))) == 0
    assert effective_rank(np.eye(3)) == 3
    # below the RANK_TOL floor a matrix counts as zero, however uniform its spectrum
    assert effective_rank(1e-13 * np.eye(3)) == 0
    low = np.outer(np.ones(5), np.arange(1.0, 6.0))
    assert effective_rank(low) == 1


def test_effective_rank_relative_tolerance():
    # tiny uniform scaling must not change the rank
    w = np.diag([1.0, 1e-4, 1e-12])
    assert effective_rank(w) == 2
    assert effective_rank(1e-6 * w) == 2


def test_subspace_alignment_identity():
    w = random_matrix(5)
    fact = svd(w)
    cos = subspace_alignment(fact, fact)
    assert np.allclose(cos, 1.0, atol=1e-8)


def test_subspace_alignment_rotation_detected():
    fact_a = svd(np.diag([3.0, 1.0]))
    # swap the two singular directions: each 1-d subspace is now orthogonal
    fact_b = svd(np.diag([1.0, 3.0]))
    cos = subspace_alignment(fact_a, fact_b)
    assert np.allclose(cos, [0.0, 0.0], atol=1e-10)


def test_perturbation_report_pure_column_scaling():
    rng = np.random.default_rng(21)
    w = rng.normal(size=(8, 8))
    s = 0.01 * rng.normal(size=8)
    delta = w * s[np.newaxis, :] * 0.0  # zero perturbation first
    report = spectral_perturbation_report(w, delta)
    assert report.delta_effective_rank == 0
    assert np.allclose(report.spectrum_before, report.spectrum_after, atol=1e-12)
    assert report.orthogonality_defect < 1e-8


def test_perturbation_report_shift_changes_spectrum():
    rng = np.random.default_rng(22)
    w = rng.normal(size=(6, 6))
    delta = 0.5 * rng.normal(size=(6, 6))
    report = spectral_perturbation_report(w, delta)
    assert not np.allclose(report.spectrum_before, report.spectrum_after, atol=1e-6)
    assert report.delta_effective_rank == effective_rank(delta)


def test_singular_item_identity_scalar_case():
    w = np.array([[2.5]])
    dev = verify_singular_item_identity(w, np.array([0.3]), np.array([-0.7]))
    assert dev < 1e-14


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_singular_item_identity_random(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 17))
    n = int(rng.integers(1, 17))
    w = rng.normal(size=(m, n))
    s_left = rng.normal(size=m)
    s_right = rng.normal(size=n)
    assert verify_singular_item_identity(w, s_left, s_right) < 1e-8
