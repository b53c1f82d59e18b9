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


@pytest.mark.parametrize("w", [np.zeros((0, 3)), np.zeros((3, 0)), np.ones(4)],
                         ids=["no-rows", "no-columns", "1-D"])
def test_svd_rejects_an_empty_or_1d_input(w):
    with pytest.raises(ValueError, match=r"^svd needs a non-empty 2-D matrix, got shape"):
        svd(w)


def test_report_on_a_zero_matrix_has_no_defect_and_rank_zero():
    w = np.zeros((4, 3))
    report = spectral_perturbation_report(w, w)
    assert report.orthogonality_defect == 0.0 and report.delta_effective_rank == 0
    assert not report.spectrum_before.any() and not report.spectrum_after.any()


def test_report_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match=r"^shape mismatch: w \(3, 4\) vs delta \(4, 3\)$"):
        spectral_perturbation_report(np.ones((3, 4)), np.ones((4, 3)))


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
        signs = np.where(np.arange(f.sigma.size) % 2, -1.0, 1.0)
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


def _loop_alignment(before, after):
    """The per-cluster loop subspace_alignment replaced: one LAPACK SVD per cluster."""
    sigma, k = before.sigma, before.sigma.size
    scale = max(float(sigma[0]), 1.0)
    bounds, start = [], 0
    for j in range(1, k):
        if abs(sigma[j] - sigma[j - 1]) > 1e-8 * scale:
            bounds.append((start, j))
            start = j
    bounds.append((start, k))
    out = np.zeros(k)
    for start, stop in bounds:
        Vb = before.V[:, start:stop]
        Va = after.V[:, start:stop]
        out[start:stop] = np.linalg.svd(Vb.T @ Va, compute_uv=False)
    return out, bounds


def _with_spectrum(rng, m, n, sigma):
    """U diag(sigma) V^T with random orthonormal U (m x k) and V (n x k)."""
    k = len(sigma)
    U, _ = np.linalg.qr(rng.normal(size=(m, k)))
    V, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return (U * np.asarray(sigma, dtype=np.float64)) @ V.T


def _alignment_case(name, rng):
    """A W for the named case, and the size of its spectrum's largest cluster."""
    if name in ("64x64", "64x256", "256x64"):  # the bench's matrix shapes
        return 0.02 * rng.normal(size=tuple(map(int, name.split("x")))), 1
    if name.startswith("repeated_"):
        sigma = np.linspace(3.0, 0.5, 12)
        at = {"repeated_start": 0, "repeated_middle": 5, "repeated_end": 10}[name]
        sigma[at + 1] = sigma[at]
        return _with_spectrum(rng, 12, 12, sigma), 2
    if name == "orthogonal":  # one cluster: every singular value is 1
        return np.linalg.qr(rng.normal(size=(10, 10)))[0], 10
    if name == "rank_deficient":  # rank 3 of 8: the five zeros are one cluster
        return rng.normal(size=(10, 3)) @ rng.normal(size=(3, 8)), 5
    return rng.normal(size={"k1_row": (1, 7), "k1_column": (7, 1)}[name]), 1


@pytest.mark.parametrize("name", [
    "64x64", "64x256", "256x64", "repeated_start", "repeated_middle", "repeated_end",
    "orthogonal", "k1_row", "k1_column", "rank_deficient",
])
def test_subspace_alignment_bitwise_equals_per_cluster_loop(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    w, largest = _alignment_case(name, rng)
    m, n = w.shape
    # a rank-1 residual rescaling, W + s_l ⊙ W ⊙ s_r^T, as `analyze` sees after a merge
    delta = np.outer(0.2 * rng.normal(size=m), rng.normal(size=n)) * w
    before, after = svd(w), svd(w + delta)
    want, bounds = _loop_alignment(before, after)
    assert spectral._cluster_bounds(before.sigma) == bounds
    assert max(stop - start for start, stop in bounds) == largest
    got = subspace_alignment(before, after)
    assert got.dtype == np.float64 and got.shape == (before.sigma.size,)
    assert got.tobytes() == want.tobytes()


def _count_lapack_svd(monkeypatch):
    calls = []
    lapack_svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return lapack_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_report_makes_three_lapack_svds_plus_one_per_degenerate_cluster(monkeypatch):
    rng = np.random.default_rng(26)
    distinct = 0.02 * rng.normal(size=(64, 64))
    # three multi-item clusters: a pair, a triple and the 4-fold zero of rank 60
    sigma = np.concatenate([np.linspace(4.0, 1.0, 60), np.zeros(4)])
    sigma[[10, 30, 31]] = sigma[[9, 29, 29]]
    degenerate = _with_spectrum(rng, 64, 64, sigma)
    calls = _count_lapack_svd(monkeypatch)
    for w, clusters in ((distinct, 0), (degenerate, 3)):
        calls.clear()
        spectral_perturbation_report(w, 0.01 * rng.normal(size=w.shape))
        assert len(calls) == 3 + clusters
        # svd(W), svd(W + dW) and the delta's singular values, plus one per cluster
        assert calls.count((64, 64)) == 3
        assert sorted(c for c in calls if c != (64, 64)) == [(2, 2), (3, 3), (4, 4)][:clusters]


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
