"""Truncated-SVD solver battery: exact small cases plus invariants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lovebem.tsvd import (RegularizationPolicy, SolveReport,
                          condition_at_threshold, factorize, tsvd_solve)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def graded_matrix(rng, sigmas):
    m = len(sigmas)
    q1 = np.linalg.qr(random_complex(rng, (m, m)))[0]
    q2 = np.linalg.qr(random_complex(rng, (m, m)))[0]
    return q1 @ np.diag(sigmas) @ q2.conj().T


class TestPolicy:
    def test_defaults(self):
        policy = RegularizationPolicy()
        assert policy.threshold == 1e-6

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_threshold(self, tau):
        with pytest.raises(ValueError):
            RegularizationPolicy(threshold=tau)


class TestSolve:
    def test_diagonal_truncation(self):
        a = np.diag([1.0, 1e-3, 1e-9])
        b = np.ones(3)
        x, report = tsvd_solve(factorize(a), b,
                               RegularizationPolicy(threshold=1e-6))
        np.testing.assert_allclose(x, [1.0, 1000.0, 0.0], rtol=1e-12)
        assert report.rank == 2
        assert report.condition == pytest.approx(1000.0, rel=1e-12)
        assert report.sigma_max == pytest.approx(1.0)
        assert report.sigma_cut == pytest.approx(1e-3)

    def test_identity(self):
        b = np.array([2.0, -1.0, 0.5, 3.0])
        x, report = tsvd_solve(factorize(np.eye(4)), b)
        np.testing.assert_allclose(x, b, rtol=0, atol=1e-14)
        assert report.condition == pytest.approx(1.0)
        assert report.residual <= 1e-14

    def test_range_consistency_tall(self):
        rng = np.random.default_rng(21)
        a = random_complex(rng, (50, 30))
        y = random_complex(rng, 30)
        b = a @ y
        x, report = tsvd_solve(factorize(a), b,
                               RegularizationPolicy(threshold=1e-14))
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
        assert report.rank == 30
        assert report.residual <= 1e-10

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            tsvd_solve(factorize(np.zeros((3, 3))), np.ones(3))

    def test_nonfinite_rejected(self):
        a = np.eye(3)
        a[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            factorize(a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            tsvd_solve(factorize(np.eye(3)), np.ones(4))

    def test_matches_lstsq_at_full_rank(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, (40, 40))
        b = random_complex(rng, 40)
        x, _ = tsvd_solve(factorize(a), b,
                          RegularizationPolicy(threshold=1e-14))
        ref = np.linalg.solve(a, b)
        np.testing.assert_allclose(x, ref, rtol=1e-9)

    def test_factors_give_the_direct_svd_bits(self):
        # Reference: the solve made from one np.linalg.svd call.
        rng = np.random.default_rng(17)
        a = graded_matrix(rng, np.logspace(0.0, -9.0, 24))[:, :18]
        b = random_complex(rng, 24)
        policy = RegularizationPolicy(threshold=1e-5)
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        rank = int(np.count_nonzero(s >= policy.threshold * s[0]))
        x_ref = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ b) / s[:rank])
        x, report = tsvd_solve(factorize(a), b, policy)
        assert np.array_equal(x, x_ref)
        assert report == SolveReport(
            sigma_max=float(s[0]), sigma_cut=float(s[rank - 1]), rank=rank,
            condition=float(s[0] / s[rank - 1]),
            residual=float(np.linalg.norm(a @ x_ref - b))
            / float(np.linalg.norm(b)))

    def test_factors_are_read_only(self):
        factors = factorize(np.eye(3))
        assert factors.shape == (3, 3)
        for arr in (factors.matrix, factors.u, factors.sigmas, factors.vh):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_bit_identical_repeat(self):
        rng = np.random.default_rng(13)
        a = random_complex(rng, (20, 15))
        b = random_complex(rng, 20)
        x1, r1 = tsvd_solve(factorize(a), b)
        x2, r2 = tsvd_solve(factorize(a), b)
        assert np.array_equal(x1, x2)
        assert r1 == r2


class TestCondition:
    def test_diagonal(self):
        a = np.diag([1.0, 1e-3, 1e-9])
        policy = RegularizationPolicy(threshold=1e-6)
        assert condition_at_threshold(a, policy) == pytest.approx(
            1e3, rel=1e-12)

    @pytest.mark.parametrize("scale", [3.0, 1e-8, 2.5e7, 1.0 + 2.0j])
    def test_scale_invariant(self, scale):
        rng = np.random.default_rng(5)
        a = graded_matrix(rng, [1.0, 0.1, 1e-4, 1e-8])
        policy = RegularizationPolicy(threshold=1e-6)
        base = condition_at_threshold(a, policy)
        assert condition_at_threshold(scale * a, policy) == pytest.approx(
            base, rel=1e-10)

    def test_agrees_with_solve_report(self):
        rng = np.random.default_rng(6)
        a = graded_matrix(rng, [2.0, 0.5, 1e-5, 1e-9])
        policy = RegularizationPolicy(threshold=1e-4)
        _, report = tsvd_solve(factorize(a), np.ones(4), policy)
        assert condition_at_threshold(a, policy) == pytest.approx(
            report.condition, rel=1e-13)


class TestInvariants:
    def test_pseudo_inverse_identity(self):
        rng = np.random.default_rng(31)
        sigmas = [1.0, 0.3, 1e-2, 1e-5, 1e-9, 1e-12]
        a = graded_matrix(rng, sigmas)
        policy = RegularizationPolicy(threshold=1e-6)
        factors = factorize(a)
        pinv_applied = np.stack(
            [tsvd_solve(factors, col, policy)[0] for col in a.T], axis=1)
        u, s, vh = np.linalg.svd(a)
        keep = s >= policy.threshold * s[0]
        a_tau = (u[:, keep] * s[keep]) @ vh[keep]
        defect = np.linalg.norm(a @ pinv_applied - a_tau, 2)
        assert defect <= 1e-12 * s[0]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_condition_unitarily_invariant(self, seed):
        rng = np.random.default_rng(seed)
        a = graded_matrix(rng, [1.0, 0.2, 3e-3, 1e-7])
        q1 = np.linalg.qr(random_complex(rng, (4, 4)))[0]
        q2 = np.linalg.qr(random_complex(rng, (4, 4)))[0]
        policy = RegularizationPolicy(threshold=1e-5)
        base = condition_at_threshold(a, policy)
        rotated = condition_at_threshold(q1 @ a @ q2, policy)
        assert rotated == pytest.approx(base, rel=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(lo=st.floats(min_value=-13.0, max_value=-1.0),
           hi=st.floats(min_value=-13.0, max_value=-1.0))
    def test_rank_monotone_in_threshold(self, lo, hi):
        t1, t2 = sorted([10.0 ** lo, 10.0 ** hi])
        rng = np.random.default_rng(2)
        a = graded_matrix(rng, [1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
        factors = factorize(a)
        _, tight = tsvd_solve(factors, np.ones(6), RegularizationPolicy(t2))
        _, loose = tsvd_solve(factors, np.ones(6), RegularizationPolicy(t1))
        assert loose.rank >= tight.rank
