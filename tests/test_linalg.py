"""Symmetric linear algebra: eigensolver, classification, resultant."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdpexact import linalg
from conftest import random_sym


class TestSym:
    def test_symmetrizes_tiny_skew(self):
        A = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
        S = linalg.sym(A)
        assert np.array_equal(S, S.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.sym(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            linalg.sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e6])
    def test_rejects_asymmetric_at_every_scale(self, s):
        # the skew part is measured against the matrix's own norm, with no
        # floor at 1 that would let a tiny asymmetric input through
        with pytest.raises(ValueError):
            linalg.sym(np.array([[0.0, s], [0.0, 0.0]]))

    def test_exactly_symmetric_input_is_copied(self):
        A = random_sym(np.random.default_rng(3), 4)
        A.setflags(write=False)
        S = linalg.sym(A)
        assert np.array_equal(S, A)
        assert not np.shares_memory(S, A) and S.flags.writeable

    def test_accepts_zero_matrix(self):
        assert np.array_equal(linalg.sym(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_scalar_becomes_1x1(self):
        assert linalg.sym(3.0).shape == (1, 1)


class TestFormValues:
    def test_coordinate_count_checked(self):
        # dim coordinates read as z, dim - 1 as (x, 1); nothing else
        F = np.eye(3)
        assert linalg.form_values(F, [1.0, 2.0, 3.0]) == 14.0
        assert linalg.form_values(F, [1.0, 2.0]) == 6.0
        for xs in ([1.0], [1.0] * 4):
            with pytest.raises(ValueError):
                linalg.form_values(F, xs)


class TestEig:
    def test_diagonal_matrix_sorted(self):
        spec = linalg.eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)

    def test_known_2x2(self):
        # [[2,1],[1,2]] has eigenvalues 1 and 3
        spec = linalg.eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_reconstruction_and_orthogonality_battery(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            d = int(rng.integers(2, 9))
            S = random_sym(rng, d) * float(rng.choice([1e-3, 1.0, 1e3]))
            spec = linalg.eig_sym(S)
            V, w = spec.eigenvectors, spec.eigenvalues
            scale = max(1.0, float(np.max(np.abs(w))))
            assert np.linalg.norm((V * w) @ V.T - S) <= 1e-10 * scale
            assert np.linalg.norm(V.T @ V - np.eye(d)) <= 1e-10
            assert np.all(np.diff(w) >= -1e-12 * scale)

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            S = random_sym(rng, int(rng.integers(2, 7)))
            w = linalg.eig_sym(S).eigenvalues
            ref = np.linalg.eigvalsh(S)
            assert np.allclose(w, ref, atol=1e-10 * max(1.0, np.abs(ref).max()))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            linalg.eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_1x1(self):
        spec = linalg.eig_sym(np.array([[-2.5]]))
        assert spec.eigenvalues.shape == (1,)
        assert spec.eigenvalues[0] == -2.5
        assert spec.eigenvectors.shape == (1, 1)
        assert abs(spec.eigenvectors[0, 0]) == 1.0

    def test_repeated_eigenvalues_orthonormal(self):
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        S = Q @ np.diag([2.0, 2.0, 2.0, -1.0, -1.0]) @ Q.T
        spec = linalg.eig_sym(0.5 * (S + S.T))
        V, w = spec.eigenvectors, spec.eigenvalues
        assert np.allclose(w, [-1.0, -1.0, 2.0, 2.0, 2.0], atol=1e-12)
        assert np.linalg.norm(V.T @ V - np.eye(5)) <= 1e-12
        assert np.linalg.norm((V * w) @ V.T - S) <= 1e-12


class TestRankKernel:
    def test_rank_plus_kernel_equals_dim(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            r = int(rng.integers(0, d + 1))
            B = rng.standard_normal((d, r))
            S = B @ B.T
            K = linalg.kernel_basis(S)
            assert K.shape == (d, d - r)
            if K.size:
                assert np.linalg.norm(S @ K) <= 1e-6 * max(1.0, np.linalg.norm(S))
                assert np.linalg.norm(K.T @ K - np.eye(d - r)) <= 1e-10

    def test_rank_and_kernel_are_scale_free(self):
        # the cut is relative to ||S||_2 alone, so scaling never moves it
        # (at 1e-6 the eigenvalues below are all under 1e-7 but the largest),
        # and an exact zero matrix has rank 0 and the whole space as kernel
        Q, _ = np.linalg.qr(np.random.default_rng(29).standard_normal((4, 4)))
        for w, r in (([3.0, 0, 0, 0], 1), ([3.0, -0.05, 0, 0], 2),
                     ([3.0, -0.05, 0.01, 0], 3)):
            S = (Q * w) @ Q.T
            for s in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                assert linalg.kernel_basis(s * S).shape == (4, 4 - r), (r, s)
        assert linalg.kernel_basis(np.zeros((3, 3))).shape == (3, 3)

class TestResultant:
    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    def test_shared_root_gives_zero(self, r, a, b):
        # q1 = (s - r)(s - a), q2 = (s - r)(s - b) share the root s = r
        q1 = (1.0, -(r + a), r * a)
        q2 = (1.0, -(r + b), r * b)
        scale = max(1.0, abs(r), abs(a), abs(b)) ** 4
        assert abs(linalg.binary_quadratic_resultant(q1, q2)) <= 1e-9 * scale

    def test_distinct_roots_nonzero(self):
        # roots {1, 2} vs {3, 4}: resultant = prod of differences = (1-3)(1-4)(2-3)(2-4)
        q1 = (1.0, -3.0, 2.0)
        q2 = (1.0, -7.0, 12.0)
        val = linalg.binary_quadratic_resultant(q1, q2)
        assert abs(val - (-2.0) * (-3.0) * (-1.0) * (-2.0)) <= 1e-12

    def test_symmetry_up_to_sign_convention(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q1 = tuple(rng.standard_normal(3))
            q2 = tuple(rng.standard_normal(3))
            v12 = linalg.binary_quadratic_resultant(q1, q2)
            v21 = linalg.binary_quadratic_resultant(q2, q1)
            assert abs(v12 - v21) <= 1e-10 * max(1.0, abs(v12))
