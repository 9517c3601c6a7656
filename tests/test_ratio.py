"""Ratio-of-quadratics solver and the total-least-squares front end."""

import numpy as np
import pytest

from sdpexact import ratio, rog


class TestRayleigh:
    def test_unconstrained_ratio_is_smallest_eigenvalue(self):
        # min z^T diag(2,5,1) z / ||z||^2 = 1
        p = ratio.RatioProblem(np.diag([2.0, 5.0, 1.0]), np.eye(3),
                               rog.LmiSet((), ()))
        out = ratio.solve_ratio(p)
        assert abs(out["value"] - 1.0) <= 1e-5
        assert out["claim"] == "EXACT"
        assert out["hypotheses"]["rog"]["status"] == "ROG_CERTIFIED"
        assert out["hypotheses"]["dual"]["found"]

    def test_generic_rayleigh(self):
        rng = np.random.default_rng(8)
        G = rng.standard_normal((4, 4))
        C = 0.5 * (G + G.T)
        p = ratio.RatioProblem(C, np.eye(4), rog.LmiSet((), ()))
        out = ratio.solve_ratio(p)
        lo = float(np.linalg.eigvalsh(C)[0])
        assert abs(out["value"] - lo) <= 1e-5 * max(1.0, abs(lo))
        # C is indefinite: the certificate is the solve's multiplier -lo
        dual = out["hypotheses"]["dual"]
        assert lo < 0 and dual["found"] and out["claim"] == "EXACT"
        assert abs(dual["lam"] + lo) <= 1e-5 * max(1.0, abs(lo))


class TestRtls:
    def test_build_matrices(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        b = np.array([1.0, -1.0, 0.5])
        p = ratio.build_rtls(A, b, 1.5)
        q = 2
        assert np.allclose(p.M_obj[:q, :q], A.T @ A)
        assert np.allclose(p.M_obj[:q, q], -A.T @ b)
        assert abs(p.M_obj[q, q] - float(b @ b)) <= 1e-12
        assert np.allclose(p.B, np.eye(3))
        assert np.allclose(p.mset.matrices[0], np.diag([1.0, 1.0, -1.5 ** 2]))

    def test_objective_matches_residual_ratio(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((4, 2))
        b = rng.standard_normal(4)
        p = ratio.build_rtls(A, b, 1.0)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=2)
            if float(x @ x) > 1.0:
                continue
            z = np.concatenate([x, [1.0]])
            num = float(z @ p.M_obj @ z)
            den = float(z @ p.B @ z)
            direct = float(np.sum((A @ x - b) ** 2)) / (float(x @ x) + 1.0)
            assert abs(num / den - direct) <= 1e-10 * max(1.0, direct)

    def test_seeded_instance_exact_and_matches_grid(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 2))
        b = rng.standard_normal(4)
        p = ratio.build_rtls(A, b, 1.0)
        out = ratio.solve_ratio(p)
        grid = ratio.rtls_grid_value(A, b, 1.0)
        assert out["claim"] == "EXACT"
        assert out["sigma_ratio"] is not None and out["sigma_ratio"] <= 1e-5
        assert abs(out["value"] - grid) <= 1e-2
        # the recovered point is feasible and attains the value
        z = out["z"]
        assert z is not None and abs(z[-1] - 1.0) <= 1e-9
        x = z[:2]
        assert float(x @ x) <= 1.0 + 1e-6
        attained = float(np.sum((A @ x - b) ** 2)) / (float(x @ x) + 1.0)
        assert abs(attained - out["value"]) <= 1e-4 * max(1.0, attained)

    def test_hypotheses_are_the_checked_ones(self):
        p = ratio.build_rtls(np.array([[1.0], [2.0]]), np.array([1.0, 0.0]), 1.0)
        assert set(ratio.solve_ratio(p)["hypotheses"]) == {"rog", "dual"}

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            ratio.build_rtls(np.eye(2), [1.0, 1.0], 0.0)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ratio.build_rtls(np.eye(2), [1.0, 1.0, 1.0], 1.0)
