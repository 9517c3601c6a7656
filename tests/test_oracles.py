"""Brute-force oracles: grid scan, sphere sampling, hull membership."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from sdpexact import linalg, model, oracles, solver
from conftest import q, make_explicit_instance, make_gtrs, random_sym


@st.composite
def scan_cases(draw):
    """An instance with inequalities and equalities, a box, a grid step and
    extra points, all dyadic: both evaluation orders are then exact, so the
    masks must agree bit for bit, not merely up to rounding at the band edge."""
    n = draw(st.integers(1, 3))
    ints = st.integers(-3, 3)

    def form():
        A = draw(hnp.arrays(np.int64, (n, n), elements=ints))
        b = draw(hnp.arrays(np.int64, n, elements=ints))
        return q(np.triu(A) + np.triu(A, 1).T, b / 2.0, draw(ints))

    inst = model.QcqpInstance(
        n, form(),
        tuple(form() for _ in range(draw(st.integers(1, 2)))),
        tuple(form() for _ in range(draw(st.integers(1, 2)))))
    r = draw(st.sampled_from((1.0, 2.0)))
    def points(dim):
        return draw(hnp.arrays(np.int64, (draw(st.integers(0, 20)), dim),
                               elements=st.integers(-8, 8))) * (r / 8.0)

    # extra points x, and homogeneous points z with no trailing 1
    return (inst, [(-r, r)] * n, draw(st.sampled_from((0.25, 0.5))),
            points(n), points(n + 1))


class TestScan:
    @given(scan_cases())
    def test_mask_matches_per_point_values(self, case):
        inst, box, res, extra, hom = case
        slack = oracles._feasibility_slack(inst, res)
        axes = oracles._axes(box, res)
        mesh = np.array(list(itertools.product(*axes)))  # C order
        # an open mesh, and the columns of a point matrix, against z^T F z
        # per point with z = (x, 1); every value is exact
        for xs, pts in ((np.ix_(*axes), mesh), (extra.T, extra)):
            ok, vals = model.scan(inst, xs, slack)
            assert ok.shape == vals.shape == np.broadcast_shapes(
                *(np.shape(x) for x in xs))
            z = np.hstack([pts, np.ones((len(pts), 1))])
            F = np.einsum("pi,kij,pj->kp", z, inst.forms, z)
            want = ((F[1:1 + inst.m_i] <= slack).all(axis=0)
                    & (np.abs(F[1 + inst.m_i:]) <= slack).all(axis=0))
            assert ok.reshape(-1).tolist() == want.tolist()
            assert vals.reshape(-1).tolist() == F[0].tolist()
        # homogeneous point columns: z^T F z itself
        want = np.einsum("pi,kij,pj->kp", hom, inst.forms, hom)
        for F, w in zip(inst.forms, want):
            assert np.reshape(linalg.form_values(F, hom.T), -1).tolist() == w.tolist()


class TestGrid:
    def test_trust_region_minimum(self):
        inst = model.QcqpInstance(
            1, q([[-1.0]], [0], 0), (q([[1.0]], [0], -1.0),))
        val, arg = oracles.grid_opt(inst, [(-2.0, 2.0)])
        assert abs(val - (-1.0)) <= 1e-2
        assert abs(abs(arg[0]) - 1.0) <= 2e-2

    def test_explicit_instance(self):
        val, arg = oracles.grid_opt(make_explicit_instance(), [(-2.0, 2.0)] * 2)
        assert abs(val - 2.0) <= 1e-2

    def test_deterministic(self):
        inst = make_explicit_instance()
        a = oracles.grid_opt(inst, [(-2.0, 2.0)] * 2)
        b = oracles.grid_opt(inst, [(-2.0, 2.0)] * 2)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_infeasible_returns_inf(self):
        inst = model.QcqpInstance(1, q([[1.0]], [0], 0), (q([[1.0]], [0], 1.0),))
        val, arg = oracles.grid_opt(inst, [(-2.0, 2.0)])
        assert np.isinf(val) and arg is None

    def test_equality_band_keeps_representatives(self):
        # x^2 = 1 is measure zero; the slack band must still find it
        inst = model.QcqpInstance(
            1, q([[1.0]], [1.0], 0), equalities=(q([[1.0]], [0], -1.0),))
        val, arg = oracles.grid_opt(inst, [(-2.0, 2.0)])
        assert abs(val - (-1.0)) <= 5e-2  # minimum at x = -1: 1 - 2 = -1
        assert arg[0] < 0

    def test_dimension_cap(self):
        inst = model.QcqpInstance(4, q(np.eye(4), np.zeros(4), 0))
        with pytest.raises(ValueError):
            oracles.grid_opt(inst, [(-1, 1)] * 4)

    @pytest.mark.parametrize("slab_points", [None, 500])
    def test_ties_go_to_first_point_in_c_order(self, monkeypatch, slab_points):
        # the objective is x1 alone, so every feasible x0 ties at the least
        # feasible x1; x0 >= -0.115 (with the 0.01 band) puts the first tie
        # at x0 = -0.11, and 500-point slabs spread the ties over 17 slabs
        if slab_points:
            monkeypatch.setattr(oracles, "_SLAB_POINTS", slab_points)
        zero = np.zeros((2, 2))
        inst = model.QcqpInstance(
            2, q(zero, [0.0, 0.5], 0.0),
            (q(zero, [-0.5, 0.0], -0.105), q(zero, [0.0, -0.5], -0.305)))
        box = [(-0.5, 0.5)] * 2
        val, arg = oracles.grid_opt(inst, box)
        slack = oracles._feasibility_slack(inst, 0.01)
        best, first = np.inf, None
        for p in itertools.product(*oracles._axes(box, 0.01)):
            if all(model.eval_form(g, p) <= slack for g in inst.inequalities):
                v = model.eval_form(inst.objective, p)
                if v < best:
                    best, first = v, np.array(p)
        assert np.isclose(first[0], -0.11) and np.isclose(first[1], -0.31)
        assert val == best
        assert np.array_equal(arg, first)

    def test_three_variables_in_bounded_memory(self):
        # the 401^3 grid of [-2, 2]^3 as a point matrix alone is 1.5 GB
        inst = model.QcqpInstance(
            3, q(np.diag([1.0, -2.0, 0.5]), [0.3, 0.0, -0.2], 0.0),
            (q(np.eye(3), [0, 0, 0], -1.0),))
        tracemalloc.start()
        try:
            val, arg = oracles.grid_opt(inst, [(-2.0, 2.0)] * 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert model.eval_form(inst.objective, arg) == pytest.approx(val, abs=1e-12)
        assert arg @ arg <= 1.0 + oracles._feasibility_slack(inst, 0.01)
        opt_sdp = solver.solve_opt_sdp(inst)[0]
        assert abs(val - opt_sdp) <= 1e-2 * max(1.0, abs(val))


class TestSphere:
    def test_unconstrained_min_eigenvalue(self):
        C = np.diag([1.0, 2.0, 3.0])
        val, z = oracles.sphere_min_rank_one([], C)
        assert abs(val - 1.0) <= 1e-6
        assert abs(abs(z[0]) - 1.0) <= 1e-3

    def test_constraint_respected(self):
        # forbid the best eigendirection: z1^2 <= z2^2 forces a higher value
        C = np.diag([1.0, 2.0, 3.0])
        M = np.diag([1.0, -1.0, 0.0])
        val, z = oracles.sphere_min_rank_one([M], C)
        assert val >= 1.0 - 1e-9
        assert abs(val - 1.5) <= 1e-5  # optimum at z1 = z2 = 1/sqrt(2)
        assert float(z @ M @ z) <= 1e-6

    def test_thin_feasible_set_recovered(self):
        # M1 + M2 = diag(0,1,0) is PSD, so feasible directions live in its
        # kernel; individually feasible ones reduce to z = +-e3 only
        M1 = np.diag([1.0, -1.0, 0.0])
        M2 = np.diag([-1.0, 2.0, 0.0])
        C = np.diag([5.0, 2.0, 1.0])
        val, z = oracles.sphere_min_rank_one([M1, M2], C)
        assert abs(val - 1.0) <= 1e-6
        assert abs(abs(z[2]) - 1.0) <= 1e-4

    def test_empty_feasible_set(self):
        val, z = oracles.sphere_min_rank_one([np.eye(2)], np.eye(2))
        assert np.isinf(val) and z is None

    def test_jointly_empty_feasible_set(self):
        # the kernel of the PSD combination is individually infeasible
        M1 = np.diag([1.0, 1.0, -1.0])
        M2 = np.diag([0.0, 0.0, 1.0])
        val, z = oracles.sphere_min_rank_one([M1, M2], np.diag([5.0, 2.0, 1.0]))
        assert np.isinf(val) and z is None

    def test_seed_determinism(self):
        C = np.diag([1.0, -1.0])
        a = oracles.sphere_min_rank_one([], C, samples=4096, seed=5)
        b = oracles.sphere_min_rank_one([], C, samples=4096, seed=5)
        assert a[0] == b[0]

    @pytest.fixture
    def slsqp_runs(self, monkeypatch):
        runs = []
        minimize = scipy.optimize.minimize

        def counted(*args, **kwargs):
            runs.append(1)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", counted)
        return runs

    # the constraint_respected case: optimum 1.5 on the edge z1^2 = z2^2
    STOP_CASE = ([np.diag([1.0, -1.0, 0.0])], np.diag([1.0, 2.0, 3.0]))

    def _feasible(self, val, z):
        Mset, C = self.STOP_CASE
        assert np.isfinite(val) and abs(float(z @ z) - 1.0) <= 1e-12
        assert abs(val - float(z @ C @ z)) <= 1e-12
        assert all(float(z @ M @ z) <= oracles.SPHERE_SLACK for M in Mset)

    def test_stop_above_first_polish_runs_one_start(self, slsqp_runs):
        val, z = oracles.sphere_min_rank_one(*self.STOP_CASE, samples=4096,
                                             stop_at=1e300)
        assert len(slsqp_runs) == 1
        self._feasible(val, z)
        # the stop test is inclusive: a stop at that very value also ends there
        again = oracles.sphere_min_rank_one(*self.STOP_CASE, samples=4096,
                                            stop_at=val)
        assert len(slsqp_runs) == 2 and again[0] == val

    @pytest.mark.parametrize("stop_at", [None, -np.inf, np.inf, np.nan])
    def test_no_finite_stop_polishes_every_start(self, slsqp_runs, stop_at):
        full, _ = oracles.sphere_min_rank_one(*self.STOP_CASE, samples=4096)
        starts = len(slsqp_runs)
        assert starts > 1
        val, z = oracles.sphere_min_rank_one(*self.STOP_CASE, samples=4096,
                                             stop_at=stop_at)
        assert len(slsqp_runs) == 2 * starts and val == full
        self._feasible(val, z)

    def test_early_value_bounds_the_full_one(self, slsqp_runs):
        # a stop below the optimum is never reached; one above it cuts the
        # polish short, and the full value is then at most the early one
        full, _ = oracles.sphere_min_rank_one(*self.STOP_CASE, samples=4096)
        starts = len(slsqp_runs)
        assert oracles.sphere_min_rank_one(*self.STOP_CASE, samples=4096,
                                           stop_at=full - 1e-3)[0] == full
        assert len(slsqp_runs) == 2 * starts
        val, z = oracles.sphere_min_rank_one(*self.STOP_CASE, samples=4096,
                                             stop_at=full + 1e-3)
        assert len(slsqp_runs) < 3 * starts
        assert full <= val <= full + 1e-3
        self._feasible(val, z)


def _central_jacobian(f, v, h):
    cols = [(np.atleast_1d(f(v + h * e)) - np.atleast_1d(f(v - h * e))) / (2.0 * h)
            for e in np.eye(v.size)]
    return np.column_stack(cols)


class TestSphereDerivatives:
    def test_gradients_match_central_differences(self, monkeypatch):
        calls = []

        def capture(fun, x0, jac=None, constraints=(), **kwargs):
            calls.append((fun, jac, constraints))
            return scipy.optimize.OptimizeResult(success=False)

        monkeypatch.setattr(scipy.optimize, "minimize", capture)
        rng = np.random.default_rng(4)
        d = 4
        mats = [random_sym(rng, d) for _ in range(3)]
        oracles.sphere_min_rank_one(mats, random_sym(rng, d), samples=256)
        assert calls and all(c[2] is calls[0][2] for c in calls)
        fun, jac, cons = calls[0]
        assert sorted(c["type"] for c in cons) == ["eq", "ineq"]
        pairs = [(fun, jac)] + [(c["fun"], c["jac"]) for c in cons]
        ineq = next(c["fun"] for c in cons if c["type"] == "ineq")
        points = [rng.standard_normal(d) for _ in range(5)]
        points.append(1e-8 * rng.standard_normal(d))  # inside the 1e-12 guard
        assert points[-1] @ points[-1] < 1e-12
        for v in points:
            want = [-(v @ M @ v) / max(1e-12, v @ v) for M in mats]
            np.testing.assert_allclose(ineq(v), want, rtol=1e-12)
            h = 1e-6 * np.linalg.norm(v)
            for f, g in pairs:
                # central differences are exact on quadratics up to the
                # rounding of f, which the step then amplifies
                fmax = max(1.0, float(np.max(np.abs(f(v)))))
                np.testing.assert_allclose(
                    np.atleast_2d(g(v)), _central_jacobian(f, v, h),
                    rtol=1e-6, atol=1e-14 * fmax / h)


def _unit_ball_concave(n):
    """min -||x||^2 over the unit ball: the hull reaches down to t = -1."""
    return model.QcqpInstance(
        n, q(-np.eye(n), np.zeros(n), 0.0),
        (q(np.eye(n), np.zeros(n), -1.0),))


class TestMembership:
    @pytest.fixture
    def no_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the hull LP ran")

        monkeypatch.setattr(scipy.optimize, "linprog", refuse)

    @pytest.fixture
    def linprog_calls(self, monkeypatch):
        """Counts scipy.optimize.linprog calls: one list entry per call."""
        calls = []
        real = scipy.optimize.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counted)
        return calls

    def test_boundary_point_in_hull(self, no_lp):
        inst = make_explicit_instance()
        assert oracles.conv_membership_sample(inst, [0.0, 0.0], 2.0) == "LIKELY_IN"

    def test_point_below_hull_rejected(self, linprog_calls):
        inst = make_explicit_instance()
        assert oracles.conv_membership_sample(inst, [0.0, 0.0], 1.5) == "NOT_SHOWN"
        assert len(linprog_calls) == 1

    def test_vertical_ray_included(self, no_lp):
        inst = make_explicit_instance()
        assert oracles.conv_membership_sample(inst, [0.0, 0.0], 50.0) == "LIKELY_IN"

    def test_lp_accepts_what_the_combination_misses(self, linprog_calls):
        # criterion-06 relaxation point (make_gtrs(19), point 11): the NNLS
        # combination misses by about 0.0113, the LP optimum is about 0.0085
        inst = make_gtrs(19)
        x = [0.9319251099164659, 0.3626506633491966]
        status = oracles.conv_membership_sample(
            inst, x, -0.7668525111779743, n_samples=200)
        assert status == "LIKELY_IN"
        assert len(linprog_calls) == 1

    @pytest.mark.parametrize("n", [1, 3])
    def test_unit_ball(self, n, linprog_calls):
        inst = _unit_ball_concave(n)
        # the centre at t = -1 averages antipodal boundary points
        assert oracles.conv_membership_sample(inst, np.zeros(n), -1.0) == "LIKELY_IN"
        assert not linprog_calls
        assert oracles.conv_membership_sample(inst, np.zeros(n), -1.2) == "NOT_SHOWN"
        assert len(linprog_calls) == 1

    @pytest.mark.parametrize("x, t", [
        ([0.0, 0.0, 5.0], 0.0),
        ([0.0], 0.0),
        ([0.0, 0.0], np.nan),
        ([0.0, 0.0], np.inf),
        ([np.nan, 0.0], 0.0),
    ], ids=["long_x", "short_x", "nan_t", "inf_t", "nan_x"])
    def test_malformed_point_rejected(self, x, t):
        with pytest.raises(ValueError):
            oracles.conv_membership_sample(make_explicit_instance(), x, t)


class TestCompare:
    def test_explicit_instance_flagged_exact(self):
        inst = make_explicit_instance()
        rep = oracles.compare_opt(inst, solver.solve_opt_sdp(inst)[0])
        assert rep.exactness_flag
        assert abs(rep.opt_grid - 2.0) <= 1e-2
        assert abs(rep.opt_sdp - 2.0) <= 1e-4

    def test_relaxation_below_grid(self):
        # indefinite objective over the ball: relaxation is exact here too,
        # and the grid value can never undercut it by more than the tolerance
        inst = model.QcqpInstance(
            2, q(np.diag([1.0, -1.0]), [0.0, 0.5], 0),
            (q(np.eye(2), [0, 0], -1.0),))
        rep = oracles.compare_opt(inst, solver.solve_opt_sdp(inst)[0])
        assert rep.opt_grid >= rep.opt_sdp - 1e-2 * max(1.0, abs(rep.opt_grid))
