"""Conic solver: vectorization, known optima, KKT residuals, membership."""

import numpy as np
import pytest

from sdpexact import linalg, model, solver
from conftest import q, make_explicit_instance, make_gtrs, random_sym


class TestSvec:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 3, 5):
            M = random_sym(rng, d)
            v = solver.svec(M, d)
            assert v.shape == (d * (d + 1) // 2,)
            assert np.allclose(solver.smat(v, d), M, atol=1e-14)

    def test_inner_product_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            d = int(rng.integers(1, 6))
            A = random_sym(rng, d)
            B = random_sym(rng, d)
            assert abs(float(np.sum(A * B)) -
                       float(solver.svec(A, d) @ solver.svec(B, d))) <= 1e-10 * max(
                1.0, np.linalg.norm(A) * np.linalg.norm(B))


    def test_smat_matches_triangle_sum(self):
        rng = np.random.default_rng(5)
        for d in range(1, 6):
            nz = d * (d + 1) // 2
            for _ in range(20):
                v = rng.standard_normal(nz)
                v[rng.random(nz) < 0.3] = -0.0
                M = solver.smat(v, d)
                iu = np.triu_indices(d)
                U = np.zeros((d, d))
                U[iu] = v / np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
                assert M.tobytes() == (U + np.triu(U, 1).T).tobytes()
                assert M.tobytes() == M.T.tobytes()

    def test_lifting_matrices(self):
        rng = np.random.default_rng(6)
        for d in range(1, 7):
            nz = d * (d + 1) // 2
            L, Sv = solver._lifts(d)
            assert L.shape == (d * d, nz) and Sv.shape == (nz, d * d)
            for _ in range(5):
                M = random_sym(rng, d)
                assert np.allclose(L @ solver.svec(M, d), M.ravel(), rtol=0, atol=1e-15)
                assert np.array_equal(Sv @ M.ravel(), solver.svec(M, d))
            assert np.allclose(Sv @ L, np.eye(nz), rtol=0, atol=1e-15)


class TestKnownOptima:
    def test_min_trace_with_pinned_corner(self):
        prog = solver.ConicProgram(
            dim=2, objective_matrix=np.eye(2),
            constraints=(solver.Constraint(np.diag([1.0, 0.0]), "EQ", 1.0),))
        sol = solver.solve(prog)
        assert sol.status == solver.SolveStatus.OPTIMAL
        assert abs(sol.objective_value - 1.0) <= 1e-5

    def test_trace_normalized_min_is_smallest_eigenvalue(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            C = random_sym(rng, d)
            prog = solver.ConicProgram(
                dim=d, objective_matrix=C,
                constraints=(solver.Constraint(np.eye(d), "EQ", 1.0),))
            sol = solver.solve(prog)
            lo = float(np.linalg.eigvalsh(C)[0])
            assert sol.status == solver.SolveStatus.OPTIMAL
            assert abs(sol.objective_value - lo) <= 1e-5 * max(1.0, abs(lo))

    def test_le_constraint_binds(self):
        # min Z11 - Z22 with tr Z = 1 and Z22 <= 0.3: optimum 1 - 2*0.3 = 0.4
        prog = solver.ConicProgram(
            dim=2, objective_matrix=np.diag([1.0, -1.0]),
            constraints=(solver.Constraint(np.diag([0.0, 1.0]), "LE", 0.3),
                         solver.Constraint(np.eye(2), "EQ", 1.0)))
        sol = solver.solve(prog)
        assert sol.status == solver.SolveStatus.OPTIMAL
        assert abs(sol.objective_value - 0.4) <= 1e-5
        # LE multiplier nonnegative under the aggregation convention
        assert sol.y[0] >= -1e-6

    def test_no_constraints_returns_zero(self):
        prog = solver.ConicProgram(dim=2, objective_matrix=np.eye(2), constraints=())
        sol = solver.solve(prog)
        assert sol.status == solver.SolveStatus.OPTIMAL
        assert sol.objective_value == 0.0

    def test_no_constraints_indefinite_is_unbounded(self):
        C = np.diag([1.0, -2.0])
        prog = solver.ConicProgram(dim=2, objective_matrix=C, constraints=())
        sol = solver.solve(prog)
        assert sol.status == solver.SolveStatus.UNBOUNDED_LIKELY
        assert sol.objective_value == -np.inf
        # the returned Z is an improving PSD ray
        assert np.linalg.eigvalsh(sol.Z)[0] >= -1e-12
        assert float(np.sum(C * sol.Z)) < 0.0

    def test_one_by_one_program(self):
        # min Z s.t. Z <= 2, Z = 1: the lifted product at d = 1
        prog = solver.ConicProgram(
            dim=1, objective_matrix=np.eye(1),
            constraints=(solver.Constraint(np.eye(1), "LE", 2.0),
                         solver.Constraint(np.eye(1), "EQ", 1.0)))
        sol = solver.solve(prog)
        assert sol.status == solver.SolveStatus.OPTIMAL
        assert sol.iterations == 50
        assert np.allclose(sol.Z, [[1.0]], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_iteration_budget_rejected(self, max_iter):
        prog = solver.ConicProgram(
            dim=2, objective_matrix=np.eye(2),
            constraints=(solver.Constraint(np.eye(2), "EQ", 1.0),))
        with pytest.raises(ValueError):
            solver.solve(prog, max_iter=max_iter)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, bad):
        M = np.eye(2)
        M[0, 1] = M[1, 0] = bad
        with np.errstate(invalid="ignore"):
            prog = solver.ConicProgram(dim=2, objective_matrix=np.eye(2),
                                       constraints=(solver.Constraint(M, "EQ", 1.0),))
            with pytest.raises(ValueError):
                solver.solve(prog)

    def test_final_penalty_reported(self):
        # min Z33 over three diagonal LE rows and Z11 + Z22 = 1 runs past
        # the first penalty check and ends with the penalty doubled
        rows = ([4.0, 4.0, -1.0], [1.0, 4.0, -1.0], [4.0, 1.0, -1.0])
        prog = solver.ConicProgram(
            dim=3, objective_matrix=np.diag([0.0, 0.0, 1.0]),
            constraints=tuple(solver.Constraint(np.diag(r), "LE", 0.0) for r in rows)
            + (solver.Constraint(np.diag([1.0, 1.0, 0.0]), "EQ", 1.0),))
        sol = solver.solve(prog)
        assert sol.status == solver.SolveStatus.OPTIMAL
        assert sol.iterations > solver.PENALTY_CHECK_EVERY
        assert sol.rho != 1.0

    def test_infeasible_detected(self):
        prog = solver.ConicProgram(
            dim=2, objective_matrix=np.zeros((2, 2)),
            constraints=(solver.Constraint(np.eye(2), "EQ", -1.0),))
        sol = solver.solve(prog, max_iter=5000)
        assert sol.status in (solver.SolveStatus.INFEASIBLE_LIKELY,
                              solver.SolveStatus.MAX_ITER)
        assert sol.primal_residual > 1e-4


class TestRandomStrictlyFeasible:
    def test_kkt_residual_battery(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, 4))
            Z0 = None
            B = rng.standard_normal((d, d + 2))
            Z0 = B @ B.T / (d + 2) + 0.1 * np.eye(d)  # strictly feasible point
            mats = [random_sym(rng, d) for _ in range(k)]
            cons = [solver.Constraint(M, "EQ", float(np.sum(M * Z0))) for M in mats]
            cons.append(solver.Constraint(np.eye(d), "EQ", float(np.trace(Z0))))
            prog = solver.ConicProgram(
                dim=d, objective_matrix=random_sym(rng, d),
                constraints=tuple(cons))
            sol = solver.solve(prog)
            assert sol.status == solver.SolveStatus.OPTIMAL, f"trial {trial}"
            assert sol.primal_residual <= 1e-6
            assert sol.dual_residual <= 1e-6
            # primal iterate is PSD up to solver accuracy
            w = np.linalg.eigvalsh(sol.Z)
            assert w[0] >= -1e-6 * max(1.0, w[-1])


def _criterion10_program(k, le_rows=False):
    """Criterion 10's random strictly feasible SDP k; with le_rows, every
    other random row becomes an LE row, slack at Z0 for k % 3 != 0."""
    rng = np.random.default_rng(500 + k)
    d = 2 + k % 5
    B = rng.standard_normal((d, d))
    Z0 = B @ B.T / (d + 2) + 0.1 * np.eye(d)
    cons = []
    for j in range(d):
        A = random_sym(rng, d)
        sense = "LE" if le_rows and j % 2 else "EQ"
        slack = 0.1 if sense == "LE" and k % 3 else 0.0
        cons.append(solver.Constraint(A, sense, float(np.sum(A * Z0)) + slack))
    cons.append(solver.Constraint(np.eye(d), "EQ", float(np.trace(Z0))))
    return solver.ConicProgram(dim=d, objective_matrix=random_sym(rng, d),
                               constraints=tuple(cons))


class TestDualCertificate:
    @pytest.mark.parametrize("le_rows", [False, True])
    def test_multipliers_are_dual_feasible(self, le_rows):
        # C + sum y_k M_k PSD and LE multipliers nonnegative, both to eps
        # relative to their own scale
        eps = 1e-7
        for k in range(0, 100, 3):
            prog = _criterion10_program(k, le_rows)
            sol = solver.solve(prog, eps=eps, max_iter=100000)
            assert sol.status == solver.SolveStatus.OPTIMAL, k
            C = prog.objective_matrix
            S = C + sum(y * con.matrix for y, con in zip(sol.y, prog.constraints))
            assert np.linalg.eigvalsh(S)[0] >= -eps * max(1.0, np.linalg.norm(C, 2)), k
            y_le = [y for y, con in zip(sol.y, prog.constraints) if con.sense == "LE"]
            assert min(y_le, default=0.0) >= -eps * max(1.0, np.max(np.abs(sol.y))), k


class TestRowEquilibration:
    @pytest.mark.parametrize("s", [1e-6, 1e6])
    def test_scaled_rows_solve_as_at_unit_scale(self, s):
        # s M_k, s b_k describe the same feasible set; unit-norm EQ rows
        # make the iteration, and so the iteration count, scale-free (an LE
        # row's slack coefficient stays 1, so LE rows are not)
        for k in range(0, 100, 7):
            prog = _criterion10_program(k)
            scaled = solver.ConicProgram(
                dim=prog.dim, objective_matrix=prog.objective_matrix,
                constraints=tuple(solver.Constraint(s * con.matrix, con.sense, s * con.rhs)
                                  for con in prog.constraints))
            ref = solver.solve(prog)
            sol = solver.solve(scaled)
            assert sol.status == ref.status == solver.SolveStatus.OPTIMAL, k
            assert sol.iterations == ref.iterations, k
            assert np.max(np.abs(sol.Z - ref.Z)) <= 1e-6, k
            # multipliers come back in the units of the given rows
            assert np.allclose(s * sol.y, ref.y, rtol=1e-6, atol=1e-6), k


def _textbook_solve(prog, eps=1e-7, max_iter=50000):
    """The solver's ADMM iteration written out step by step: the affine
    projection x = P (v - u - c / rho) + q with P = I - A^T (A A^T)^-1 A,
    over-relaxation, eigenvalue and slack clipping, and the u update, with
    the solver's row equilibration, 25-step check, penalty rule and
    statuses. Returns (status, iterations, Z)."""
    d, cons = prog.dim, prog.constraints
    nz = d * (d + 1) // 2
    le = [k for k, con in enumerate(cons) if con.sense == "LE"]
    nvar = nz + len(le)
    A = np.zeros((len(cons), nvar))
    for k, con in enumerate(cons):
        A[k, :nz] = solver.svec(con.matrix, d)
    for j, k in enumerate(le):
        A[k, nz + j] = 1.0
    b = np.array([con.rhs for con in cons])
    norms = np.linalg.norm(A, axis=1)
    norms[norms == 0.0] = 1.0
    A /= norms[:, None]
    b /= norms
    c = np.zeros(nvar)
    c[:nz] = solver.svec(prog.objective_matrix, d)
    G = A @ A.T + 1e-12 * np.eye(len(cons))
    P = np.eye(nvar) - A.T @ np.linalg.solve(G, A)
    q = A.T @ np.linalg.solve(G, b)
    scale_b = max(1.0, np.linalg.norm(b))
    scale_c = max(1.0, np.linalg.norm(c))
    a, rho = solver.OVER_RELAXATION, 1.0
    v, u = np.zeros(nvar), np.zeros(nvar)
    for it in range(1, max_iter + 1):
        w_in = v - u - c / rho
        x = P @ w_in + q
        t = a * x + (1.0 - a) * v + u
        lam, V = np.linalg.eigh(solver.smat(t[:nz], d))
        clipped = V @ np.diag(np.maximum(lam, 0.0)) @ V.T
        v_new = np.concatenate([solver.svec(clipped, d), np.maximum(t[nz:], 0.0)])
        u = t - v_new
        if it % 25 == 0 or it == max_iter:
            mu = np.linalg.solve(G, b - A @ w_in)
            pri = np.linalg.norm(A @ v_new - b) / scale_b
            dua = rho * np.linalg.norm(v_new - v) / scale_c
            gap = abs(c @ v_new - b @ (rho * mu)) / max(1.0, abs(c @ v_new))
        v = v_new
        if it % 25 == 0 or it == max_iter:
            if pri <= eps and dua <= eps and gap <= max(eps, 1e-7) * 10:
                break
        if it % solver.PENALTY_CHECK_EVERY == 0:
            if pri > solver.PENALTY_RATIO * dua and np.isfinite(pri):
                rho, u = 2.0 * rho, u / 2.0
            elif dua > solver.PENALTY_RATIO * pri and np.isfinite(dua):
                rho, u = rho / 2.0, 2.0 * u
    if pri <= eps and dua <= eps:
        status = solver.SolveStatus.OPTIMAL
    elif np.linalg.norm(v) > 1e8:
        status = solver.SolveStatus.UNBOUNDED_LIKELY
    elif pri > 1e-3:
        status = solver.SolveStatus.INFEASIBLE_LIKELY
    else:
        status = solver.SolveStatus.MAX_ITER
    return status, it, solver.smat(v[:nz], d)


def _criterion06_program(seed):
    """The first random-objective relaxation program criterion 06 samples
    for its trust-region instance `seed`."""
    inst = make_gtrs(seed)
    n = inst.n
    rng = np.random.default_rng(10_000 + seed)
    C = float(rng.uniform(0.2, 1.0)) * inst.objective.embed()
    for j in range(n):
        E = np.zeros((n + 1, n + 1))
        E[j, n] = E[n, j] = 0.5
        C = C + float(rng.standard_normal()) * E
    prog = solver.relaxation_program(inst)
    return solver.ConicProgram(dim=prog.dim, objective_matrix=C,
                               constraints=prog.constraints)


class TestTextbookIteration:
    """The lifted product, the fused cone step and the every-25 multiplier
    solve take the same iterates as the iteration written out."""

    def _same(self, prog, **kw):
        sol = solver.solve(prog, **kw)
        status, iters, Z = _textbook_solve(prog, **kw)
        assert sol.status == status
        assert sol.iterations == iters
        assert np.max(np.abs(sol.Z - Z)) <= 1e-10

    @pytest.mark.parametrize("le_rows", [False, True])
    def test_criterion10_programs(self, le_rows):
        for k in range(100):
            self._same(_criterion10_program(k, le_rows))

    def test_criterion06_relaxation_points(self):
        for seed in range(20):
            self._same(_criterion06_program(seed), eps=1e-6, max_iter=20000)

    def test_budget_cut_short(self):
        # the last iteration is a check iteration too
        for k in range(10):
            self._same(_criterion10_program(k, le_rows=True), max_iter=40)


class TestRelaxation:
    def test_trs_value(self):
        inst = model.QcqpInstance(
            1, q([[-1.0]], [0], 0), (q([[1.0]], [0], -1.0),))
        val, Z, sol = solver.solve_opt_sdp(inst)
        assert sol.status == solver.SolveStatus.OPTIMAL
        assert abs(val - (-1.0)) <= 1e-4
        assert abs(Z[1, 1] - 1.0) <= 1e-5

    def test_explicit_instance_value(self):
        val, Z, sol = solver.solve_opt_sdp(make_explicit_instance())
        assert abs(val - 2.0) <= 1e-4

    def test_weak_duality_vs_feasible_points(self):
        inst = make_explicit_instance()
        val, _, _ = solver.solve_opt_sdp(inst)
        # relaxation value never exceeds the objective at any feasible point
        for x in ([1.0, 1.0], [1.5, 1.2], [-1.0, 1.1]):
            if model.is_feasible(inst, x):
                assert val <= model.eval_form(inst.objective, x) + 1e-4


def _reference_membership(inst, x, t):
    """The lifted order-(n+1) membership program: the last row and column of
    Z pinned to (x, 1) by n + 1 EQ rows, <M_obj, Z> <= t, objective tr Z,
    with the thresholds of ``solver.dsdp_membership``."""
    n = inst.n
    rel = solver.relaxation_program(inst)
    *cons, corner = rel.constraints
    cons.append(solver.Constraint(rel.objective_matrix, "LE", float(t)))
    for j in range(n):
        E = np.zeros((n + 1, n + 1))
        E[j, n] = E[n, j] = 0.5
        cons.append(solver.Constraint(E, "EQ", float(x[j])))
    cons.append(corner)
    prog = solver.ConicProgram(dim=n + 1, objective_matrix=np.eye(n + 1),
                               constraints=tuple(cons))
    sol = solver.solve(prog, eps=1e-6)
    if sol.status in (solver.SolveStatus.OPTIMAL, solver.SolveStatus.MAX_ITER):
        return sol.primal_residual <= 1e-5
    return False


class TestMembership:
    def test_agrees_with_lifted_program(self):
        # each instance's Shor optimum x* at t = opt_sdp (the boundary) and
        # above it, and x* moved off the projection
        inst_list = [make_explicit_instance(), make_gtrs(0), make_gtrs(3),
                     model.QcqpInstance(1, q([[1.0]], [0], 0), (q([[1.0]], [0], -1.0),))]
        got = []
        for inst in inst_list:
            val, Z, _ = solver.solve_opt_sdp(inst)
            x = Z[:-1, -1]
            for pt in ((x, val), (x, val + 0.1), (x + 2.0, val + 10.0)):
                got.append((solver.dsdp_membership(inst, *pt), _reference_membership(inst, *pt)))
        # x* + 2 leaves the ball of the last three instances
        want = [True, True, True] + [True, True, False] * 3
        assert got == [(w, w) for w in want]

    def test_relaxation_points(self):
        inst = make_explicit_instance()
        assert solver.dsdp_membership(inst, [0.0, 0.0], 2.0)
        assert solver.dsdp_membership(inst, [0.0, 0.0], 3.5)
        assert not solver.dsdp_membership(inst, [0.0, 0.0], 1.0)

    def test_infeasible_x_rejected(self):
        inst = model.QcqpInstance(
            1, q([[1.0]], [0], 0), (q([[1.0]], [0], -1.0),))
        assert not solver.dsdp_membership(inst, [3.0], 10.0)

    @pytest.mark.parametrize("x", [[0.0, 0.0, 5.0], [0.0], [0.0, np.nan]])
    def test_x_of_wrong_length_or_not_finite_rejected(self, x):
        # n = 2 over the unit ball: [0, 0, 5] is not read as (0, 0)
        with pytest.raises(ValueError):
            solver.dsdp_membership(make_gtrs(0), x, 1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_t_not_finite_rejected(self, t):
        with pytest.raises(ValueError):
            solver.dsdp_membership(make_gtrs(0), [0.0, 0.0], t)
