"""Desk-scale dense SDP solver.

First-order operator splitting: the iterate alternates between projection
onto the affine constraint set (a dense linear solve whose normal matrix is
factorized once) and projection onto the product cone PSD x R_+ (eigenvalue
clipping plus slack clipping), with scaled dual updates, over-relaxation,
and adaptive penalty rebalancing.

Matrix variables are stored in scaled vector form (off-diagonal entries
multiplied by sqrt(2)) so that the Frobenius inner product is the ordinary
dot product.  Each affine row and its right-hand side are divided by the
row norm before the normal matrix is factorized, so the factorization, its
tiny ridge and the primal residual of an EQ row mean the same at every
scale of its matrix and right-hand side (an LE row's slack keeps the
coefficient 1); the row multipliers are un-scaled on exit.

Each iteration is kept lean for the small (d <= 5) programs this package
solves, where call overhead rather than arithmetic sets the pace.  The
affine step x = P w + q, with P = I - A^T (A A^T)^{-1} A, is linear in the
iterate pair (v, u), so the projection, the over-relaxation and the cone
step's input fold into one matrix-vector product t = K [v; u] + k0, with K
built once per solve and k0 once per penalty change.  That product is
lifted: the rows of K and k0 that give svec(T) are repeated as the d*d rows
L K that give vec(T) (L svec(M) = vec(M)), and k0 is the last column,
multiplying a constant 1 after [v; u].  One product thus writes both t and
the cone input T, a reshaped view of the same buffer, with no smat.  The
cone step is one LAPACK ``dsyevd`` call with in-place clipping, and the
clipped matrix returns as svec through one more product, Sv vec(M) =
svec(M); then u' = t - v'.  The affine multipliers are back-solved (LAPACK
``dpotrs``) only on the convergence check iterations, every 25th and the
last, which are the only iterations that read them.  The penalty rho at
exit is reported with the solution.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg

OVER_RELAXATION = 1.6
PENALTY_CHECK_EVERY = 100
PENALTY_RATIO = 10.0


class SolveStatus(enum.Enum):
    OPTIMAL = "OPTIMAL"
    MAX_ITER = "MAX_ITER"
    INFEASIBLE_LIKELY = "INFEASIBLE_LIKELY"
    UNBOUNDED_LIKELY = "UNBOUNDED_LIKELY"


@dataclass(frozen=True)
class Constraint:
    matrix: np.ndarray
    sense: str  # "LE" or "EQ"
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.sym(self.matrix))
        if self.sense not in ("LE", "EQ"):
            raise ValueError(f"sense must be LE or EQ, got {self.sense!r}")
        object.__setattr__(self, "rhs", float(self.rhs))


@dataclass(frozen=True)
class ConicProgram:
    dim: int
    objective_matrix: np.ndarray
    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "objective_matrix", linalg.sym(self.objective_matrix))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.objective_matrix.shape[0] != self.dim:
            raise ValueError("objective matrix dimension mismatch")
        for con in self.constraints:
            if con.matrix.shape[0] != self.dim:
                raise ValueError("constraint matrix dimension mismatch")


@dataclass
class SdpSolution:
    Z: np.ndarray
    y: np.ndarray  # per-constraint multipliers; LE multipliers >= -eps
    objective_value: float
    primal_residual: float
    dual_residual: float
    gap: float
    status: SolveStatus
    iterations: int = 0
    rho: float = 1.0  # final ADMM penalty


@functools.lru_cache(maxsize=None)
def _svec_idx(d: int):
    """Upper-triangle index, its mirror in the lower triangle, svec scale."""
    iu = np.triu_indices(d)
    return iu, iu[::-1], np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))


@functools.lru_cache(maxsize=None)
def _lifts(d: int):
    """Lifting matrices: L (d*d x nz) with L svec(M) = vec(M), and Sv
    (nz x d*d) with Sv vec(M) = svec(M), read off the upper triangle."""
    iu, il, scale = _svec_idx(d)
    k = np.arange(scale.size)
    L = np.zeros((d * d, scale.size))
    L[iu[0] * d + iu[1], k] = 1.0 / scale
    L[il[0] * d + il[1], k] = 1.0 / scale
    Sv = np.zeros((scale.size, d * d))
    Sv[k, iu[0] * d + iu[1]] = scale
    return L, Sv


def svec(M: np.ndarray, d: int) -> np.ndarray:
    """svec of a d x d matrix, or of each matrix in a stack (..., d, d)."""
    iu, _, scale = _svec_idx(d)
    return M[..., iu[0], iu[1]] * scale


def smat(v: np.ndarray, d: int) -> np.ndarray:
    iu, il, scale = _svec_idx(d)
    M = np.empty((d, d))
    w = v / scale
    w += 0.0  # no -0.0: bit for bit the triangle sum M + triu(M, 1).T
    M[il] = w
    M[iu] = w
    return M


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector, as np.linalg.norm computes it."""
    return math.sqrt(x @ x)


def solve(prog: ConicProgram, eps: float = 1e-7, max_iter: int = 50000) -> SdpSolution:
    """Solve min <C,Z> s.t. constraints, Z PSD."""
    import scipy.linalg

    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    d = prog.dim
    cons = prog.constraints

    nz = d * (d + 1) // 2
    le_idx = [k for k, con in enumerate(cons) if con.sense == "LE"]
    p = len(le_idx)
    ncon = len(cons)
    nvar = nz + p

    c = np.zeros(nvar)
    c[:nz] = svec(prog.objective_matrix, d)

    if ncon == 0:
        # No affine rows: min <C, Z> over the PSD cone is 0 at Z = 0 when C
        # is PSD; otherwise the eigenvector u of lambda_min(C) < 0 gives the
        # improving ray Z = u u^T, returned as the evidence of unboundedness.
        spec = linalg.eig_sym(prog.objective_matrix)
        lmin = float(spec.eigenvalues[0])
        tol = eps * max(1.0, float(np.max(np.abs(spec.eigenvalues))))
        if lmin >= -tol:
            return SdpSolution(
                Z=np.zeros((d, d)), y=np.zeros(0), objective_value=0.0,
                primal_residual=0.0, dual_residual=0.0, gap=0.0,
                status=SolveStatus.OPTIMAL, iterations=0,
            )
        u = spec.eigenvectors[:, 0]
        return SdpSolution(
            Z=np.outer(u, u), y=np.zeros(0), objective_value=-np.inf,
            primal_residual=0.0, dual_residual=-lmin, gap=np.inf,
            status=SolveStatus.UNBOUNDED_LIKELY, iterations=0,
        )

    # Rows of the affine system: <M_k, Z> (+ s_j for LE rows) = rhs_k.
    A = np.zeros((ncon, nvar))
    A[:, :nz] = svec(np.array([con.matrix for con in cons]), d)
    A[le_idx, nz + np.arange(p)] = 1.0
    rhs = np.array([con.rhs for con in cons])

    # Unit-norm rows; an all-zero EQ row keeps its (zero) scale.
    row_norm = np.linalg.norm(A, axis=1)
    row_norm[row_norm == 0.0] = 1.0
    A /= row_norm[:, None]
    rhs /= row_norm

    # Tiny ridge keeps redundant rows (duplicated constraints) solvable.
    gram = A @ A.T
    gram.flat[:: ncon + 1] += 1e-12
    if not np.isfinite(gram).all():
        raise ValueError("constraint matrices must be finite")
    lapack = scipy.linalg.lapack
    chol, info = lapack.dpotrf(gram, overwrite_a=1, clean=0)  # upper, as potrs expects
    if info:
        raise np.linalg.LinAlgError("Gram matrix of the affine rows is not positive definite")
    potrs, eig = lapack.dpotrs, lapack.dsyevd

    scale_b = max(1.0, _norm(rhs))
    scale_c = max(1.0, _norm(c))

    # t = a x + (1 - a) v + u with x = P (v - u - c / rho) + q is the product
    # K [v; u] + k0.  KL stacks K over its rows lifted by L, so the same
    # product also gives T = smat(t[:nz]), and it ends in the lifted column
    # k0 = a (q - P c / rho), which multiplies the 1 that ends [v; u; 1].
    a = OVER_RELAXATION
    L, Sv = _lifts(d)
    GA, _ = potrs(chol, A)
    P = np.eye(nvar) - A.T @ GA
    K = np.hstack([a * P + (1.0 - a) * np.eye(nvar), np.eye(nvar) - a * P])

    def lift(x):
        return np.concatenate([x, L @ x[:nz]])

    qL, PcL = lift(GA.T @ rhs), lift(P @ c)
    KL = np.empty((nvar + d * d, 2 * nvar + 1))
    KL[:, :-1] = lift(K)
    rho = 1.0
    KL[:, -1] = a * (qL - PcL / rho)

    vu = np.zeros(2 * nvar + 1)  # [v; u; 1]
    vu[-1] = 1.0
    v, u = vu[:nvar], vu[nvar:-1]
    buf = np.empty(nvar + d * d)  # [t; vec(T)]
    t, T = buf[:nvar], buf[nvar:].reshape(d, d)
    M = np.empty((d, d))

    # every exit is a check iteration, which sets mu, pri and dua
    for it in range(1, max_iter + 1):
        check = it % 25 == 0 or it == max_iter
        if check:
            mu, _ = potrs(chol, rhs - A @ (v - u - c / rho), overwrite_b=True)
            v_prev = v.copy()
        np.dot(KL, vu, out=buf)
        w, V, _ = eig(T, lower=1)
        np.maximum(w, 0.0, out=w)
        np.dot(V * w, V.T, out=M)
        np.dot(Sv, M.ravel(), out=v[:nz])
        np.maximum(t[nz:], 0.0, out=v[nz:])
        np.subtract(t, v, out=u)

        if check:
            pri = _norm(A @ v - rhs) / scale_b
            dua = rho * _norm(v - v_prev) / scale_c
            gap_now = abs(float(c @ v) - float(rhs @ (rho * mu))) / max(
                1.0, abs(float(c @ v))
            )
            if pri <= eps and dua <= eps and gap_now <= max(eps, 1e-7) * 10:
                break
        if it % PENALTY_CHECK_EVERY == 0:
            if pri > PENALTY_RATIO * dua and np.isfinite(pri):
                rho *= 2.0
                u /= 2.0
            elif dua > PENALTY_RATIO * pri and np.isfinite(dua):
                rho /= 2.0
                u *= 2.0
            KL[:, -1] = a * (qL - PcL / rho)

    y_eq = rho * mu / row_norm  # multipliers of the given rows (max b^T y)
    # Reported per-constraint multipliers follow the aggregation convention
    # C + sum(lambda_k M_k) PSD, i.e. lambda = -y; LE multipliers come out >= 0.
    lam = -y_eq
    Z = smat(v[:nz], d)
    obj = float((c[:nz] * v[:nz]).sum())
    dual_obj = float(rhs @ (rho * mu))
    gap = abs(obj - dual_obj) / max(1.0, abs(obj), abs(dual_obj))

    if pri <= eps and dua <= eps:
        status = SolveStatus.OPTIMAL
    elif _norm(v) > 1e8:
        status = SolveStatus.UNBOUNDED_LIKELY
    elif pri > 1e-3:
        status = SolveStatus.INFEASIBLE_LIKELY
    else:
        status = SolveStatus.MAX_ITER

    return SdpSolution(
        Z=Z,
        y=lam,
        objective_value=obj,
        primal_residual=pri,
        dual_residual=dua,
        gap=gap,
        status=status,
        iterations=it,
        rho=rho,
    )


# ---------------------------------------------------------------------------
# QCQP relaxation front ends
# ---------------------------------------------------------------------------


def relaxation_program(inst) -> ConicProgram:
    """Lifted program: Z in S^{n+1}, <M_i,Z> <= 0 / = 0, Z[n,n] = 1, Z PSD."""
    n = inst.n
    cons = [Constraint(M, sense, 0.0) for M, sense in zip(inst.forms[1:], inst.senses)]
    corner = np.zeros((n + 1, n + 1))
    corner[n, n] = 1.0
    cons.append(Constraint(corner, "EQ", 1.0))
    return ConicProgram(dim=n + 1, objective_matrix=inst.forms[0], constraints=tuple(cons))


def solve_opt_sdp(inst):
    """Optimal value of the lifted relaxation; returns (value, Z, solution)."""
    sol = solve(relaxation_program(inst))
    return sol.objective_value, sol.Z, sol


def dsdp_membership(inst, x, t) -> bool:
    """Whether (x, t) belongs to the projected feasible region of the relaxation.

    Some Z = [[X, x], [x^T, 1]] is PSD exactly when Y = X - x x^T is (Schur
    complement), and <F_k, Z> = <A_k, Y> + q_k(x).  So the point belongs when
    some PSD Y of order n has <A_k, Y> <= -q_k(x) (= for equality rows) and
    <A_obj, Y> <= t - q_obj(x).  That program, with objective tr Y to keep
    iterates tame, is solved to accuracy 1e-6; the point belongs when the
    primal residual is at most 1e-5.  ValueError unless x has exactly n
    finite entries and t is finite.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n, t = inst.n, float(t)
    if x.shape[0] != n or not np.all(np.isfinite(x)) or not np.isfinite(t):
        raise ValueError(f"membership needs x with {n} finite entries and a finite t, "
                         f"got x = {x.tolist()}, t = {t}")
    q = np.array([linalg.form_values(F, x) for F in inst.forms])
    q[0] -= t
    cons = [Constraint(F[:n, :n], sense, -qk)
            for F, sense, qk in zip(inst.forms, ("LE", *inst.senses), q)]
    sol = solve(ConicProgram(dim=n, objective_matrix=np.eye(n), constraints=tuple(cons)),
                eps=1e-6)
    if sol.status in (SolveStatus.OPTIMAL, SolveStatus.MAX_ITER):
        return sol.primal_residual <= 1e-5
    return False
