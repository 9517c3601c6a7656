"""Minimization of a ratio of quadratic forms over an LMI-cut domain.

The ratio problem min z^T M_obj z / z^T B z over feasible z with positive
denominator re-homogenizes to an SDP with the normalization <B, Z> = 1.
Equality of the chain is guaranteed when the slice is rank-one generated and
a bounded dual certificate exists; both hypotheses are checked, never
assumed, and failures downgrade the claim to a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg, rog, solver


@dataclass(frozen=True)
class RatioProblem:
    M_obj: np.ndarray
    B: np.ndarray
    mset: rog.LmiSet

    def __post_init__(self):
        object.__setattr__(self, "M_obj", linalg.sym(self.M_obj))
        object.__setattr__(self, "B", linalg.sym(self.B))
        if self.mset.matrices and self.mset.dim != self.M_obj.shape[0]:
            raise ValueError("dimension mismatch")

    @property
    def dim(self) -> int:
        return self.M_obj.shape[0]


def _dual_certificate(p: RatioProblem, sol: solver.SdpSolution) -> dict:
    """The solve's own multipliers as the bounded dual certificate.

    theta = sol.y[:k] (one per LMI, LE ones >= 0) and lam = sol.y[k] (the
    normalization row); the hypothesis holds when M_obj + sum theta_j M_j
    + lam B is PSD to within 1e-7 times the largest 2-norm of its terms.
    """
    k = len(p.mset.matrices)
    theta, lam = sol.y[:k], float(sol.y[k])
    terms = [p.M_obj, lam * p.B, *(th * Mj for th, Mj in zip(theta, p.mset.matrices))]
    scale = max(np.linalg.norm(T, 2) for T in terms)
    lmin = float(np.linalg.eigvalsh(sum(terms))[0])
    if lmin >= -1e-7 * scale:
        return {"found": True, "theta": theta, "lam": lam, "lambda_min": lmin}
    return {"found": False, "lambda_min": lmin}


def solve_ratio(p: RatioProblem) -> dict:
    """Solve the normalized SDP (eps 1e-8, at most 400,000 iterations) and
    report the hypothesis checks.

    Returns {value, z, Z, hypotheses, claim} where claim is EXACT when the
    rank-one recovery and both checkable hypotheses succeed, else
    LOWER_BOUND_ONLY.
    """
    # The solve sees M_obj / a and B / b (a, b their 2-norms; the solver
    # equilibrates the LMI rows), so it reads the same at every scale of the
    # problem; its value, Z and multipliers are scaled back.
    a = float(np.linalg.norm(p.M_obj, 2)) or 1.0
    b = float(np.linalg.norm(p.B, 2)) or 1.0
    cons = [solver.Constraint(M, s, 0.0)
            for M, s in zip(p.mset.matrices, p.mset.senses)]
    cons.append(solver.Constraint(p.B / b, "EQ", 1.0))
    prog = solver.ConicProgram(dim=p.dim, objective_matrix=p.M_obj / a,
                               constraints=tuple(cons))
    sol = solver.solve(prog, eps=1e-8, max_iter=400000)
    y = a * sol.y
    y[-1] /= b
    sol = replace(sol, Z=sol.Z / b, y=y, objective_value=a / b * sol.objective_value)
    rv = rog.check_set(p.mset)
    hyp = {
        "rog": {"status": rv.status, "certificate": rv.certificate},
        "dual": _dual_certificate(p, sol),
    }
    out = {"value": sol.objective_value, "Z": sol.Z, "solution": sol,
           "hypotheses": hyp, "z": None, "sigma_ratio": None,
           "claim": "LOWER_BOUND_ONLY"}
    spec = linalg.eig_sym(sol.Z)
    w = spec.eigenvalues[::-1]
    if w[0] > 0:
        ratio = float(w[1] / w[0]) if len(w) > 1 else 0.0
        out["sigma_ratio"] = ratio
        if ratio <= 1e-5:
            z = np.sqrt(max(w[0], 0.0)) * spec.eigenvectors[:, -1]
            if abs(z[-1]) > 1e-7:
                z = z / z[-1]
            out["z"] = z
    hyp_ok = hyp["rog"]["status"] in ("ROG_CERTIFIED", "ROG_BY_SUFFICIENT_RULE") \
        and hyp["dual"]["found"]
    if hyp_ok and out["z"] is not None and sol.status == solver.SolveStatus.OPTIMAL:
        out["claim"] = "EXACT"
    return out


def build_rtls(data_rows, rhs, radius: float) -> RatioProblem:
    """Regularized total-least-squares ratio over a centered ball.

    min ||A x - b||^2 / (||x||^2 + 1)  subject to  ||x||^2 <= radius^2.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    A = np.asarray(data_rows, dtype=float)
    b = np.asarray(rhs, dtype=float).reshape(-1)
    if A.shape[0] != b.shape[0]:
        raise ValueError("row count mismatch")
    q = A.shape[1]
    M_obj = np.zeros((q + 1, q + 1))
    M_obj[:q, :q] = A.T @ A
    M_obj[:q, q] = -A.T @ b
    M_obj[q, :q] = -A.T @ b
    M_obj[q, q] = float(b @ b)
    B = np.eye(q + 1)
    ball = np.diag(np.concatenate([np.ones(q), [-radius**2]]))
    mset = rog.LmiSet((ball,), ("LE",))
    return RatioProblem(M_obj=M_obj, B=B, mset=mset)


def rtls_grid_value(data_rows, rhs, radius: float) -> float:
    """Brute-force ratio value over the ball (dimension <= 2, grid step 0.01),
    on an open mesh over ``build_rtls``'s own matrices."""
    p = build_rtls(data_rows, rhs, radius)
    if p.dim > 3:
        raise ValueError("grid limited to 2 variables")
    xs = np.ix_(*[np.arange(-radius, radius + 0.005, 0.01)] * (p.dim - 1))
    inside = linalg.form_values(p.mset.matrices[0], xs) <= 1e-12
    ratios = linalg.form_values(p.M_obj, xs) / linalg.form_values(p.B, xs)
    return float(np.min(ratios[inside]))
